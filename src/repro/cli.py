"""Command-line interface: the ``pgschema`` tool.

Subcommands:

* ``pgschema check SCHEMA.graphql`` -- parse, report warnings, and check
  consistency (Definitions 4.3/4.4).
* ``pgschema lint SCHEMA.graphql [--json]`` -- static analysis: stable rule
  codes with source spans, including the polynomial unsatisfiability
  pre-checks (Example 6.1's conflicting-cardinality class).
* ``pgschema analyze SCHEMA.graphql [--json]`` -- the dataflow analyzer:
  fixpoint passes over the type-dependency graph (cardinality intervals,
  constraint implication, key domains, reachability) with per-element
  pre-verdicts, findings, and per-pass timings.
* ``pgschema validate SCHEMA.graphql GRAPH.json`` -- decide the Schema
  Validation Problem (strong satisfaction) and list violations.
* ``pgschema sat SCHEMA.graphql [--type T]`` -- object-type satisfiability
  via the Theorem-3 tableau, with a bounded finite-witness search.  The
  whole-schema sweep runs the portfolio engine (``--engine
  portfolio|serial``): the decision ladder (cache, lint, analysis) decides
  what it can in-process, and the open units run inline unless ``--jobs
  N`` fans them out over N workers; ``--profile`` reports per-engine win
  counts and verdict-cache statistics.
* ``pgschema translate SCHEMA.graphql`` -- show the ALCQI TBox of the
  Theorem-3 translation.
* ``pgschema api SCHEMA.graphql`` -- print the §3.6 GraphQL API schema.
* ``pgschema query SCHEMA.graphql GRAPH.json 'QUERY'`` -- run a GraphQL
  query against the graph through the generated API.
* ``pgschema infer GRAPH.json`` -- induce an SDL schema from an instance.
* ``pgschema diff OLD.graphql NEW.graphql`` -- classify schema evolution
  (backward compatible vs breaking).
* ``pgschema stats GRAPH.json`` -- profile an instance (labels, property
  coverage, degrees).
* ``pgschema export-cypher SCHEMA.graphql [GRAPH.json]`` -- Neo4j DDL (and
  optionally the data) with a report of the inexpressible constraints.
* ``pgschema serve`` -- the long-lived schema-registry service: a
  JSON-over-HTTP daemon with request batching, warm-cache reuse and
  backpressure (docs/SERVICE.md).  Startup failures (port in use, bad
  registry dir) report ``error[E_SERVICE]`` and exit 2.
* ``pgschema perf record|diff|trend|check`` -- continuous performance
  tracking over the ``.perf/`` profile store: record the deterministic
  scenario registry (including the adversarial workload families), diff
  two recorded runs through the degradation detector, render per-scenario
  trends, and gate CI -- ``perf check`` exits 1 on a confirmed
  ``Degradation`` (docs/PERF_TRACKING.md).

Exit status: 0 on success/conformance, 1 on violations or unsatisfiable
types, 2 on usage or input errors, 3 when an execution budget
(``--timeout`` / ``--max-nodes``) ran out before a decision -- the answer
is then UNKNOWN, not wrong.  Errors print one uniform line,
``error[E_CODE]: message`` (see :mod:`repro.errors`).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from importlib import import_module

from . import obs
from .errors import ON_BUDGET, ReproError, exit_code_for, render_error

# Everything else is imported by the handler that runs it: each subcommand
# is a module of repro.commands, imported when it is dispatched, so a cold
# ``pgschema lint`` never compiles the validation engines, the
# satisfiability checker or the service (docs/PERFORMANCE.md, "Cold start").


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # fail fast (and uniformly) on a malformed PGSCHEMA_FAULTS spec
        # instead of surfacing it mid-run from some fault site
        if os.environ.get("PGSCHEMA_FAULTS"):
            from .resilience import faults

            faults.load_env_plan()
        module, _, function = args.command.partition(":")  # "lint", "perf:record"
        handler = getattr(import_module(f".commands.{module}", __package__), function or "run")
        with _observation(args):
            return handler(args)
    except (ReproError, OSError) as error:
        print(render_error(error), file=sys.stderr)
        return exit_code_for(error)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgschema",
        description="Property Graph schemas via the GraphQL SDL "
        "(Hartig & Hidders, GRADES-NDA 2019)",
    )
    subparsers = parser.add_subparsers(required=True)

    check = subparsers.add_parser("check", help="parse a schema and check consistency")
    check.add_argument("schema")
    check.set_defaults(command="check")

    lint = subparsers.add_parser(
        "lint", help="run the static-analysis rules over a schema"
    )
    lint.add_argument("schema")
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only these rules (code like PG001 or slug name); repeatable",
    )
    lint.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="skip these rules; repeatable",
    )
    _add_obs_arguments(lint)
    lint.set_defaults(command="lint")

    analyze = subparsers.add_parser(
        "analyze", help="run the dataflow-analysis passes over a schema"
    )
    analyze.add_argument("schema")
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.add_argument(
        "--timings", action="store_true",
        help="print per-pass wall time to stderr",
    )
    _add_obs_arguments(analyze)
    analyze.set_defaults(command="analyze")

    validate_cmd = subparsers.add_parser(
        "validate", help="validate a graph against a schema"
    )
    validate_cmd.add_argument("schema")
    validate_cmd.add_argument("graph")
    validate_cmd.add_argument(
        "--mode",
        choices=("weak", "directives", "strong", "extended"),
        default="strong",
    )
    validate_cmd.add_argument(
        "--engine", choices=("parallel", "indexed", "naive"), default="parallel",
        help="parallel: the fused plan kernel (default); indexed: one pass "
        "per rule; naive: the quantifier-faithful baseline",
    )
    validate_cmd.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="shard --engine parallel N ways, on a process pool for large "
        "graphs (default: run the kernel inline, one shard, no pool)",
    )
    validate_cmd.add_argument(
        "--profile", action="store_true",
        help="print the engine's stage split (partition, kernel, merge), "
        "its executor and plan-cache statistics to stderr",
    )
    jsonl_group = validate_cmd.add_argument_group("JSONL input")
    jsonl_group.add_argument(
        "--stream", action="store_true",
        help="validate a .jsonl graph out-of-core in bounded memory "
        "(chunked along scope boundaries; report byte-identical to in-memory)",
    )
    jsonl_group.add_argument(
        "--chunk-size", type=int, default=65536, metavar="N",
        help="elements per chunk for --stream (default 65536)",
    )
    _add_budget_arguments(validate_cmd)
    _add_obs_arguments(validate_cmd)
    validate_cmd.set_defaults(command="validate")

    cdc = subparsers.add_parser(
        "cdc",
        help="consume a mutation journal, keeping the violation set current",
    )
    cdc.add_argument("schema")
    cdc.add_argument("journal", help="JSONL mutation journal")
    cdc.add_argument(
        "--graph", default=None, metavar="FILE",
        help="base graph the journal applies to (default: empty graph)",
    )
    cdc.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write atomic checkpoints here (required for --resume)",
    )
    cdc.add_argument(
        "--checkpoint-every", type=int, default=16, metavar="N",
        help="commits between checkpoints (default 16)",
    )
    cdc.add_argument(
        "--resume", action="store_true",
        help="recover from the newest valid checkpoint (falling back to the "
        "previous one, then to cold replay) before consuming",
    )
    cdc.add_argument(
        "--events-json", default=None, metavar="FILE",
        help="append violation APPEARED/DISAPPEARED transitions here as JSONL",
    )
    _add_budget_arguments(cdc)
    _add_obs_arguments(cdc)
    cdc.set_defaults(command="cdc")

    sat = subparsers.add_parser("sat", help="check object-type satisfiability")
    sat.add_argument("schema")
    sat.add_argument("--type", dest="type_name", help="one object type (default: all)")
    sat.add_argument("--no-witness", action="store_true")
    sat.add_argument(
        "--max-witness-nodes", type=int, default=4, metavar="N",
        help="bound for the finite witness search (default 4)",
    )
    sat.add_argument(
        "--engine", choices=("serial", "portfolio"), default="portfolio",
        help="whole-schema strategy: decision ladder then batched fan-out of "
        "the open units (default), or the element-by-element serial sweep",
    )
    sat.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the open units out over N worker processes (default: "
        "inline, no pool)",
    )
    sat.add_argument(
        "--profile", action="store_true",
        help="print engine win counts and verdict-cache statistics to stderr",
    )
    sat.add_argument(
        "--no-analysis", action="store_true",
        help="disable the static rung (the dataflow-analysis verdicts): the "
        "tableau then decides every element",
    )
    _add_budget_arguments(sat)
    _add_obs_arguments(sat)
    sat.set_defaults(command="sat")

    translate = subparsers.add_parser(
        "translate", help="print the ALCQI translation (Theorem 3)"
    )
    translate.add_argument("schema")
    translate.set_defaults(command="translate")

    api = subparsers.add_parser("api", help="print the §3.6 GraphQL API schema")
    api.add_argument("schema")
    api.set_defaults(command="api")

    query = subparsers.add_parser("query", help="run a GraphQL query over a graph")
    query.add_argument("schema")
    query.add_argument("graph")
    query.add_argument("query_text")
    query.set_defaults(command="query")

    infer = subparsers.add_parser("infer", help="induce a schema from a graph")
    infer.add_argument("graph")
    infer.set_defaults(command="infer")

    diff = subparsers.add_parser(
        "diff", help="classify schema evolution old -> new"
    )
    diff.add_argument("old_schema")
    diff.add_argument("new_schema")
    diff.add_argument(
        "--json", action="store_true", help="machine-readable change list"
    )
    diff.set_defaults(command="diff")

    stats = subparsers.add_parser("stats", help="profile a graph instance")
    stats.add_argument("graph")
    stats.add_argument(
        "--json", action="store_true",
        help="emit the profile as a metrics-snapshot JSON object "
        "(same shape as --metrics run snapshots), including occupancy/"
        "hit/miss gauges for the plan cache, the sat caches and "
        "the compiled-scalar registry, plus a perf block summarising the "
        "profile store (scenario count, last commit, newest verdicts)",
    )
    stats.add_argument(
        "--perf-store", default=".perf", metavar="DIR",
        help="profile store summarised in the --json perf block (default .perf)",
    )
    stats.set_defaults(command="stats")

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived schema-registry service "
        "(JSON-over-HTTP; see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8351,
        help="TCP port to bind (default 8351; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--registry-dir", default=None, metavar="DIR",
        help="persist registered schemas here (atomic writes; reloaded on "
        "restart).  Default: in-memory only",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="admission-queue depth; beyond it requests get a typed 503 "
        "(default 256)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, metavar="N",
        help="most requests coalesced into one batch sweep (default 32)",
    )
    serve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for graphs of 4096 or more elements "
        "(default: inline, no pool)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; exhaustion returns a typed "
        "partial report (HTTP 202), never a wrong answer",
    )
    _add_obs_arguments(serve)
    serve.set_defaults(command="serve")

    export = subparsers.add_parser(
        "export-cypher", help="export Neo4j constraint DDL (and optionally data)"
    )
    export.add_argument("schema")
    export.add_argument("graph", nargs="?")
    export.set_defaults(command="export_cypher")

    perf = subparsers.add_parser(
        "perf",
        help="continuous performance tracking over the .perf/ profile store "
        "(see docs/PERF_TRACKING.md)",
    )
    perf_sub = perf.add_subparsers(required=True)

    record = perf_sub.add_parser(
        "record", help="run the scenario registry and append one profile run"
    )
    record.add_argument(
        "--commit", default=None, metavar="SHA",
        help="commit label for the run (default: git HEAD, else 'unknown')",
    )
    record.add_argument(
        "--quick", action="store_true",
        help="small workload sizes (the CI perf-smoke shape)",
    )
    record.add_argument(
        "--repeats", type=int, default=5, metavar="N",
        help="timed samples per scenario after one warm-up (default 5)",
    )
    record.add_argument(
        "--scenario", action="append", metavar="SEL",
        help="record only these scenarios (exact id, id prefix like "
        "'validate.', or family name); repeatable",
    )
    _add_perf_store_argument(record)
    record.add_argument("--json", action="store_true", help="machine-readable output")
    record.set_defaults(command="perf:record")

    perf_diff = perf_sub.add_parser(
        "diff", help="compare two recorded runs through the degradation detector"
    )
    _add_perf_run_arguments(perf_diff)
    perf_diff.set_defaults(command="perf:diff")

    trend = perf_sub.add_parser(
        "trend", help="per-scenario history across every recorded run"
    )
    trend.add_argument(
        "--scenario", default=None, metavar="ID", help="one scenario (default: all)"
    )
    _add_perf_store_argument(trend)
    trend.add_argument("--json", action="store_true", help="machine-readable output")
    trend.set_defaults(command="perf:trend")

    perf_check = perf_sub.add_parser(
        "check",
        help="CI gate: diff the last two runs, exit 1 on a confirmed Degradation",
    )
    _add_perf_run_arguments(perf_check)
    perf_check.set_defaults(command="perf:check")

    return parser


def _add_perf_store_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--store", default=".perf", metavar="DIR",
        help="profile store root (default .perf)",
    )


def _add_perf_run_arguments(subparser: argparse.ArgumentParser) -> None:
    _add_perf_store_argument(subparser)
    subparser.add_argument(
        "--baseline", type=int, default=None, metavar="RUN",
        help="baseline run number (default: the run before the target)",
    )
    subparser.add_argument(
        "--target", type=int, default=None, metavar="RUN",
        help="target run number (default: the last recorded run)",
    )
    subparser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_budget_arguments(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group("execution budget")
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline for the whole command",
    )
    group.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="cap on elements processed / tableau nodes created",
    )
    group.add_argument(
        "--on-budget", choices=ON_BUDGET, default="unknown",
        help='when the budget runs out: report UNKNOWN partial results and '
        'exit 3 (default), or fail with error[E_BUDGET]',
    )


def _add_obs_arguments(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group("observability")
    group.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the run "
        "(open at https://ui.perfetto.dev)",
    )
    group.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write a metrics-snapshot JSON of the run",
    )


@contextmanager
def _observation(args):
    """Install the obs layer for commands invoked with --trace/--metrics.

    Artifacts are written in ``finally`` so a run that exits with
    violations (or dies on a budget) still leaves its trace behind.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        yield
        return
    from .obs import export

    observation = obs.install(
        obs.Tracer() if trace_path else None,
        obs.MetricsRegistry() if metrics_path else None,
    )
    try:
        yield
    finally:
        obs.uninstall()
        if metrics_path:
            export.attach_cache_stats(observation.registry)
            export.write_json(
                metrics_path, export.metrics_payload(observation.registry)
            )
        if trace_path:
            export.write_json(
                trace_path, export.chrome_trace_payload(observation.tracer)
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
