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
  what it can in-process and only open units fan out over ``--jobs``
  workers; ``--profile`` reports per-engine win counts and verdict-cache
  statistics.
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
import gc
import json
import sys
from contextlib import contextmanager

from . import obs
from .errors import GraphLoadError, ReproError, exit_code_for, render_error
from .resilience import Budget, faults

# Everything else is imported by the handler that runs it: a cold
# ``pgschema lint`` then never pays for the validation engines, the
# satisfiability checker or the service (docs/PERFORMANCE.md, "Cold start").


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # fail fast (and uniformly) on a malformed PGSCHEMA_FAULTS spec
        # instead of surfacing it mid-run from some fault site
        faults.load_env_plan()
        with _observation(args):
            return args.handler(args)
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
    check.set_defaults(handler=_cmd_check)

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
    lint.set_defaults(handler=_cmd_lint)

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
    analyze.set_defaults(handler=_cmd_analyze)

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
        help="shard --engine parallel over N workers on a thread or process "
        "pool (default: run the kernel inline, one shard, no pool)",
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
    validate_cmd.set_defaults(handler=_cmd_validate)

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
    cdc.set_defaults(handler=_cmd_cdc)

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
        help="worker count for the portfolio fan-out (default: all usable cores)",
    )
    sat.add_argument(
        "--profile", action="store_true",
        help="print engine win counts and verdict-cache statistics to stderr",
    )
    sat.add_argument(
        "--no-analysis", action="store_true",
        help="disable the dataflow-analysis pre-verdict feed (every element "
        "is decided by the lint pre-pass or a tableau/bounded search)",
    )
    _add_budget_arguments(sat)
    _add_obs_arguments(sat)
    sat.set_defaults(handler=_cmd_sat)

    translate = subparsers.add_parser(
        "translate", help="print the ALCQI translation (Theorem 3)"
    )
    translate.add_argument("schema")
    translate.set_defaults(handler=_cmd_translate)

    api = subparsers.add_parser("api", help="print the §3.6 GraphQL API schema")
    api.add_argument("schema")
    api.set_defaults(handler=_cmd_api)

    query = subparsers.add_parser("query", help="run a GraphQL query over a graph")
    query.add_argument("schema")
    query.add_argument("graph")
    query.add_argument("query_text")
    query.set_defaults(handler=_cmd_query)

    infer = subparsers.add_parser("infer", help="induce a schema from a graph")
    infer.add_argument("graph")
    infer.set_defaults(handler=_cmd_infer)

    diff = subparsers.add_parser(
        "diff", help="classify schema evolution old -> new"
    )
    diff.add_argument("old_schema")
    diff.add_argument("new_schema")
    diff.add_argument(
        "--json", action="store_true", help="machine-readable change list"
    )
    diff.set_defaults(handler=_cmd_diff)

    stats = subparsers.add_parser("stats", help="profile a graph instance")
    stats.add_argument("graph")
    stats.add_argument(
        "--json", action="store_true",
        help="emit the profile as a metrics-snapshot JSON object "
        "(same shape as --metrics run snapshots), including occupancy/"
        "hit/miss/eviction gauges for the plan cache, the sat caches and "
        "the compiled-scalar registry, plus a perf block summarising the "
        "profile store (scenario count, last commit, newest verdicts)",
    )
    stats.add_argument(
        "--perf-store", default=".perf", metavar="DIR",
        help="profile store summarised in the --json perf block (default .perf)",
    )
    stats.set_defaults(handler=_cmd_stats)

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
        help="shard workers for batched validation (default: all usable cores)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; exhaustion returns a typed "
        "partial report (HTTP 202), never a wrong answer",
    )
    _add_obs_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    export = subparsers.add_parser(
        "export-cypher", help="export Neo4j constraint DDL (and optionally data)"
    )
    export.add_argument("schema")
    export.add_argument("graph", nargs="?")
    export.set_defaults(handler=_cmd_export_cypher)

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
    record.set_defaults(handler=_cmd_perf_record)

    perf_diff = perf_sub.add_parser(
        "diff", help="compare two recorded runs through the degradation detector"
    )
    _add_perf_run_arguments(perf_diff)
    perf_diff.set_defaults(handler=_cmd_perf_diff)

    trend = perf_sub.add_parser(
        "trend", help="per-scenario history across every recorded run"
    )
    trend.add_argument(
        "--scenario", default=None, metavar="ID", help="one scenario (default: all)"
    )
    _add_perf_store_argument(trend)
    trend.add_argument("--json", action="store_true", help="machine-readable output")
    trend.set_defaults(handler=_cmd_perf_trend)

    perf_check = perf_sub.add_parser(
        "check",
        help="CI gate: diff the last two runs, exit 1 on a confirmed Degradation",
    )
    _add_perf_run_arguments(perf_check)
    perf_check.set_defaults(handler=_cmd_perf_check)

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
        "--on-budget", choices=("unknown", "error"), default="unknown",
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


def _budget_from_args(args) -> Budget | None:
    if args.timeout is None and args.max_nodes is None:
        return None
    return Budget(deadline=args.timeout, max_nodes=args.max_nodes)


def _load_schema(path: str, check: bool = True):
    from .schema import parse_schema

    with open(path) as handle:
        return parse_schema(handle.read(), check=check)


def _load_graph(path: str, records: bool = False):
    """Load a graph document; ``.jsonl`` files go through the line format.

    ``records=True`` reads a JSON document straight into the
    read-only :class:`~repro.pg.records.GraphRecords` view the plan kernel
    validates.  Cyclic GC is paused while the document is decoded and
    built, then everything loaded is frozen out of later collections: the
    freshly decoded data holds no cycles, and a short-lived CLI process
    never frees it, so collecting it is pure overhead.  (Library loaders
    leave the collector alone; the service decodes in threads.)
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        graph = _read_graph(path, records)
        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    return graph


def _read_graph(path: str, records: bool):
    if path.endswith(".jsonl"):
        from .pg.io import load_graph_jsonl

        with open(path) as handle:
            return load_graph_jsonl(handle, source=path)
    if records:
        from .pg.io import load_records

        with open(path) as handle:
            return load_records(handle)
    from .pg import load_graph

    with open(path) as handle:
        return load_graph(handle)


def _cmd_check(args) -> int:
    from .schema import consistency_errors

    schema = _load_schema(args.schema, check=False)
    for warning in schema.warnings:
        print(f"warning: {warning}")
    errors = consistency_errors(schema)
    if errors:
        print(f"schema is NOT consistent ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(
        f"schema is consistent: {len(schema.object_types)} object type(s), "
        f"{len(schema.interface_types)} interface(s), "
        f"{len(schema.union_types)} union(s)"
    )
    return 0


def _cmd_lint(args) -> int:
    from .lint import Severity, has_errors, lint_schema

    schema = _load_schema(args.schema, check=False)
    findings = lint_schema(schema, select=args.select, ignore=args.ignore)
    if args.json:
        print(json.dumps([finding.to_json() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render(args.schema))
        counts = {
            severity: sum(1 for f in findings if f.severity is severity)
            for severity in Severity
        }
        print(
            f"{len(findings)} finding(s): "
            f"{counts[Severity.ERROR]} error(s), "
            f"{counts[Severity.WARNING]} warning(s), "
            f"{counts[Severity.INFO]} info"
        )
    return 1 if has_errors(findings) else 0


def _cmd_analyze(args) -> int:
    from .analysis import analyze_schema
    from .lint import has_errors

    schema = _load_schema(args.schema, check=False)
    result = analyze_schema(schema)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        cardinality = result.fact("cardinality")
        decided = 0
        for type_name in sorted(schema.object_types):
            verdict = cardinality.type_verdict_name(type_name)
            decided += verdict != "unknown"
            print(
                f"{type_name}: {verdict} "
                f"(interval {cardinality.interval(type_name)})"
            )
        for (declarer, field_name), verdict in sorted(
            cardinality.field_verdicts.items()
        ):
            label = "sat" if verdict else ("unsat" if verdict is False else "unknown")
            decided += verdict is not None
            print(f"{declarer}.{field_name}: {label}")
        for finding in result.diagnostics:
            print(finding.render(args.schema))
        total = len(schema.object_types) + len(cardinality.field_verdicts)
        print(
            f"{decided}/{total} element(s) decided statically; "
            f"{len(result.diagnostics)} finding(s)"
        )
    if args.timings:
        for name, seconds in result.timings.items():
            print(f"  {name:12s} {seconds * 1000:9.3f} ms", file=sys.stderr)
    return 1 if has_errors(result.diagnostics) else 0


def _cmd_validate(args) -> int:
    schema = _load_schema(args.schema)
    if args.stream:
        from .validation import StreamValidator

        if not args.graph.endswith(".jsonl"):
            raise GraphLoadError(
                f"--stream validates JSON-Lines graph files; {args.graph!r} "
                "is not a .jsonl file (see docs/STREAMING.md)",
                source=args.graph,
            )
        report = StreamValidator(
            schema,
            chunk_elements=args.chunk_size,
            budget=_budget_from_args(args),
            on_budget=args.on_budget,
        ).validate(args.graph, mode=args.mode)
        return _finish_validate(report)
    # the plan kernel reads records, never the mutable graph
    graph = _load_graph(args.graph, records=args.engine == "parallel")
    from .validation import make_validator

    validator = make_validator(
        schema,
        args.engine,
        jobs=args.jobs,
        budget=_budget_from_args(args),
        on_budget=args.on_budget,
    )
    if not args.profile:
        return _finish_validate(validator.validate(graph, args.mode))
    report, spans = _with_spans(lambda: validator.validate(graph, args.mode))
    _print_validate_profile(args.engine, validator, graph, spans)
    return _finish_validate(report)


def _with_spans(run):
    """Call ``run()`` with span tracing on; return its result and spans.

    An observation installed by ``--trace``/``--metrics`` keeps its metrics
    registry during the call, and the spans are added to its trace too.
    """
    outer = obs.active()
    tracer = obs.Tracer()
    obs.install(tracer, outer.registry if outer is not None else None)
    try:
        result = run()
    finally:
        if outer is None:
            obs.uninstall()
        else:
            obs.install(outer.tracer, outer.registry)
            if outer.tracer is not None:
                outer.tracer.absorb(tracer.events())
    return result, tracer.events()


def _print_validate_profile(engine: str, validator, graph, spans) -> None:
    """``validate --profile``: the stage split of the engine that ran."""
    from .validation import plan_cache_info

    def span_ms(name: str) -> float:
        return 1000 * sum(
            span.duration or 0.0 for span in spans if span.name == name
        )

    if engine == "parallel":
        print(
            f"  engine    parallel (executor {validator.choose_executor(graph)}, "
            f"{validator.shard_count} shard(s))",
            file=sys.stderr,
        )
        for stage, name in (
            ("partition", "validation.partition"),
            ("kernel", "validation.shard"),
            ("merge", "validation.merge"),
        ):
            print(f"  {stage:9s} {span_ms(name):9.3f} ms", file=sys.stderr)
    else:
        print(f"  engine    {engine}", file=sys.stderr)
    print(f"  {'total':9s} {span_ms('validation.run'):9.3f} ms", file=sys.stderr)
    info = plan_cache_info()
    print(
        f"  plan cache: {info['hits']} hit(s), {info['misses']} miss(es), "
        f"{info['size']}/{info['maxsize']} plan(s)",
        file=sys.stderr,
    )


def _finish_validate(report) -> int:
    with obs.span("validation.report", violations=len(report.violations)):
        print(report.summary())
        for violation in sorted(report.violations, key=str):
            print(f"  {violation}")
    if report.violations:
        return 1
    return 0 if report.complete else 3


def _cmd_cdc(args) -> int:
    from .validation import CDCConsumer

    schema = _load_schema(args.schema)
    base_graph = _load_graph(args.graph) if args.graph else None
    consumer = CDCConsumer(
        schema,
        args.journal,
        base_graph=base_graph,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        events_path=args.events_json,
        budget=_budget_from_args(args),
        on_budget=args.on_budget,
    )
    result = consumer.run(resume=args.resume)
    if result.recovered_from is not None:
        print(f"resumed from {result.recovered_from}")
    print(
        f"{result.commits} commit(s), {result.events_applied} event(s) applied, "
        f"{len(result.events)} violation transition(s), "
        f"{result.checkpoints_written} checkpoint(s)"
        + (f", {result.retries} retried apply(s)" if result.retries else "")
    )
    for event in result.events:
        print(f"  {event}")
    print(result.report.summary())
    if result.report.violations:
        return 1
    return 0 if result.report.complete else 3


def _cmd_sat(args) -> int:
    from .satisfiability import SatisfiabilityChecker

    schema = _load_schema(args.schema, check=False)
    checker = SatisfiabilityChecker(
        schema,
        bounded_max_nodes=args.max_witness_nodes,
        budget=_budget_from_args(args),
        on_budget=args.on_budget,
        analysis_precheck=not args.no_analysis,
    )
    if args.type_name:
        results = [
            checker.check_type(args.type_name, find_witness=not args.no_witness)
        ]
    else:
        report = checker.check_schema(
            find_witnesses=not args.no_witness,
            jobs=args.jobs,
            engine=args.engine,
        )
        results = [report.types[name] for name in sorted(report.types)]
    any_unsat = False
    any_unknown = False
    for result in results:
        type_name = result.type_name
        if result.verdict == "unknown":
            any_unknown = True
            reason = f" ({result.reason})" if result.reason is not None else ""
            print(f"{type_name}: UNKNOWN (budget exhausted){reason}")
        elif result.verdict == "sat":
            finite = result.finitely_satisfiable
            note = (
                f"finite witness with {result.witness.num_nodes} node(s)"
                if finite
                else "satisfiable (no finite witness found at this bound; "
                "possibly only infinite models)"
            )
            print(f"{type_name}: SATISFIABLE ({note})")
        else:
            any_unsat = True
            print(f"{type_name}: UNSATISFIABLE")
    if args.profile:
        _print_sat_profile(checker)
    if any_unsat:
        return 1
    return 3 if any_unknown else 0


def _print_sat_profile(checker) -> None:
    from .satisfiability import sat_cache_info

    profile = checker.last_profile
    if profile is not None:
        wins = profile.get("wins", {})
        won = ", ".join(
            f"{engine}={count}" for engine, count in sorted(wins.items())
        ) or "none"
        print(
            f"  engine={profile['engine']} executor={profile['executor']} "
            f"jobs={profile['jobs']} units={profile['units']}",
            file=sys.stderr,
        )
        print(f"  decided by: {won}", file=sys.stderr)
    info = sat_cache_info()
    print(
        f"  sat cache: {info['hits']} hit(s), {info['misses']} miss(es), "
        f"{info['types']} type / {info['fields']} field / "
        f"{info['bounded']} bounded verdict(s) over {info['schemas']} schema(s)",
        file=sys.stderr,
    )
    print(
        f"  label cache: {info['label_hits']} hit(s), "
        f"{info['label_misses']} miss(es), {info['label_entries']} stored label set(s)",
        file=sys.stderr,
    )


def _cmd_translate(args) -> int:
    from .dl import schema_to_tbox

    schema = _load_schema(args.schema, check=False)
    tbox = schema_to_tbox(schema)
    for axiom in tbox.axioms:
        print(axiom)
    for name, definiens in tbox.definitions.items():
        print(f"{name} ≡ {definiens}")
    for group in tbox.disjoint_groups:
        print("disjoint(" + ", ".join(sorted(group)) + ")")
    return 0


def _cmd_api(args) -> int:
    from .api import extend_to_api_schema

    schema = _load_schema(args.schema)
    print(extend_to_api_schema(schema).sdl, end="")
    return 0


def _cmd_query(args) -> int:
    from .api import GraphQLExecutor, extend_to_api_schema

    schema = _load_schema(args.schema)
    graph = _load_graph(args.graph)
    executor = GraphQLExecutor(extend_to_api_schema(schema), graph)
    print(json.dumps(executor.execute(args.query_text), indent=2, default=str))
    return 0


def _cmd_infer(args) -> int:
    from .inference import infer_schema

    graph = _load_graph(args.graph)
    result = infer_schema(graph)
    print(result.sdl, end="")
    for label, keys in sorted(result.key_candidates.items()):
        if len(keys) > 1:
            print(f"# {label}: other key candidates: {', '.join(keys[1:])}")
    return 0


def _cmd_diff(args) -> int:
    from .evolution import diff_schemas

    try:
        old = _load_schema(args.old_schema)
        new = _load_schema(args.new_schema)
    except (ReproError, OSError) as error:
        # a schema that cannot even be loaded leaves the compatibility
        # question UNDECIDED -- exit 3 (the UNKNOWN code), not 2
        print(render_error(error), file=sys.stderr)
        return 3
    diff = diff_schemas(old, new)
    if args.json:
        print(json.dumps(diff.to_json(), indent=2, sort_keys=True))
    else:
        print(diff.summary())
        for change in diff.changes:
            print(f"  {change}")
    return 0 if diff.is_backward_compatible else 1


def _cmd_stats(args) -> int:
    from .pg.stats import profile_graph, profile_to_registry

    graph = _load_graph(args.graph)
    profile = profile_graph(graph)
    if args.json:
        from .obs.export import attach_cache_stats, metrics_payload
        from .perf import ProfileStore, perf_summary

        registry = profile_to_registry(profile)
        # occupancy/hit/miss/eviction gauges for the plan cache, the sat
        # verdict caches and the compiled-scalar registry -- the same
        # numbers the service's /v1/stats endpoint reports
        attach_cache_stats(registry)
        payload = metrics_payload(registry)
        payload["perf"] = perf_summary(ProfileStore(args.perf_store))
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in profile.summary_lines():
            print(line)
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import contextlib
    import signal

    from .service import ValidationService

    service = ValidationService(
        args.registry_dir,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        jobs=args.jobs,
        deadline=args.deadline,
    )

    async def run() -> None:
        host, port = await service.start()
        print(f"pgschema service listening on http://{host}:{port}/v1/", flush=True)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        # Explicit handlers, not KeyboardInterrupt: a daemon launched as a
        # shell background job (CI's `pgschema serve &`) inherits SIGINT
        # *ignored* -- no job control means async commands start with
        # SIG_IGN -- and Python never installs its default handler over an
        # inherited ignore.  add_signal_handler overrides the disposition,
        # so `kill -INT`/`kill -TERM` always reach the graceful drain.
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stopping.set)
                installed.append(sig)
            except (NotImplementedError, OSError):  # pragma: no cover
                pass  # non-POSIX event loop: KeyboardInterrupt still works
        server_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait(
                {server_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            for task in (server_task, stop_task):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # covers the window before the handlers install, and platforms
        # whose loop cannot install them; asyncio.run cancels the task and
        # the finally-drain still runs
        pass
    return 0


def _git_head_commit() -> str:
    import subprocess

    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _cmd_perf_record(args) -> int:
    from .perf import PerfStoreError, ProfileStore, record_profiles

    store = ProfileStore(args.store)
    commit = args.commit or _git_head_commit()
    run = store.last_run() + 1

    def progress(scenario_id: str, best: float) -> None:
        if not args.json:
            print(f"  {scenario_id}: {best * 1000:.2f} ms")

    try:
        profiles = record_profiles(
            commit=commit,
            run=run,
            quick=args.quick,
            repeats=args.repeats,
            only=args.scenario,
            progress=progress,
        )
    except ValueError as error:
        raise PerfStoreError(str(error)) from None
    store.append(profiles)
    if args.json:
        print(
            json.dumps(
                {
                    "run": run,
                    "commit": commit,
                    "quick": args.quick,
                    "profiles": len(profiles),
                    "store": store.root,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"recorded run {run} at {commit[:12]}: "
            f"{len(profiles)} profile(s) -> {store.root}"
        )
    return 0


def _perf_diff_report(args):
    from .perf import PerfStoreError, ProfileStore, diff_runs

    try:
        return diff_runs(ProfileStore(args.store), args.baseline, args.target)
    except ValueError as error:
        raise PerfStoreError(str(error)) from None


def _cmd_perf_diff(args) -> int:
    from .perf import render_diff_markdown

    report = _perf_diff_report(args)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(render_diff_markdown(report), end="")
    return 1 if report.has_degradation else 0


def _cmd_perf_trend(args) -> int:
    from .perf import PerfStoreError, ProfileStore, render_trend_markdown, trend_rows

    try:
        history = trend_rows(ProfileStore(args.store), args.scenario)
    except ValueError as error:
        raise PerfStoreError(str(error)) from None
    if args.json:
        print(json.dumps(history, indent=2, sort_keys=True))
    else:
        print(render_trend_markdown(history), end="")
    return 0


def _cmd_perf_check(args) -> int:
    from .perf import render_diff_markdown

    report = _perf_diff_report(args)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif report.has_degradation:
        print(render_diff_markdown(report), end="")
    if report.has_degradation:
        degraded = ", ".join(entry.scenario for entry in report.degradations)
        print(
            f"perf check: FAIL -- confirmed degradation in {degraded} "
            f"(run {report.baseline_run} -> {report.target_run})",
            file=sys.stderr,
        )
        return 1
    if not args.json:
        print(
            f"perf check: OK (run {report.baseline_run} -> {report.target_run}, "
            f"{len(report.entries)} scenario(s), no confirmed degradation)"
        )
    return 0


def _cmd_export_cypher(args) -> int:
    from .baselines import graph_to_cypher, schema_to_cypher_ddl

    schema = _load_schema(args.schema)
    export = schema_to_cypher_ddl(schema)
    print(export.ddl, end="")
    for item in export.unsupported:
        print(f"// not expressible in Cypher DDL: {item}")
    if args.graph:
        print(graph_to_cypher(_load_graph(args.graph)), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
