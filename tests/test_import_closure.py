"""Import closure of the ``pgschema`` CLI: each subcommand loads only what it runs.

Every check runs in a fresh interpreter and inspects ``sys.modules``
afterwards, so it tests which modules load, never how long they take --
the outcome is deterministic on any host.  docs/PERFORMANCE.md ("Cold
start") explains the rule these tests pin.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.pg import dump_graph_jsonl, dumps_graph
from repro.schema import print_schema
from repro.workloads import (
    CORPUS,
    MUTATION_SCHEMA_SDL,
    MutationWorkloadConfig,
    hub_chain_schema,
    user_session_graph,
    write_mutation_journal,
)

_SRC = str(Path(repro.__file__).resolve().parent.parent)

# Runs *code* and prints which of *watched* ended up in sys.modules.
_PROBE = """
import json, sys
{code}
print(json.dumps(sorted(name for name in {watched!r} if name in sys.modules)))
"""


def _loaded_after(code: str, watched: tuple[str, ...]) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.pop("PGSCHEMA_FAULTS", None)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code, watched=watched)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_cli(argv: list[str], exits: tuple[int, ...] = (0,)) -> str:
    # stdout is the probe's channel: send the command's own output away;
    # an expected exit code proves the command ran to the end, not out on
    # an early error (2)
    return (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) in {exits!r}\n"
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("closure")
    schema = root / "user_session.graphql"
    schema.write_text(CORPUS["user_session_edge_props"].sdl)
    library = root / "library.graphql"
    library.write_text(CORPUS["library"].sdl)
    graph = root / "graph.json"
    graph.write_text(dumps_graph(user_session_graph(3, 1, seed=0)))
    jsonl = root / "graph.jsonl"
    with open(jsonl, "w", encoding="utf-8") as fp:
        dump_graph_jsonl(user_session_graph(3, 1, seed=0), fp)
    # every type goes through the bounded witness search; Hub0's witness
    # needs more nodes than the default bound
    hub = root / "hub.graphql"
    hub.write_text(print_schema(hub_chain_schema(depth=3, leaves=2)))
    mutation_schema = root / "mutations.graphql"
    mutation_schema.write_text(MUTATION_SCHEMA_SDL)
    journal = root / "journal.jsonl"
    write_mutation_journal(str(journal), MutationWorkloadConfig(commits=12, seed=3))
    return {
        "schema": str(schema),
        "library": str(library),
        "graph": str(graph),
        "jsonl": str(jsonl),
        "hub": str(hub),
        "mutation_schema": str(mutation_schema),
        "journal": str(journal),
    }


# Standard-library modules a one-shot run never needs: no record class is
# a dataclass, no pool is built, nothing logs, and the did-you-mean hint
# is only computed for an unknown lint rule.
_ONE_SHOT_UNUSED = ("dataclasses", "concurrent.futures", "logging", "difflib")


def test_importing_the_cli_loads_no_subcommand_machinery():
    heavy = (
        *_ONE_SHOT_UNUSED,
        "numpy",
        "asyncio",
        "repro.service",
        "repro.perf",
        "repro.satisfiability",
        "repro.validation",
        "repro.analysis",
    )
    assert _loaded_after("import repro.cli", heavy) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["lint", "{library}"],
        ["validate", "{schema}", "{graph}"],
        ["sat", "{library}"],
        ["sat", "{hub}"],
    ],
    ids=["lint", "validate", "sat-library", "sat-hub"],
)
def test_one_shot_runs_load_no_dataclasses_pools_or_logging(inputs, argv):
    code = _run_cli([arg.format(**inputs) for arg in argv])
    assert _loaded_after(code, _ONE_SHOT_UNUSED) == []


def test_lint_loads_neither_validation_nor_satisfiability(inputs):
    watched = ("numpy", "repro.validation", "repro.satisfiability")
    assert _loaded_after(_run_cli(["lint", inputs["library"]]), watched) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{schema}", "{graph}"],
        ["validate", "{schema}", "{jsonl}", "--stream"],
        ["stats", "{graph}"],
    ],
    ids=["validate", "validate-stream", "stats"],
)
def test_validate_does_not_load_numpy(inputs, argv):
    code = _run_cli([arg.format(**inputs) for arg in argv])
    assert _loaded_after(code, ("numpy",)) == []


def test_sat_does_not_load_numpy(inputs):
    assert _loaded_after(_run_cli(["sat", inputs["library"]]), ("numpy",)) == []


def test_validate_loads_only_the_plan_kernel(inputs):
    code = _run_cli(["validate", inputs["schema"], inputs["graph"]])
    watched = (
        "repro.validation.parallel",  # the one kernel that runs
        "repro.validation.cdc",
        "repro.validation.incremental",
        "repro.validation.indexed",
        "repro.validation.naive",
        "repro.validation.stream",
        "repro.validation.journal",
        "repro.evolution",
        "repro.pg.stats",
        "repro.satisfiability",
        # the inline kernel starts no pool: the process-pool machinery is
        # imported only where a pool is made
        "concurrent.futures.process",
        "multiprocessing",
    )
    assert _loaded_after(code, watched) == ["repro.validation.parallel"]


def test_sat_loads_neither_reference_engines_nor_the_sat_encoding(inputs):
    # the bounded witness search confirms candidates with the plan kernel,
    # so sat loads exactly one kernel: repro.validation.parallel
    watched = (
        "repro.validation.indexed",
        "repro.validation.cdc",
        "repro.validation.incremental",
        "repro.validation.stream",
        "repro.validation.journal",
        "repro.validation.naive",
        "repro.satisfiability.sat_encoding",
        "repro.satisfiability.reduction",
        "repro.sat",
    )
    for schema in (inputs["library"], inputs["hub"]):
        assert _loaded_after(_run_cli(["sat", schema]), watched) == []


def test_cdc_rechecks_scopes_with_the_plan_kernel(inputs):
    # every incremental scope recheck runs the fused plan kernel; neither
    # reference engine is loaded on the CDC path (exit 1: the journal
    # leaves violations behind)
    code = _run_cli(["cdc", inputs["mutation_schema"], inputs["journal"]], (1,))
    watched = (
        "repro.validation.parallel",
        "repro.validation.indexed",
        "repro.validation.naive",
    )
    assert _loaded_after(code, watched) == ["repro.validation.parallel"]


def test_fully_decided_sat_loads_no_process_pool_machinery(inputs):
    # the decision ladder decides every element of both schemas in the
    # parent, so the default --jobs (all usable cores) makes no pool
    watched = ("concurrent.futures.process", "multiprocessing")
    for schema in (inputs["library"], inputs["hub"]):
        assert _loaded_after(_run_cli(["sat", schema]), watched) == []


# Printers run only where a schema is printed (api, CDC checkpoints, ...),
# never on the one-shot path.
_PRINTERS = ("repro.schema.printer", "repro.sdl.printer")


@pytest.mark.parametrize(
    "argv, watched",
    [
        # metrics/trace load only when a registry or tracer is built, the
        # resilience package only for a budget, a pool or a fault plan, and
        # the consistency checks only for check=True (lint: check=False)
        (
            ["lint", "{library}"],
            (
                "repro.obs.metrics",
                "repro.obs.trace",
                "repro.resilience",
                "repro.resilience.budget",
                "repro.resilience.durable",
                "repro.resilience.faults",
                "repro.resilience.ladder",
                "repro.schema.consistency",
                *_PRINTERS,
            ),
        ),
        # the plan kernel reads a GraphRecords view: no PropertyGraph
        (
            ["validate", "{schema}", "{graph}"],
            ("repro.pg.model", "repro.dl", "repro.obs.metrics", "repro.obs.trace", *_PRINTERS),
        ),
        # lint, analysis and the bounded search decide every hub element:
        # the TBox is never translated and no tableau is built
        (
            ["sat", "{hub}"],
            (
                "repro.dl.tableau",
                "repro.dl.normal_form",
                "repro.dl.translate",
                "repro.schema.consistency",
                *_PRINTERS,
            ),
        ),
    ],
    ids=["lint", "validate", "sat-hub"],
)
def test_one_shot_runs_load_only_what_they_execute(inputs, argv, watched):
    code = _run_cli([arg.format(**inputs) for arg in argv])
    assert _loaded_after(code, watched) == []


_COMMAND_MODULES = tuple(
    f"repro.commands.{path.stem}"
    for path in sorted((Path(_SRC) / "repro" / "commands").glob("*.py"))
    if path.stem != "__init__"
)


@pytest.mark.parametrize(
    "argv, exits",
    [
        (["check", "{schema}"], (0,)),
        (["lint", "{library}"], (0,)),
        (["analyze", "{library}"], (0,)),
        (["validate", "{schema}", "{graph}"], (0,)),
        (["validate", "{schema}", "{jsonl}", "--stream"], (0,)),
        (["sat", "{hub}"], (0,)),
        (["translate", "{library}"], (0,)),
        (["stats", "{graph}"], (0,)),
        (["cdc", "{mutation_schema}", "{journal}"], (1,)),
    ],
    ids=["check", "lint", "analyze", "validate", "validate-stream", "sat", "translate",
         "stats", "cdc"],
)
def test_one_shot_runs_load_only_their_own_handler(inputs, argv, exits):
    code = _run_cli([arg.format(**inputs) for arg in argv], exits)
    assert _loaded_after(code, _COMMAND_MODULES) == [f"repro.commands.{argv[0]}"]
