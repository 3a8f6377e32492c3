"""Workload ``oneshot``: what a CI job or a script waits for.

One client runs ``pgschema`` subprocesses in a closed loop, in a fixed
rotation: ``lint`` of a corpus schema, ``validate`` of a ~20k-element
graph with a few injected violations, and ``sat`` over a hub-chain schema.
Each operation is timed from exec to exit and its exit code and output are
checked against references computed in-process by a different path.
"""

from __future__ import annotations

import os
import re
import sys
import time

from common import (
    SETUP_REPEATS,
    LayerTimer,
    OpResult,
    Recorder,
    WorkloadResult,
    median,
    run_child,
    run_json_child,
)

LINT_SCHEMA = "figure_1"
VALIDATE_SCHEMA = "user_session_edge_props"
GRAPH_USERS = 4000  # user_session_graph(4000, 2): 20000 elements
INJECTED_RULES = ("WS1", "DS5", "SS1")
HUB_DEPTH, HUB_LEAVES = 8, 6
ROTATION = ("lint", "validate", "sat")
TRACE_ROTATIONS = 3

_LINT_CODE = re.compile(r" (PG\d+) \[")


def hub_sdl() -> str:
    from repro.schema.printer import print_schema
    from repro.workloads.schemas import hub_chain_schema

    return print_schema(hub_chain_schema(depth=HUB_DEPTH, leaves=HUB_LEAVES))


def generate(seed: int, directory: str) -> dict[str, str]:
    """Write the seeded inputs; returns their paths by role."""
    from repro.pg.io import dumps_graph
    from repro.schema import parse_schema
    from repro.workloads import corrupt_graph, user_session_graph
    from repro.workloads.paper_schemas import CORPUS

    sdl = CORPUS[VALIDATE_SCHEMA].sdl
    schema = parse_schema(sdl)
    graph = user_session_graph(GRAPH_USERS, 2, seed=seed)
    for index, rule in enumerate(INJECTED_RULES):
        corrupted = corrupt_graph(graph, schema, rule, seed=seed * 31 + index)
        if corrupted is None:
            raise RuntimeError(f"corrupt_graph cannot inject {rule}")
        graph = corrupted
    paths = {
        "lint": os.path.join(directory, "lint.graphql"),
        "schema": os.path.join(directory, "schema.graphql"),
        "graph": os.path.join(directory, "graph.json"),
        "sat": os.path.join(directory, "hub.graphql"),
    }
    texts = {
        "lint": CORPUS[LINT_SCHEMA].sdl,
        "schema": sdl,
        "graph": dumps_graph(graph, indent=None),
        "sat": hub_sdl(),
    }
    for role, path in paths.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(texts[role])
    return paths


def cli_argv(kind: str, paths: dict[str, str]) -> list[str]:
    args = {
        "lint": ["lint", paths["lint"]],
        "validate": ["validate", paths["schema"], paths["graph"]],
        "sat": ["sat", paths["sat"]],
    }[kind]
    return [sys.executable, "-m", "repro.cli", *args]


def references(paths: dict[str, str]) -> dict[str, tuple[int, object]]:
    """Expected ``(exit code, output)`` per operation, by another path:
    ``lint_schema`` codes, ``validate(engine="parallel")`` violation lines
    and ``check_schema(engine="serial")`` verdicts."""
    from repro.lint import has_errors, lint_schema
    from repro.pg import load_graph
    from repro.satisfiability import SatisfiabilityChecker
    from repro.schema import parse_schema
    from repro.validation import validate

    def read(role: str) -> str:
        with open(paths[role], encoding="utf-8") as handle:
            return handle.read()

    findings = lint_schema(parse_schema(read("lint"), check=False))
    lint_ref = (1 if has_errors(findings) else 0, [f.code for f in findings])

    schema = parse_schema(read("schema"))
    with open(paths["graph"], encoding="utf-8") as handle:
        graph = load_graph(handle)
    report = validate(schema, graph, engine="parallel", jobs=1)
    lines = [report.summary()] + [
        f"  {violation}" for violation in sorted(report.violations, key=str)
    ]
    validate_ref = (1 if report.violations else (0 if report.complete else 3), lines)

    checker = SatisfiabilityChecker(parse_schema(read("sat"), check=False))
    sat_report = checker.check_schema(find_witnesses=True, engine="serial")
    names = {"sat": "SATISFIABLE", "unsat": "UNSATISFIABLE", "unknown": "UNKNOWN"}
    verdicts = [
        (name, names[sat_report.types[name].verdict]) for name in sorted(sat_report.types)
    ]
    exit_code = 1 if any(v == "UNSATISFIABLE" for _, v in verdicts) else (
        3 if any(v == "UNKNOWN" for _, v in verdicts) else 0
    )
    return {"lint": lint_ref, "validate": validate_ref, "sat": (exit_code, verdicts)}


def check_output(kind: str, code: int | None, stdout: str, reference) -> str:
    """Empty string when the operation's answer matches, else why not."""
    expected_code, expected = reference
    if code != expected_code:
        return f"{kind}: exit {code}, expected {expected_code}"
    lines = stdout.splitlines()
    if kind == "lint":
        got = [match.group(1) for match in map(_LINT_CODE.search, lines[:-1]) if match]
    elif kind == "validate":
        got = lines
    else:
        got = []
        for line in lines:
            name, _, rest = line.partition(": ")
            got.append((name, rest.split(" ", 1)[0]))
    if got != expected:
        return f"{kind}: output differs from the reference"
    return ""


def run_op(kind: str, paths, refs, checkout, cwd: str) -> OpResult:
    code, out, err, start, end = run_child(cli_argv(kind, paths), checkout.env(), cwd=cwd)
    problem = check_output(kind, code, out, refs[kind]) if code is not None else f"{kind}: {err}"
    return OpResult(kind, start, end, not problem, problem)


NAMED = (("oneshot.lint_ms", "lint"), ("oneshot.validate_ms", "validate"), ("oneshot.sat_ms", "sat"))


def run(checkout, seed: int, seconds: float, trace: bool, recorder: Recorder) -> WorkloadResult:
    from repro.pg import load_graph
    from repro.schema import parse_schema
    from repro.validation import ParallelValidator

    result = WorkloadResult()
    result.primary = "oneshot.validate_ms"
    with checkout.tempdir("oneshot-") as work:
        for attempt in range(SETUP_REPEATS):
            directory = os.path.join(work, f"inputs{attempt}")
            os.makedirs(directory)
            started = time.perf_counter()
            paths = generate(seed, directory)
            result.setup_s.append(time.perf_counter() - started)
        refs = references(paths)

        window_start = time.perf_counter()
        deadline = window_start + seconds
        traced_from = window_start + seconds / 2 if trace else deadline
        while time.perf_counter() < deadline:
            for kind in ROTATION:
                if time.perf_counter() >= deadline:
                    break
                op = run_op(kind, paths, refs, checkout, work)
                op.traced = op.start >= traced_from
                result.ops.append(op)
                if op.traced:
                    recorder.add(f"oneshot.{kind}", op.start, op.end, ok=op.ok)
        result.window_s = time.perf_counter() - window_start
        result.read_peak_rss()

        result.e2e["ops_per_s"] = sum(op.ok for op in result.ops) / result.window_s
        result.e2e["validate_ms"] = median(result.untraced_ok("validate"))
        result.named = {name: (median(result.untraced_ok(kind)), "ms") for name, kind in NAMED}
        result.traced_named = {name: (median(result.traced_ok(kind)), "ms") for name, kind in NAMED}
        result.samples = {kind: len(result.untraced_ok(kind)) for kind in ROTATION}

        with open(paths["schema"], encoding="utf-8") as handle:
            schema = parse_schema(handle.read())
        with open(paths["graph"], encoding="utf-8") as handle:
            graph = load_graph(handle)
        result.stamp["validation_executor"] = ParallelValidator(schema).choose_executor(graph)
        kinds = ROTATION * TRACE_ROTATIONS if trace else ("sat",)
        try:
            replays = [replay(kind, paths, checkout, recorder) for kind in kinds]
        except (RuntimeError, ValueError) as error:
            result.ops.append(OpResult("replay", 0.0, 0.0, False, f"replay: {error}"))
            return result
        result.stamp["sat_executor"] = replays[-1]["executor"]
        if trace:
            result.layers = oneshot_layers(replays)
    return result


def replay(kind: str, paths, checkout, recorder: Recorder) -> dict:
    """Replay one operation in a fresh interpreter, in CLI order, timing
    each layer (``replay_oneshot.py``)."""
    args = {"lint": [paths["lint"]], "validate": [paths["schema"], paths["graph"]], "sat": [paths["sat"]]}[kind]
    payload = run_json_child("replay_oneshot.py", [kind, *args], checkout)
    parent = recorder.add(f"replay.{kind}", payload["_start"], payload["_start"] + payload["_wall_s"])
    recorder.add_children(parent, payload["_start"], payload["spans"])
    return payload


def oneshot_layers(replays: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the replayed rotations.  ``cli.import_ms`` is
    per process; every other layer is summed over one rotation's three
    operations, since parse and build run in each of them."""
    rotations: list[dict[str, float]] = []
    for index in range(0, len(replays), len(ROTATION)):
        sums: dict[str, float] = {}
        for payload in replays[index : index + len(ROTATION)]:
            for name, ms in LayerTimer.totals_of(payload["spans"]).items():
                sums[name] = sums.get(name, 0.0) + ms
        rotations.append(sums)
    names = sorted({name for sums in rotations for name in sums} - {"cli.import"})
    layers = {f"{name}_ms": (median(s.get(name, 0.0) for s in rotations), "ms") for name in names}
    layers["cli.import_ms"] = (
        median(LayerTimer.totals_of(p["spans"])["cli.import"] for p in replays),
        "ms",
    )
    validate_payload = next(p for p in replays if p["op"] == "validate")
    sat_payload = next(p for p in replays if p["op"] == "sat")
    layers["validation.violations"] = (validate_payload["violations"], "count")
    layers["satisfiability.units"] = (sat_payload["units"], "count")
    for engine in ("cache", "lint", "analysis", "tableau", "bounded"):
        layers[f"satisfiability.decided.{engine}"] = (sat_payload["wins"].get(engine, 0), "count")
    return layers
