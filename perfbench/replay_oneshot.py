"""Replay one ``pgschema`` operation layer by layer in a fresh interpreter.

Usage: ``python replay_oneshot.py lint SCHEMA``, ``... validate SCHEMA
GRAPH`` or ``... sat SCHEMA`` with the checkout's ``src`` on PYTHONPATH.
The steps follow the CLI's order through public functions, each timed
from this file; the last stdout line is a JSON object with the spans
(seconds from interpreter start of the replay) and the counts.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import LayerTimer  # noqa: E402


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def replay_lint(timer: LayerTimer, path: str) -> dict:
    from repro.lint import lint_schema
    from repro.schema import build_schema
    from repro.sdl import parse_document

    text = read(path)
    with timer.layer("sdl.parse"):
        document = parse_document(text)
    with timer.layer("schema.build"):
        schema = build_schema(document, check=False)
    with timer.layer("lint.run"):
        findings = lint_schema(schema)
    return {"findings": len(findings)}


def replay_validate(timer: LayerTimer, schema_path: str, graph_path: str) -> dict:
    from repro.pg import load_graph
    from repro.schema import build_schema
    from repro.sdl import parse_document
    from repro.validation import (
        ParallelValidator,
        compile_plan,
        merge_shard_results,
        partition_graph,
        validate,
        validate_shard,
    )
    from repro.validation.parallel import usable_cores
    from repro.validation.violations import rules_for_mode

    text = read(schema_path)
    with timer.layer("sdl.parse"):
        document = parse_document(text)
    with timer.layer("schema.build"):
        schema = build_schema(document)
    with timer.layer("pg.load"):
        with open(graph_path, encoding="utf-8") as handle:
            graph = load_graph(handle)
    with timer.layer("validation.plan_compile"):
        plan = compile_plan(schema)
    with timer.layer("validation.run"):
        report = validate(schema, graph)  # the CLI default engine
    with timer.layer("validation.report"):
        lines = [report.summary()] + [f"  {v}" for v in sorted(report.violations, key=str)]
    # the plan kernel's stages at the width ``executor="auto"`` would use
    jobs = usable_cores()
    rules = rules_for_mode("strong")
    with timer.layer("validation.partition"):
        shards = partition_graph(graph, jobs)
    results = []
    for shard in shards:
        with timer.layer("validation.kernel"):
            results.append(validate_shard(plan, graph, shard, rules))
    with timer.layer("validation.merge"):
        merged = merge_shard_results(plan, results, "strong", rules)
    if merged.keys() != report.keys():
        raise SystemExit("plan kernel and CLI engine disagree")
    return {
        "violations": len(report.violations),
        "lines": len(lines),
        "executor": ParallelValidator(schema, plan=plan).choose_executor(graph),
    }


def replay_sat(timer: LayerTimer, path: str) -> dict:
    from repro.analysis import analysis_cache_clear, sat_preverdicts
    from repro.dl import schema_to_tbox
    from repro.satisfiability import SatisfiabilityChecker
    from repro.schema import build_schema
    from repro.sdl import parse_document

    text = read(path)
    with timer.layer("sdl.parse"):
        document = parse_document(text)
    with timer.layer("schema.build"):
        schema = build_schema(document, check=False)
    analysis_cache_clear()
    with timer.layer("analysis.run"):
        sat_preverdicts(schema)
    with timer.layer("dl.tbox"):
        schema_to_tbox(schema)
    # the sweep pays for its own analysis, as in a fresh `pgschema sat`
    analysis_cache_clear()
    checker = SatisfiabilityChecker(schema, bounded_max_nodes=4)
    with timer.layer("satisfiability.sweep"):
        checker.check_schema(find_witnesses=True, engine="portfolio")
    profile = checker.last_profile or {}
    return {
        "units": profile.get("units", 0),
        "wins": profile.get("wins", {}),
        "executor": profile.get("executor", "none"),
    }


def main(argv: list[str]) -> int:
    timer = LayerTimer()
    with timer.layer("cli.import"):
        import repro.cli  # noqa: F401
    op, *paths = argv
    replay = {"lint": replay_lint, "validate": replay_validate, "sat": replay_sat}[op]
    payload = replay(timer, *paths)
    payload.update(op=op, spans=timer.spans)
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
