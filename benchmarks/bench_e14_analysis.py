"""E14 -- the schema dataflow analyzer: static decisions before any search.

Claim under test: abstract cardinality intervals, computed by two monotone
fixpoints over the type-dependency graph, decide a large share of the
whole-schema satisfiability workload *without running a tableau* -- and
never disagree with it.  The analyzer's verdicts feed the satisfiability
engines as pre-verdicts (``analysis_precheck=True``, the default), so a
statically decided SatUnit skips both the tableau and the bounded finder.

Measured/asserted here:

1. coverage: over the paper corpus, at least 30% of all elements (object
   types plus relationship declarations) must be decided statically -- the
   acceptance floor for the feed being worth its fixpoints;
2. speedup: a cold cache-less sweep with the feed on must beat the same
   sweep with the feed off (asserted only outside quick mode; the margin is
   schema-dependent, so only direction is asserted, the ratio is printed);
3. soundness: with the feed on and off, ``check_schema`` reports stay
   byte-identical through ``to_json()`` once the rung that decided
   (``decided_by``, ``diagnostic``) is dropped, and the feed-on report says
   ``"analysis"`` exactly where the analysis decided -- asserted in every
   mode;
4. analysis cost: running all four passes over the whole corpus is
   milliseconds, orders below one tableau search on the same schemas.

Set ``PGSCHEMA_BENCH_QUICK=1`` for CI smoke mode (tiny scaled instances,
no speedup assertion).
"""

import json
import os
import time

import pytest

from repro.analysis import analysis_cache_clear, analyze_schema, sat_preverdicts
from repro.satisfiability import SatCache, SatisfiabilityChecker
from repro.workloads import (
    CORPUS,
    deep_lattice_schema,
    hub_chain_schema,
    load,
    near_unsat_schema,
)

QUICK = os.environ.get("PGSCHEMA_BENCH_QUICK") == "1"


def _suite():
    scaled = (
        [hub_chain_schema(depth=3, leaves=2), near_unsat_schema(2)]
        if QUICK
        else [
            hub_chain_schema(depth=12, leaves=8),
            near_unsat_schema(6),
            near_unsat_schema(6, collide=True),
            deep_lattice_schema(4, 2),
        ]
    )
    return scaled + [load(name) for name in CORPUS]


def _elements(schema):
    """Types plus relationship declarations: the decidable element count."""
    return len(schema.object_types) + sum(
        1
        for *_loc, field_def in schema.field_declarations()
        if field_def.is_relationship
    )


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep(schemas, analysis):
    for schema in schemas:
        SatisfiabilityChecker(
            schema, cache=False, analysis_precheck=analysis
        ).check_schema(engine="serial")


# --------------------------------------------------------------------------- #
# 1. coverage
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E14")
def test_corpus_static_coverage_meets_the_floor():
    decided = total = 0
    per_schema = []
    for name in CORPUS:
        schema = load(name)
        pre = sat_preverdicts(schema)
        elements = _elements(schema)
        per_schema.append((name, pre.decided, elements))
        decided += pre.decided
        total += elements
    print(f"\nE14 coverage: {decided}/{total} corpus elements decided statically")
    for name, got, elements in per_schema:
        print(f"  {name:>28}: {got}/{elements}")
    assert decided / total >= 0.30, "static coverage below the 30% floor"


# --------------------------------------------------------------------------- #
# 2. speedup: sweeps with the feed on vs off
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E14")
@pytest.mark.parametrize("analysis", [True, False], ids=["feed-on", "feed-off"])
def test_sat_sweep(benchmark, analysis):
    schemas = _suite()
    benchmark.extra_info["schemas"] = len(schemas)
    if analysis:
        analysis_cache_clear()
    benchmark(_sweep, schemas, analysis)


@pytest.mark.experiment("E14")
def test_feed_speeds_up_cold_sweeps():
    schemas = _suite()
    _sweep(schemas, True)  # warm code paths and the analysis memo
    _sweep(schemas, False)
    t_on = _best_of(lambda: _sweep(schemas, True))
    t_off = _best_of(lambda: _sweep(schemas, False))
    print(
        f"\nE14 sweep over {len(schemas)} schemas: feed off "
        f"{t_off * 1000:.1f} ms, feed on {t_on * 1000:.1f} ms "
        f"-> {t_off / t_on:.2f}x"
    )
    if not QUICK:
        assert t_on < t_off, "the analysis feed must not slow cold sweeps"


# --------------------------------------------------------------------------- #
# 3. soundness: byte-identical reports (asserted even in quick mode)
# --------------------------------------------------------------------------- #


def _verdicts_only(report: dict) -> str:
    """A ``to_json()`` dump without the rung that decided each type."""
    for entry in report["types"].values():
        del entry["decided_by"]
        entry.pop("diagnostic", None)
    return json.dumps(report, sort_keys=True)


@pytest.mark.experiment("E14")
@pytest.mark.parametrize("engine", ["serial", "portfolio"])
def test_feed_reports_byte_identical(engine):
    for schema in _suite():
        off = SatisfiabilityChecker(
            schema, cache=False, analysis_precheck=False
        ).check_schema(engine=engine).to_json()
        on = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
            engine=engine
        ).to_json()
        static = sat_preverdicts(schema).types
        for name, entry in on["types"].items():
            assert off["types"][name]["decided_by"] == "tableau"
            expected = "analysis" if name in static else "tableau"
            assert entry["decided_by"] == expected, name
        assert _verdicts_only(on) == _verdicts_only(off)


# --------------------------------------------------------------------------- #
# 4. analysis cost
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E14")
def test_analysis_pass_cost(benchmark):
    schemas = [load(name) for name in CORPUS]

    def run():
        analysis_cache_clear()
        for schema in schemas:
            analyze_schema(schema)

    benchmark.extra_info["schemas"] = len(schemas)
    benchmark(run)
