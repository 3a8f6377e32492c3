"""E13 -- portfolio satisfiability: decision ladder, batching, fan-out, caching.

Claim under test: whole-schema satisfiability (``check_schema``) repays the
same treatment PR 3 gave validation.  The serial sweep runs one tableau
search per element -- for a type with k relationship fields that is k+1
searches over nearly identical concepts.  The portfolio engine first runs
the decision ladder (cache, lint, analysis) over every element in the
calling process, batches each type's open elements into one conjunctive
concept (one search decides them all when satisfiable), fans those units
over the executor ladder, and memoizes decided verdicts in a schema-keyed
:class:`SatCache`.

Three things are measured/asserted here:

1. speedup: portfolio ``check_schema(jobs=4)`` vs the serial engine over the
   paper corpus plus a scaled hub/chain schema -- the portfolio run must be
   at least 1.8x faster (single-core containers included: the win comes
   from batching, not just fan-out);
2. verdict caching: a warm re-check of an already-decided schema must be at
   least 5x faster than a cold one;
3. determinism: serial and portfolio reports are byte-identical through
   ``to_json()`` for jobs ∈ {1, 2, 4} -- asserted inside the bench, so a
   bench run doubles as an end-to-end check.

Set ``PGSCHEMA_BENCH_QUICK=1`` to run with tiny instances (CI smoke mode);
speedup ratios are then not asserted -- fixed per-call overheads dominate at
toy sizes -- but every agreement check still runs.
"""

import json
import os
import time

import pytest

from repro.satisfiability import SatCache, SatisfiabilityChecker
from repro.workloads import CORPUS, hub_chain_schema, load

QUICK = os.environ.get("PGSCHEMA_BENCH_QUICK") == "1"

JOBS = [1, 2, 4]


def _suite():
    """The measured schema set: every paper schema plus scaled instances."""
    scaled = (
        [hub_chain_schema(depth=3, leaves=2)]
        if QUICK
        else [hub_chain_schema(depth=12, leaves=8), hub_chain_schema(depth=8, leaves=12)]
    )
    return scaled + [load(name) for name in CORPUS]


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _check_suite(schemas, engine, jobs=None):
    """One cold sweep over the suite: a fresh private cache per schema, so
    runs never replay each other's verdicts."""
    return [
        SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
            jobs=jobs, engine=engine
        )
        for schema in schemas
    ]


# --------------------------------------------------------------------------- #
# 1. speedup
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E13")
def test_serial_baseline(benchmark):
    schemas = _suite()
    benchmark.extra_info["schemas"] = len(schemas)
    benchmark(_check_suite, schemas, "serial")


@pytest.mark.experiment("E13")
@pytest.mark.parametrize("jobs", JOBS)
def test_portfolio_scaling(benchmark, jobs):
    schemas = _suite()
    benchmark.extra_info["schemas"] = len(schemas)
    benchmark(_check_suite, schemas, "portfolio", jobs)


@pytest.mark.experiment("E13")
def test_portfolio_speedup_over_serial():
    """The acceptance ratio: portfolio jobs=4 must be >= 1.8x serial."""
    schemas = _suite()
    _check_suite(schemas, "serial")  # warm code paths before timing
    _check_suite(schemas, "portfolio", 4)
    t_serial = _best_of(lambda: _check_suite(schemas, "serial"))
    t_portfolio = _best_of(lambda: _check_suite(schemas, "portfolio", 4))
    speedup = t_serial / t_portfolio
    print(
        f"\nE13 speedup over {len(schemas)} schemas: serial "
        f"{t_serial * 1000:.1f} ms, portfolio(jobs=4) "
        f"{t_portfolio * 1000:.1f} ms -> {speedup:.2f}x"
    )
    if not QUICK:
        assert speedup >= 1.8, f"speedup {speedup:.2f}x below the 1.8x floor"


# --------------------------------------------------------------------------- #
# 2. verdict caching
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E13")
def test_sat_cache_makes_recheck_cheaper():
    """A warm re-check replays memoized verdicts: >= 5x over cold."""
    schemas = _suite()

    def cold():
        _check_suite(schemas, "portfolio", 4)  # fresh cache per schema

    caches = [SatCache(schema) for schema in schemas]

    def warm():
        for schema, cache in zip(schemas, caches):
            SatisfiabilityChecker(schema, cache=cache).check_schema(jobs=4)

    cold()  # warm the code paths
    warm()  # fill the persistent caches
    t_cold = _best_of(cold)
    t_warm = _best_of(warm)
    ratio = t_cold / t_warm
    hits = sum(cache.cache_info()["hits"] for cache in caches)
    print(
        f"\nE13 sat cache: cold {t_cold * 1000:.2f} ms, warm "
        f"{t_warm * 1000:.2f} ms ({ratio:.1f}x, {hits} verdict hits)"
    )
    assert hits > 0, "warm sweep never hit the verdict cache"
    if not QUICK:
        assert ratio >= 5.0, f"warm re-check only {ratio:.2f}x over cold"


# --------------------------------------------------------------------------- #
# 3. determinism (asserted even in quick mode)
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E13")
@pytest.mark.parametrize("jobs", JOBS)
def test_portfolio_byte_identical_to_serial(jobs):
    checked = 0
    for schema in _suite():
        serial = SatisfiabilityChecker(schema, cache=False).check_schema(
            engine="serial"
        )
        expected = json.dumps(serial.to_json(), sort_keys=True)
        portfolio = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
            jobs=jobs, engine="portfolio"
        )
        assert json.dumps(portfolio.to_json(), sort_keys=True) == expected
        checked += 1
    assert checked >= len(CORPUS)


# --------------------------------------------------------------------------- #
# 4. observability overhead (asserted even in quick mode)
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E13")
def test_sat_sweep_with_observation_within_noise():
    """A whole-schema portfolio sweep under tracing+metrics must stay within
    noise of an unobserved sweep: the sat engines record one span per unit
    and fold tableau statistics once per search, never per expansion."""
    from repro import obs

    obs.uninstall()
    schemas = _suite()
    _check_suite(schemas, "portfolio", 2)  # warm code paths
    t_off = _best_of(lambda: _check_suite(schemas, "portfolio", 2))
    obs.install(obs.Tracer(), obs.MetricsRegistry())
    try:
        t_on = _best_of(lambda: _check_suite(schemas, "portfolio", 2))
    finally:
        obs.uninstall()
    ratio = t_on / t_off
    print(
        f"\nE13 obs overhead: off {t_off * 1000:.2f} ms, "
        f"on {t_on * 1000:.2f} ms ({ratio:.2f}x)"
    )
    assert ratio < 1.4, f"observed sat sweep cost {ratio:.2f}x"
