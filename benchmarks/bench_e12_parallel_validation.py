"""E12 -- parallel sharded validation: compiled plans over worker shards.

Claim under test: because Theorem 1 places the Schema Validation Problem in
AC0, the work decomposes into scope-respecting shards whose merged result
equals a sequential run.  The parallel engine exploits this twice: its fused
shard kernel (one pass over nodes, one over edges, one plan-record dict hit
per element) beats the per-rule indexed engine even on a single core, and
the shard fan-out adds multi-core scaling on top.

Four things are measured/asserted here:

1. speedup: ``ParallelValidator`` at jobs ∈ {1, 2, 4} vs ``IndexedValidator``
   on the n=16000 user/session graph -- the jobs=4 configuration must be at
   least 1.8x faster than the indexed engine;
2. plan caching: a warm ``validate()`` (plan already compiled) must be
   measurably cheaper than a cold one (cache cleared before every call);
3. resilience overhead: disabled fault points cost a None check, and an
   installed-but-never-matching fault plan keeps healthy validation within
   noise of a clean run -- the zero-overhead contract of the fault harness;
4. agreement: the parallel engine returns the identical violation set as the
   indexed engine on the conformant corpus graph and on every corrupted
   differential fixture, for jobs ∈ {1, 2, 4} -- asserted inside the bench,
   so a bench run doubles as an end-to-end check.

Set ``PGSCHEMA_BENCH_QUICK=1`` to run with tiny graphs (CI smoke mode); the
speedup ratio is then not asserted -- fixed per-call overheads dominate at
toy sizes -- but every agreement check still runs.
"""

import os
import time

import pytest

from repro.validation import (
    IndexedValidator,
    ParallelValidator,
    compile_plan,
    plan_cache_clear,
    plan_cache_info,
    validate,
)
from repro.workloads import corrupt_graph, library_graph, load, user_session_graph

QUICK = os.environ.get("PGSCHEMA_BENCH_QUICK") == "1"

SCHEMA = load("user_session_edge_props")

#: num_users=3200 -> |V|=9600, |E|=6400, n=16000 (the acceptance size).
NUM_USERS = 100 if QUICK else 3200

JOBS = [1, 2, 4]

#: Rules corrupt_graph() has an injection strategy for.
CORRUPTIBLE_RULES = (
    "SS1", "WS1", "SS2", "SS4", "WS3", "WS4",
    "DS1", "DS2", "DS5", "DS6", "DS7",
)


def _graph():
    return user_session_graph(NUM_USERS, sessions_per_user=2, seed=42)


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
# 1. speedup
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E12")
def test_indexed_baseline(benchmark):
    graph = _graph()
    validator = IndexedValidator(SCHEMA, plan=compile_plan(SCHEMA))
    benchmark.extra_info["n"] = len(graph)
    report = benchmark(validator.validate, graph)
    assert report.conforms


@pytest.mark.experiment("E12")
@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_engine_scaling(benchmark, jobs):
    graph = _graph()
    validator = ParallelValidator(SCHEMA, jobs=jobs, plan=compile_plan(SCHEMA))
    benchmark.extra_info["n"] = len(graph)
    benchmark.extra_info["executor"] = validator.choose_executor(graph)
    report = benchmark(validator.validate, graph)
    assert report.conforms


@pytest.mark.experiment("E12")
def test_parallel_speedup_over_indexed():
    """The acceptance ratio: jobs=4 must be >= 1.8x the indexed engine."""
    graph = _graph()
    plan = compile_plan(SCHEMA)
    indexed = IndexedValidator(SCHEMA, plan=plan)
    parallel = ParallelValidator(SCHEMA, jobs=4, plan=plan)
    indexed.validate(graph)  # warm both code paths before timing
    parallel.validate(graph)
    t_indexed = _best_of(lambda: indexed.validate(graph), repeats=5)
    t_parallel = _best_of(lambda: parallel.validate(graph), repeats=5)
    speedup = t_indexed / t_parallel
    print(
        f"\nE12 speedup @ n={len(graph)}: indexed {t_indexed * 1000:.1f} ms, "
        f"parallel(jobs=4) {t_parallel * 1000:.1f} ms -> {speedup:.2f}x"
    )
    if not QUICK:
        assert speedup >= 1.8, f"speedup {speedup:.2f}x below the 1.8x floor"


# --------------------------------------------------------------------------- #
# 2. plan caching
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E12")
def test_plan_cache_makes_repeat_validation_cheaper():
    """Repeated ``validate()`` calls must hit the plan cache and, summed over
    a batch, run faster than the same batch with the cache cleared between
    calls (schema analysis repaid every time).  Batching amortises noise:
    one compile is tens of microseconds, a batch of them is milliseconds."""
    graph = user_session_graph(2, sessions_per_user=2, seed=42)
    batch = 300

    def cold_batch():
        for _ in range(batch):
            plan_cache_clear()
            validate(SCHEMA, graph)

    def warm_batch():
        for _ in range(batch):
            validate(SCHEMA, graph)

    cold_batch()  # warm code paths; leaves the plan cached for warm_batch()
    t_warm = _best_of(warm_batch)
    t_cold = _best_of(cold_batch)
    before = plan_cache_info()
    validate(SCHEMA, graph)
    after = plan_cache_info()
    assert after["hits"] == before["hits"] + 1, "repeat validate() missed the cache"
    print(
        f"\nE12 plan cache ({batch} calls): cold {t_cold * 1000:.2f} ms, "
        f"warm {t_warm * 1000:.2f} ms ({t_cold / t_warm:.2f}x)"
    )
    assert t_warm < t_cold, "cached plan should make repeat validation cheaper"


# --------------------------------------------------------------------------- #
# 3. resilience layer overhead (asserted even in quick mode)
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E12")
def test_disabled_fault_points_are_noise():
    """The zero-overhead contract: with no plan installed, a fault_point
    call is one global load and a None check -- sub-microsecond-scale, so
    hot loops (tableau expansion, DPLL decisions) can afford it."""
    from repro.resilience import faults

    faults.uninstall()
    if faults.enabled():  # an env-configured PGSCHEMA_FAULTS plan is active
        pytest.skip("cannot measure the disabled path with PGSCHEMA_FAULTS set")
    calls = 200_000
    start = time.perf_counter()
    for index in range(calls):
        faults.fault_point("bench.site", index=index)
    per_call = (time.perf_counter() - start) / calls
    print(f"\nE12 disabled fault_point: {per_call * 1e9:.0f} ns/call")
    assert per_call < 2e-6, f"disabled fault_point costs {per_call * 1e6:.2f} us"


@pytest.mark.experiment("E12")
def test_resilience_plumbing_overhead_within_noise():
    """An installed-but-never-matching fault plan plus budget plumbing must
    not measurably slow a healthy validation run (ratio floor is generous:
    small absolute times make the quotient noisy)."""
    from repro.resilience import faults

    graph = _graph()
    plan = compile_plan(SCHEMA)
    baseline = ParallelValidator(SCHEMA, jobs=1, plan=plan)
    shadowed = ParallelValidator(SCHEMA, jobs=1, plan=plan)
    baseline.validate(graph)  # warm both instances' code paths
    shadowed.validate(graph)
    t_clean = _best_of(lambda: baseline.validate(graph), repeats=5)
    faults.install("crash@no.such.site:shard=999")
    try:
        t_shadowed = _best_of(lambda: shadowed.validate(graph), repeats=5)
    finally:
        faults.uninstall()
    ratio = t_shadowed / t_clean
    print(
        f"\nE12 resilience overhead: clean {t_clean * 1000:.2f} ms, "
        f"non-matching plan {t_shadowed * 1000:.2f} ms ({ratio:.2f}x)"
    )
    assert ratio < 1.4, f"non-matching fault plan cost {ratio:.2f}x"


# --------------------------------------------------------------------------- #
# 3b. observability layer overhead (asserted even in quick mode)
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E12")
def test_disabled_obs_helpers_are_noise():
    """The obs layer inherits the fault harness's zero-overhead contract:
    with no observation installed, ``obs.count``/``obs.span`` are one global
    load and a None check, so the engines stay instrumented unconditionally."""
    from repro import obs

    obs.uninstall()
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        obs.count("validation.checks.WS1")
        obs.span("validation.shard")
    per_call = (time.perf_counter() - start) / (2 * calls)
    print(f"\nE12 disabled obs helper: {per_call * 1e9:.0f} ns/call")
    assert per_call < 2e-6, f"disabled obs helper costs {per_call * 1e6:.2f} us"


@pytest.mark.experiment("E12")
def test_enabled_instrumentation_stays_aggregate():
    """Even *enabled*, tracing+metrics must stay within noise of a disabled
    run: the engines record aggregates (per-shard spans, counts derived
    from shard sizes), never per-element events, so the span/counter volume
    is O(shards), not O(|V|+|E|)."""
    from repro import obs

    obs.uninstall()
    graph = _graph()
    plan = compile_plan(SCHEMA)
    validator = ParallelValidator(SCHEMA, jobs=1, plan=plan)
    validator.validate(graph)  # warm
    t_off = _best_of(lambda: validator.validate(graph), repeats=5)
    obs.install(obs.Tracer(), obs.MetricsRegistry())
    try:
        t_on = _best_of(lambda: validator.validate(graph), repeats=5)
    finally:
        obs.uninstall()
    ratio = t_on / t_off
    print(
        f"\nE12 obs overhead: off {t_off * 1000:.2f} ms, "
        f"on {t_on * 1000:.2f} ms ({ratio:.2f}x)"
    )
    assert ratio < 1.4, f"enabled instrumentation cost {ratio:.2f}x"


# --------------------------------------------------------------------------- #
# 4. agreement (asserted even in quick mode)
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E12")
@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_agrees_with_indexed(jobs):
    lib_schema = load("library")
    fixtures = [
        (SCHEMA, _graph() if QUICK else user_session_graph(60, seed=3)),
        (lib_schema, library_graph(12, 30, num_series=3, num_publishers=2, seed=7)),
    ]
    for schema, graph in list(fixtures):
        for rule in CORRUPTIBLE_RULES:
            corrupted = corrupt_graph(graph, schema, rule, seed=11)
            if corrupted is not None:
                fixtures.append((schema, corrupted))
    checked = 0
    for schema, graph in fixtures:
        plan = compile_plan(schema)
        expected = IndexedValidator(schema, plan=plan).validate(graph)
        got = ParallelValidator(schema, jobs=jobs, plan=plan).validate(graph)
        assert got.keys() == expected.keys()
        checked += 1
    assert checked >= 20
