"""Collect the EXPERIMENTS.md measurement tables in one pass.

Not a pytest module: run directly with ``python benchmarks/collect_results.py``.
Prints the per-experiment series as markdown-ready rows (the same series the
pytest-benchmark harness times, but with fitted growth exponents and
pass/fail verdicts in one place).

Sections may be selected by name (``python benchmarks/collect_results.py
e11 e12 e13``); the engine-performance sections (E11 through E17)
additionally write machine-readable ``BENCH_<name>.json`` files into the
working directory -- CI's bench-smoke job runs them in quick mode
(``PGSCHEMA_BENCH_QUICK=1``) and uploads the JSON as a build artifact so
timing regressions leave a paper trail.  Every artifact is stamped with
the :func:`repro.perf.environment_fingerprint` that produced it, the same
fingerprint keying comparability in the ``pgschema perf`` profile store.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time

from repro import obs
from repro.dl import Name, Tableau, schema_to_tbox
from repro.fo import FOValidator
from repro.baselines import AnglesValidator, sdl_to_angles
from repro.sat import random_ksat, solve
from repro.satisfiability import (
    BoundedModelFinder,
    SatCache,
    SatisfiabilityChecker,
    reduce_cnf_to_schema,
)
from repro.schema import parse_schema
from repro.validation import (
    IndexedValidator,
    NaiveValidator,
    ParallelValidator,
    compile_plan,
    plan_cache_clear,
)
from repro.workloads import (
    CARDINALITY_FIELDS,
    CORPUS,
    cardinality_graph,
    hub_chain_schema,
    load,
    user_session_graph,
)

QUICK = os.environ.get("PGSCHEMA_BENCH_QUICK") == "1"


def write_bench_json(name: str, payload: dict) -> None:
    """Persist one experiment's series as ``BENCH_<name>.json``.

    When the collector runs each section under a metrics observation (see
    :func:`main`), the section's registry snapshot rides along under the
    ``metrics`` key, so every benchmark artifact carries the engine
    counters (shard sizes, cache hits, tableau statistics) that produced
    its timings.  The ``env`` fingerprint identifies where the numbers were
    measured; artifacts with different fingerprints are not comparable.
    """
    from repro.perf import environment_fingerprint

    path = f"BENCH_{name}.json"
    payload = dict(payload, quick=QUICK, env=environment_fingerprint())
    observation = obs.active()
    if observation is not None and observation.registry is not None:
        from repro.obs.export import attach_cache_stats, metrics_payload

        attach_cache_stats(observation.registry)
        payload["metrics"] = metrics_payload(observation.registry)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[wrote {path}]")


def timed(function, *args, repeat: int = 3) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best


def fit_exponent(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x, mean_y = sum(lx) / len(lx), sum(ly) / len(ly)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    denominator = sum((x - mean_x) ** 2 for x in lx)
    return numerator / denominator


def e1_data_complexity() -> None:
    print("## E1 — validation data complexity (fixed schema, growing graph)")
    schema = load("user_session_edge_props")
    print(f"{'n':>6} | {'naive (ms)':>11} | {'indexed (ms)':>12}")
    sizes, naive_times, indexed_times = [], [], []
    naive, indexed = NaiveValidator(schema), IndexedValidator(schema)
    for num_users in (50, 100, 200, 400):
        graph = user_session_graph(num_users, 2, seed=42)
        n = len(graph)
        t_naive = timed(naive.validate, graph, repeat=1)
        t_indexed = timed(indexed.validate, graph)
        sizes.append(n)
        naive_times.append(t_naive)
        indexed_times.append(t_indexed)
        print(f"{n:>6} | {t_naive * 1000:>11.1f} | {t_indexed * 1000:>12.2f}")
    for num_users in (800, 1600, 3200):
        graph = user_session_graph(num_users, 2, seed=42)
        t_indexed = timed(indexed.validate, graph, repeat=1)
        print(f"{len(graph):>6} | {'—':>11} | {t_indexed * 1000:>12.2f}")
    print(
        f"fitted growth exponent: naive n^{fit_exponent(sizes, naive_times):.2f}, "
        f"indexed n^{fit_exponent(sizes, indexed_times):.2f} "
        "(paper predicts naive O(n^2), AC0 membership allows near-linear)"
    )
    print()


def e3_fo() -> None:
    print("## E3 — the Theorem-1 FO encoding, executed")
    schema = load("user_session_edge_props")
    fo, indexed = FOValidator(schema), IndexedValidator(schema)
    print(f"{'n':>6} | {'FO model checking (ms)':>23} | {'indexed (ms)':>12}")
    sizes, fo_times = [], []
    for num_users in (20, 40, 80, 160):
        graph = user_session_graph(num_users, 1, seed=3)
        assert fo.validate(graph) == indexed.validate(graph).conforms
        t_fo = timed(fo.validate, graph, repeat=1)
        t_indexed = timed(indexed.validate, graph)
        sizes.append(len(graph))
        fo_times.append(t_fo)
        print(f"{len(graph):>6} | {t_fo * 1000:>23.1f} | {t_indexed * 1000:>12.2f}")
    print(f"fitted FO growth exponent: n^{fit_exponent(sizes, fo_times):.2f}")
    print()


def e4_cardinality() -> None:
    print("## E4 — the §3.3 cardinality table (accept=✓ / reject=✗)")
    schema = load("cardinality_table")
    validator = IndexedValidator(schema)
    patterns = [("1-1", 1, 1), ("fanout2", 2, 1), ("fanin2", 1, 2)]
    print(f"{'row':>5} | " + " | ".join(f"{p[0]:>8}" for p in patterns))
    for row, field_name in CARDINALITY_FIELDS.items():
        cells = []
        for _label, fan_out, fan_in in patterns:
            graph = cardinality_graph(field_name, fan_out, fan_in)
            cells.append("✓" if validator.validate(graph).conforms else "✗")
        print(f"{row:>5} | " + " | ".join(f"{c:>8}" for c in cells))
    print()


def e5_reduction() -> None:
    print("## E5 — Theorem 2: SAT reduction vs direct DPLL")
    print(
        f"{'instance':>12} | {'sat':>5} | {'DPLL (ms)':>9} | "
        f"{'reduce (ms)':>11} | {'tableau (s)':>11} | agree"
    )
    for num_vars, num_clauses, seed in [
        (3, 9, 0),
        (3, 13, 1),
        (4, 13, 0),
        (4, 17, 1),
        (5, 17, 2),
        (5, 21, 8),
    ]:
        cnf = random_ksat(num_vars, num_clauses, k=3, seed=seed)
        t0 = time.perf_counter()
        expected = solve(cnf).satisfiable
        t_dpll = time.perf_counter() - t0
        t0 = time.perf_counter()
        reduction = reduce_cnf_to_schema(cnf)
        t_reduce = time.perf_counter() - t0
        checker = SatisfiabilityChecker(reduction.schema, bounded_max_nodes=0)
        t0 = time.perf_counter()
        verdict = checker.is_satisfiable(reduction.anchor)
        t_tableau = time.perf_counter() - t0
        print(
            f"{f'v{num_vars} c{num_clauses}':>12} | {str(expected):>5} | "
            f"{t_dpll * 1000:>9.2f} | {t_reduce * 1000:>11.1f} | "
            f"{t_tableau:>11.2f} | {verdict == expected}"
        )
    print()


def e6_satisfiability() -> None:
    print("## E6 — Theorem 3 / Example 6.1 verdicts")
    rows = [
        ("example_6_1_a", "OT1", False, False),
        ("example_6_1_a", "OT2", True, True),
        ("diagram_b", "OT2", True, None),  # the finite-model gap
        ("diagram_c", "OT2", False, False),
        ("library", "Book", True, True),
    ]
    print(
        f"{'schema':>15} | {'type':>5} | {'tableau':>8} | {'finite≤4':>9} | "
        "expected (tableau, finite)"
    )
    for name, type_name, want_tableau, want_finite in rows:
        checker = SatisfiabilityChecker(CORPUS[name].load())
        verdict = checker.check_type(type_name)
        print(
            f"{name:>15} | {type_name:>5} | {str(verdict.tableau_satisfiable):>8} | "
            f"{str(verdict.finitely_satisfiable):>9} | ({want_tableau}, {want_finite})"
        )
        assert verdict.tableau_satisfiable == want_tableau
        assert verdict.finitely_satisfiable == want_finite
    e6_bounded_hub()
    e6_sat_cli_jobs()
    print()


def e6_bounded_hub() -> None:
    """The bounded witness search over every object type of the oneshot
    benchmark's sat input, ``hub_chain_schema(8, 6)``, at bound 4 (one
    finder, best of 5)."""
    schema = hub_chain_schema(depth=8, leaves=6)
    types = sorted(schema.object_types)

    def search_all() -> None:
        finder = BoundedModelFinder(schema)
        for type_name in types:
            finder.find_model(type_name, max_nodes=4)

    print(
        f"find_model over all {len(types)} types of hub_chain_schema(8, 6): "
        f"{timed(search_all, repeat=5) * 1000:.1f} ms"
    )


def e6_sat_cli_jobs() -> None:
    """``pgschema sat`` on that schema, exec to exit, with the default
    ``--jobs`` (a process pool on a multi-core host) against ``--jobs 1``.
    Children run without a bytecode cache, like a fresh CI checkout;
    runs alternate between the two settings and the medians are printed."""
    import subprocess
    import tempfile

    import repro
    from repro.schema import print_schema

    rounds = 3 if QUICK else 11
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PGSCHEMA_FAULTS", None)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "hub.graphql")
        with open(path, "w") as handle:
            handle.write(print_schema(hub_chain_schema(depth=8, leaves=6)))
        settings = {"default": [], "--jobs 1": ["--jobs", "1"]}
        samples: dict[str, list[float]] = {name: [] for name in settings}
        outputs = set()
        for _ in range(rounds):
            for name, extra in settings.items():
                start = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "-m", "repro.cli", "sat", path, *extra],
                    capture_output=True,
                    text=True,
                    env=env,
                )
                samples[name].append(time.perf_counter() - start)
                outputs.add((done.returncode, done.stdout))
    assert len(outputs) == 1, "sat output differs between --jobs settings"
    medians = {name: sorted(times)[len(times) // 2] for name, times in samples.items()}
    print(
        f"pgschema sat hub_chain_schema(8, 6), exec to exit (median of {rounds}): "
        f"default --jobs {medians['default'] * 1000:.0f} ms, "
        f"--jobs 1 {medians['--jobs 1'] * 1000:.0f} ms"
    )


def e8_baseline() -> None:
    print("## E8 — Angles baseline: speed and coverage")
    schema = load("user_session_edge_props")
    angles = sdl_to_angles(schema)
    sdl_validator = IndexedValidator(schema)
    angles_validator = AnglesValidator(angles.schema)
    print(f"{'n':>6} | {'SDL (ms)':>9} | {'Angles (ms)':>11}")
    for num_users in (50, 200, 800):
        graph = user_session_graph(num_users, 2, seed=1)
        t_sdl = timed(sdl_validator.validate, graph)
        t_angles = timed(angles_validator.validate, graph)
        print(f"{len(graph):>6} | {t_sdl * 1000:>9.2f} | {t_angles * 1000:>11.2f}")
    lost = sdl_to_angles(load("library")).lost_constraints
    print(f"library schema: {len(lost)} constraints lost in the Angles translation")
    print()


def e9_ablation() -> None:
    print("## E9 — tableau optimisation ablation (v3 c6 reduction instance)")
    cnf = random_ksat(3, 6, k=3, seed=2)
    expected = solve(cnf).satisfiable
    reduction = reduce_cnf_to_schema(cnf)
    tbox = schema_to_tbox(reduction.schema)
    configs = {
        "full": {},
        "no_bcp": {"bcp": False},
        "no_guarded_axioms": {"guarded_axioms": False},
        "no_lazy_definitions": {"lazy_definitions": False},
        "no_disjointness_propagation": {"disjointness_propagation": False},
    }
    print(f"{'config':>28} | {'time (s)':>9} | {'branches':>8}")
    for name, flags in configs.items():
        tableau = Tableau(tbox, **flags)
        t0 = time.perf_counter()
        verdict = tableau.is_satisfiable(Name(reduction.anchor))
        elapsed = time.perf_counter() - t0
        assert verdict == expected, name
        print(f"{name:>28} | {elapsed:>9.3f} | {tableau.stats.branches:>8}")
    print()


def e11_static_rung() -> None:
    print("## E11 — the static rung (analysis) vs the tableau (dead chains)")
    depths = (4, 8) if QUICK else (4, 16, 64)
    rows = []
    print(f"{'depth':>6} | {'analysis (ms)':>13} | {'tableau (ms)':>12}")
    for depth in depths:
        lines = ["interface Dead { x: Int }", "type T0 { next: Dead @required }"]
        for i in range(1, depth):
            lines.append(f"type T{i} {{ next: T{i - 1} @required }}")
        sdl = "\n".join(lines)

        def decide(engine: str) -> None:
            schema = parse_schema(sdl)
            checker = SatisfiabilityChecker(
                schema, analysis_precheck=(engine == "analysis"), cache=False
            )
            verdict = checker.check_type(f"T{depth - 1}", find_witness=False)
            assert not verdict.tableau_satisfiable and verdict.decided_by == engine

        t_static = timed(decide, "analysis")
        t_tableau = timed(decide, "tableau")
        rows.append({"depth": depth, "analysis_s": t_static, "tableau_s": t_tableau})
        print(f"{depth:>6} | {t_static * 1000:>13.2f} | {t_tableau * 1000:>12.2f}")
    write_bench_json("e11", {"experiment": "E11", "rows": rows})
    print()


def e12_parallel_validation() -> None:
    print("## E12 — parallel sharded validation")
    num_users = 100 if QUICK else 1600
    schema = load("user_session_edge_props")
    graph = user_session_graph(num_users, 2, seed=42)
    plan = compile_plan(schema)
    indexed = IndexedValidator(schema, plan=plan)
    parallel = ParallelValidator(schema, jobs=4, plan=plan)
    assert indexed.validate(graph).keys() == parallel.validate(graph).keys()
    t_indexed = timed(indexed.validate, graph)
    t_parallel = timed(parallel.validate, graph)
    small = user_session_graph(2, 2, seed=42)

    def cold_plan() -> None:
        plan_cache_clear()
        IndexedValidator(schema, plan=compile_plan(schema)).validate(small)

    def warm_plan() -> None:
        IndexedValidator(schema, plan=compile_plan(schema)).validate(small)

    cold_plan()
    t_cold, t_warm = timed(cold_plan), timed(warm_plan)
    print(
        f"n={len(graph)}: indexed {t_indexed * 1000:.2f} ms, "
        f"parallel(jobs=4) {t_parallel * 1000:.2f} ms "
        f"({t_indexed / t_parallel:.2f}x); plan cache cold "
        f"{t_cold * 1000:.3f} ms, warm {t_warm * 1000:.3f} ms"
    )
    jobs, sweep = e12_executor_sweep(schema, plan)
    write_bench_json(
        "e12",
        {
            "experiment": "E12",
            "n": len(graph),
            "indexed_s": t_indexed,
            "parallel_jobs4_s": t_parallel,
            "speedup": t_indexed / t_parallel,
            "plan_cache_cold_s": t_cold,
            "plan_cache_warm_s": t_warm,
            "sweep_jobs": jobs,
            "executor_sweep": sweep,
        },
    )
    print()


def e12_executor_sweep(schema, plan) -> tuple[int, list[dict]]:
    """The measurement behind the default rung policy: the plan kernel
    inline on one shard (the default) against ``jobs=usable_cores()``
    shards run serially and on a process pool, on user/session graphs of
    5k to 200k elements (five elements per user).  The serial and process
    legs pin their rung with :func:`pinned_rung`."""
    from repro.validation.parallel import usable_cores

    jobs = usable_cores()
    legs = {
        "inline": ParallelValidator(schema, plan=plan),
        "serial": ParallelValidator(schema, jobs=jobs, plan=plan),
        "process": ParallelValidator(schema, jobs=jobs, plan=plan),
    }
    print(f"executor sweep at jobs={jobs} (best of 3, ms)")
    print(f"{'n':>7} | {'inline':>8} | {'serial':>8} | {'process':>8}")
    rows = []
    for num_users in (100, 400) if QUICK else (1_000, 4_000, 16_000, 40_000):
        graph = user_session_graph(num_users, 2, seed=42)
        reference = legs["inline"].validate(graph).keys()
        row: dict = {"n": len(graph)}
        for name, validator in legs.items():
            with pinned_rung("process" if name == "process" else "serial"):
                assert validator.choose_executor(graph) == (
                    "process" if name == "process" else "serial"
                ), name
                assert validator.validate(graph).keys() == reference, name
                row[f"{name}_s"] = timed(validator.validate, graph)
        rows.append(row)
        print(
            f"{row['n']:>7} | {row['inline_s'] * 1000:>8.1f} | "
            f"{row['serial_s'] * 1000:>8.1f} | {row['process_s'] * 1000:>8.1f}"
        )
    return jobs, rows


@contextlib.contextmanager
def pinned_rung(rung: str):
    """Land every ``jobs > 1`` validation on *rung*, at any graph size and
    on any host, by faking the two observations of the one rung policy
    (``choose_rung``) as the tests' ``process_rung`` fixture does: the
    usable cores and ``ParallelValidator.SMALL_GRAPH_THRESHOLD``."""
    from repro.resilience import ladder

    saved = ladder.usable_cores, ParallelValidator.SMALL_GRAPH_THRESHOLD
    ladder.usable_cores = (lambda: 2) if rung == "process" else (lambda: 1)
    ParallelValidator.SMALL_GRAPH_THRESHOLD = 0
    try:
        yield
    finally:
        ladder.usable_cores, ParallelValidator.SMALL_GRAPH_THRESHOLD = saved


def e13_portfolio_sat() -> None:
    print("## E13 — portfolio whole-schema satisfiability")
    scaled = (
        [hub_chain_schema(depth=3, leaves=2)]
        if QUICK
        else [hub_chain_schema(depth=12, leaves=8)]
    )
    schemas = scaled + [load(name) for name in CORPUS]

    def sweep(engine: str) -> None:
        for schema in schemas:
            SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
                jobs=4, engine=engine
            )

    sweep("serial")  # warm code paths
    t_serial = timed(lambda: sweep("serial"))
    t_portfolio = timed(lambda: sweep("portfolio"))
    caches = [SatCache(schema) for schema in schemas]
    for schema, cache in zip(schemas, caches):
        SatisfiabilityChecker(schema, cache=cache).check_schema(jobs=4)

    def warm_sweep() -> None:
        for schema, cache in zip(schemas, caches):
            SatisfiabilityChecker(schema, cache=cache).check_schema(jobs=4)

    t_warm = timed(warm_sweep)
    print(
        f"{len(schemas)} schemas: serial {t_serial * 1000:.2f} ms, "
        f"portfolio(jobs=4) {t_portfolio * 1000:.2f} ms "
        f"({t_serial / t_portfolio:.2f}x); warm cache {t_warm * 1000:.2f} ms "
        f"({t_portfolio / t_warm:.1f}x over cold)"
    )
    write_bench_json(
        "e13",
        {
            "experiment": "E13",
            "schemas": len(schemas),
            "serial_s": t_serial,
            "portfolio_jobs4_s": t_portfolio,
            "speedup": t_serial / t_portfolio,
            "warm_cache_s": t_warm,
            "warm_speedup_over_cold": t_portfolio / t_warm,
        },
    )
    print()


def e14_analysis() -> None:
    print("## E14 — schema dataflow analyzer: static pre-verdicts")
    from repro.analysis import analysis_cache_clear, analyze_schema, sat_preverdicts
    from repro.workloads import deep_lattice_schema, near_unsat_schema

    decided = total = 0
    for name in CORPUS:
        schema = load(name)
        decided += sat_preverdicts(schema).decided
        total += len(schema.object_types) + sum(
            1
            for *_loc, field_def in schema.field_declarations()
            if field_def.is_relationship
        )
    print(f"corpus coverage: {decided}/{total} elements decided statically")

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
    schemas = scaled + [load(name) for name in CORPUS]

    def sweep(analysis: bool) -> None:
        for schema in schemas:
            SatisfiabilityChecker(
                schema, cache=False, analysis_precheck=analysis
            ).check_schema(engine="serial")

    sweep(True)  # warm code paths and the per-schema analysis memo
    sweep(False)
    t_on = timed(lambda: sweep(True))
    t_off = timed(lambda: sweep(False))

    def analyses() -> None:
        analysis_cache_clear()
        for schema in schemas:
            analyze_schema(schema)

    t_passes = timed(analyses)
    print(
        f"{len(schemas)} schemas: feed off {t_off * 1000:.2f} ms, feed on "
        f"{t_on * 1000:.2f} ms ({t_off / t_on:.2f}x); all four passes "
        f"{t_passes * 1000:.2f} ms"
    )
    write_bench_json(
        "e14",
        {
            "experiment": "E14",
            "schemas": len(schemas),
            "corpus_decided": decided,
            "corpus_elements": total,
            "coverage": decided / total,
            "feed_off_s": t_off,
            "feed_on_s": t_on,
            "speedup": t_off / t_on,
            "passes_s": t_passes,
        },
    )
    print()


def e15_stream() -> None:
    print("## E15 — out-of-core streaming validation")
    import tempfile

    from bench_e15_stream import write_user_session_jsonl
    from repro.validation import StreamValidator

    schema = load("user_session_edge_props")
    plan = compile_plan(schema)

    # out-of-core: stream a JSONL file in bounded memory
    stream_users = 200 if QUICK else 20_000
    chunk = 512 if QUICK else 8192
    with tempfile.TemporaryDirectory(prefix="pgschema-e15-") as tmp:
        path = os.path.join(tmp, "graph.jsonl")
        total = write_user_session_jsonl(path, stream_users)
        stream = StreamValidator(schema, chunk_elements=chunk, plan=plan)
        t0 = time.perf_counter()
        report = stream.validate(path)
        t_stream = time.perf_counter() - t0
        assert report.conforms
    print(
        f"stream n={total}: {t_stream:.2f} s "
        f"({total / t_stream / 1000:.0f}k elements/s), chunk={chunk}, "
        f"peak resident {stream.peak_resident} "
        f"({stream.peak_resident / total:.1%} of n)"
    )
    write_bench_json(
        "e15",
        {
            "experiment": "E15",
            "stream_n": total,
            "stream_chunk_elements": chunk,
            "stream_s": t_stream,
            "stream_peak_resident": stream.peak_resident,
        },
    )
    print()


def e16_cdc() -> None:
    print("## E16 — crash-resumable CDC validation")
    import tempfile

    from bench_e16_cdc import _base_graph, _journal
    from repro.schema import parse_schema
    from repro.validation import CDCConsumer
    from repro.workloads import MUTATION_SCHEMA_SDL

    schema = parse_schema(MUTATION_SCHEMA_SDL)
    commits = 10 if QUICK else 40
    base_sizes = [50, 200] if QUICK else [100, 400, 1600, 6400]

    class _Tmp:
        def __init__(self, root):
            self._root = root

        def __truediv__(self, name):
            return os.path.join(self._root, name)

    with tempfile.TemporaryDirectory(prefix="pgschema-e16-") as tmp:
        path = _journal(_Tmp(tmp), commits=commits)
        events = sum(1 for _ in open(path)) - 1

        # per-commit consume cost must stay flat as the base graph grows
        consume_costs = []
        for num_users in base_sizes:
            base = _base_graph(num_users)
            empty = _journal(_Tmp(tmp), name="empty.jsonl", commits=1, ops_per_commit=1)
            # best-of-7: the subtraction needs tighter minima than the
            # default, else base-validation jitter at large n drowns the
            # per-commit consume cost
            t_setup = timed(
                lambda: CDCConsumer(schema, empty, base_graph=base).run(),
                repeat=7,
            )
            t_total = timed(
                lambda: CDCConsumer(schema, path, base_graph=base).run(),
                repeat=7,
            )
            per_commit = (t_total - t_setup) / commits
            consume_costs.append(per_commit)
            print(
                f"base n={num_users}: total {t_total * 1000:.2f} ms, "
                f"setup {t_setup * 1000:.2f} ms, consume "
                f"{per_commit * 1000:.3f} ms/commit"
            )

        # checkpoint overhead and warm-restart latency
        checkpoint_dir = os.path.join(tmp, "ckpt")
        t_plain = timed(lambda: CDCConsumer(schema, path).run())
        t_durable = timed(
            lambda: CDCConsumer(
                schema, path, checkpoint_dir=checkpoint_dir, checkpoint_every=1
            ).run()
        )
        t_resume = timed(
            lambda: CDCConsumer(
                schema, path, checkpoint_dir=checkpoint_dir, checkpoint_every=1
            ).run(resume=True)
        )
        print(
            f"{commits} commit(s) / {events} event(s): consume "
            f"{t_plain * 1000:.2f} ms ({events / t_plain:.0f} events/s), "
            f"checkpoint-every-commit {t_durable * 1000:.2f} ms "
            f"({t_durable / t_plain:.2f}x), warm resume {t_resume * 1000:.2f} ms"
        )
    write_bench_json(
        "e16",
        {
            "experiment": "E16",
            "commits": commits,
            "events": events,
            "base_sizes": base_sizes,
            "consume_s_per_commit": consume_costs,
            "consume_s": t_plain,
            "events_per_second": events / t_plain,
            "checkpointed_s": t_durable,
            "checkpoint_overhead": t_durable / t_plain,
            "warm_resume_s": t_resume,
        },
    )
    print()


def e17_service() -> None:
    print("## E17 — schema-registry service: batched warm serving vs cold CLI")
    from bench_e17_service import (
        CLIENTS,
        COLD_REQUESTS,
        REQUESTS_PER_CLIENT,
        SDL,
        cold_validate,
        run_closed_loop,
    )
    import tempfile

    from repro.pg import dumps_graph
    from repro.service import ServiceClient, ServiceThread
    from repro.workloads import user_session_graph

    with tempfile.TemporaryDirectory(prefix="pgschema-e17-") as tmp:
        schema_path = os.path.join(tmp, "schema.graphql")
        with open(schema_path, "w") as handle:
            handle.write(SDL)
        graph_path = os.path.join(tmp, "graph.json")
        with open(graph_path, "w") as handle:
            handle.write(dumps_graph(user_session_graph(20, 2, seed=0)))

        t0 = time.perf_counter()
        for _ in range(COLD_REQUESTS):
            cold_validate(schema_path, graph_path)
        cold_rps = COLD_REQUESTS / (time.perf_counter() - t0)

        thread = ServiceThread(port=0)
        host, port = thread.start()
        try:
            with ServiceClient(host, port) as client:
                client.register("bench", "users", SDL)
            run_closed_loop(host, port)  # warm-up round
            elapsed = min(run_closed_loop(host, port) for _ in range(3))
            warm_rps = CLIENTS * REQUESTS_PER_CLIENT / elapsed
            with ServiceClient(host, port) as client:
                _, stats = client.stats()
        finally:
            thread.stop()

    latency = stats["histograms"].get("service.latency_ms", {})
    batching = stats["service"]["batching"]
    speedup = warm_rps / cold_rps
    print(
        f"cold subprocess {cold_rps:.1f} req/s, warm batched "
        f"{warm_rps:.1f} req/s ({speedup:.1f}x; floor 3x), "
        f"{CLIENTS} client(s) x {REQUESTS_PER_CLIENT} request(s)"
    )
    print(
        f"latency p50 {latency.get('p50', 0.0):.2f} ms, "
        f"p99 {latency.get('p99', 0.0):.2f} ms; coalesce ratio "
        f"{batching['coalesce_ratio']:.2f} "
        f"({batching['requests']:.0f} requests / {batching['batches']:.0f} batches)"
    )
    assert speedup >= 3.0, f"service speedup {speedup:.2f}x below the 3x floor"
    write_bench_json(
        "e17",
        {
            "experiment": "E17",
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "cold_requests": COLD_REQUESTS,
            "cold_rps": cold_rps,
            "warm_rps": warm_rps,
            "speedup": speedup,
            "latency_ms_p50": latency.get("p50"),
            "latency_ms_p99": latency.get("p99"),
            "coalesce_ratio": batching["coalesce_ratio"],
        },
    )
    print()


SECTIONS = {
    "e1": e1_data_complexity,
    "e3": e3_fo,
    "e4": e4_cardinality,
    "e5": e5_reduction,
    "e6": e6_satisfiability,
    "e8": e8_baseline,
    "e9": e9_ablation,
    "e11": e11_static_rung,
    "e12": e12_parallel_validation,
    "e13": e13_portfolio_sat,
    "e14": e14_analysis,
    "e15": e15_stream,
    "e16": e16_cdc,
    "e17": e17_service,
}


def main(names: list[str] | None = None) -> None:
    selected = names or list(SECTIONS)
    for name in selected:
        if name not in SECTIONS:
            raise SystemExit(
                f"unknown section {name!r}; choose from {', '.join(SECTIONS)}"
            )
        # one metrics observation per section: BENCH_*.json files written
        # inside it pick up that section's registry snapshot
        with obs.observed(metrics=True):
            SECTIONS[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
