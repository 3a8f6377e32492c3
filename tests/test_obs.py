"""The observability layer: registry, tracer, exporters, CLI artifacts.

Three contracts are pinned here:

1. **zero-cost off**: with nothing installed every obs helper is one global
   load and a ``None`` check -- asserted as an absolute per-call ceiling,
   mirroring the fault-harness overhead contract of ``bench_e12``;
2. **span correctness under fan-out**: shard spans nest inside the run span
   on the serial rung, and spans recorded inside pool *processes* ship back
   with the task result and merge at the same barrier as the report merge
   (which therefore stays byte-identical with tracing on or off);
3. **frozen artifact shapes**: the exported Chrome-trace and metrics JSON
   conform to the checked-in schemas under ``docs/schemas/``, and the legacy
   profiling surfaces (``profile_rules`` timings, ``sat --profile``
   ``last_profile``) keep their historical keys while being derived from
   the registry.
"""

import json
import os
import time

import pytest

from repro import obs
from repro.obs import export
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import SpanEvent, TracedResult, Tracer
from repro.satisfiability import SatisfiabilityChecker
from repro.satisfiability.engine import profile_from_registry
from repro.validation import (
    IncrementalValidator,
    IndexedValidator,
    NaiveValidator,
    ParallelValidator,
    compile_plan,
)
from repro.workloads import load, user_session_graph

SCHEMA = load("user_session_edge_props")
GRAPH = user_session_graph(60, sessions_per_user=2, seed=7)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS_SCHEMA = json.load(
    open(os.path.join(REPO, "docs", "schemas", "metrics.schema.json"))
)
TRACE_SCHEMA = json.load(
    open(os.path.join(REPO, "docs", "schemas", "trace.schema.json"))
)


@pytest.fixture(autouse=True)
def _no_leaked_observation():
    """Every test starts and ends with observation off."""
    obs.uninstall()
    yield
    obs.uninstall()


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #


def test_histogram_moments_are_exact():
    hist = Histogram()
    hist.extend([1.0, 2.0, 3.0, 4.0])
    payload = hist.to_json()
    assert payload["count"] == 4
    assert payload["sum"] == 10.0
    assert payload["min"] == 1.0
    assert payload["max"] == 4.0
    assert payload["mean"] == 2.5


def test_histogram_reservoir_is_bounded_and_deterministic():
    hist = Histogram(capacity=16)
    for value in range(10_000):
        hist.observe(float(value))
    assert hist.count == 10_000
    assert len(hist._reservoir) <= 16 + 1
    # determinism: a second identical stream gives the identical reservoir
    again = Histogram(capacity=16)
    for value in range(10_000):
        again.observe(float(value))
    assert hist._reservoir == again._reservoir
    # the kept sample spans the stream, so extreme quantiles stay sane
    assert hist.quantile(0.0) <= hist.quantile(0.5) <= hist.quantile(1.0)


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.count("a.b")
    registry.count("a.b", 2)
    registry.gauge("g", 7)
    registry.gauge("g", 9)
    registry.observe("h", 0.5)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a.b": 3}
    assert snapshot["gauges"] == {"g": 9}
    assert snapshot["histograms"]["h"]["count"] == 1


def test_registry_merge_snapshot_adds_counters_and_merges_histograms():
    parent, worker = MetricsRegistry(), MetricsRegistry()
    parent.count("n", 1)
    parent.observe("h", 1.0)
    worker.count("n", 2)
    worker.observe("h", 3.0)
    parent.merge_snapshot(worker.drain())
    snapshot = parent.snapshot()
    assert snapshot["counters"] == {"n": 3}
    assert snapshot["histograms"]["h"]["count"] == 2
    assert snapshot["histograms"]["h"]["sum"] == 4.0
    # drain cleared the worker side
    assert worker.snapshot()["counters"] == {}


def test_registry_timer_observes_seconds():
    registry = MetricsRegistry()
    with registry.timer("t"):
        pass
    payload = registry.snapshot()["histograms"]["t"]
    assert payload["count"] == 1
    assert payload["sum"] >= 0.0


# --------------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------------- #


def test_spans_nest_and_carry_attributes():
    tracer = Tracer()
    with tracer.span("outer", kind="demo"):
        with tracer.span("inner") as inner:
            inner.set(extra=1)
    events = tracer.events()
    by_name = {event.name: event for event in events}
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer.attrs["kind"] == "demo"
    assert inner.attrs["extra"] == 1
    # interval containment is what the trace viewer infers nesting from
    assert outer.start <= inner.start
    assert inner.start + inner.duration <= outer.start + outer.duration


def test_span_records_error_attribute_on_exception():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    (event,) = tracer.events()
    assert event.attrs["error"] == "ValueError"


def test_instant_events_have_no_duration():
    tracer = Tracer()
    tracer.instant("tick", n=1)
    (event,) = tracer.events()
    assert event.duration is None
    assert event.attrs == {"n": 1}


def test_absorb_merges_foreign_events():
    parent, worker = Tracer(), Tracer(epoch=0.0)
    with parent.span("parent"):
        pass
    with worker.span("worker"):
        pass
    parent.absorb(worker.drain())
    assert {event.name for event in parent.events()} == {"parent", "worker"}
    assert worker.events() == []


# --------------------------------------------------------------------------- #
# the global runtime: off by default, zero-cost off
# --------------------------------------------------------------------------- #


def test_helpers_are_noops_when_off():
    assert obs.active() is None
    obs.count("x")
    obs.gauge("x", 1)
    obs.observe("x", 1)
    obs.instant("x")
    span = obs.span("x", a=1)
    assert span is obs.span("y")  # the shared null span, no allocation
    with span:
        span.set(b=2)


def test_observed_scopes_install_and_uninstall():
    with obs.observed(trace=True, metrics=True) as observation:
        assert obs.active() is observation
        obs.count("c")
        with obs.span("s"):
            pass
    assert obs.active() is None
    assert observation.registry.counter_value("c") == 1
    assert [event.name for event in observation.tracer.events()] == ["s"]


def test_disabled_path_overhead_is_bounded():
    """The off-switch contract: a disabled helper call stays under 2µs.

    The real bound is tens of nanoseconds (one global load, one ``is None``);
    2µs absorbs CI noise by two orders of magnitude while still catching any
    accidental allocation/locking on the disabled path.
    """
    calls = 20_000
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            obs.count("validation.checks.WS1")
            obs.span("validation.shard")
        best = min(best, time.perf_counter() - start)
    per_call = best / (2 * calls)
    assert per_call < 2e-6, f"disabled obs call took {per_call * 1e9:.0f}ns"


def test_package_and_unwrap_round_trip():
    # off: package is the identity (allocation-free disabled path)
    payload = {"r": 1}
    assert obs.package(payload) is payload
    assert obs.unwrap(payload) is payload
    assert obs.unwrap(None) is None
    # on: package drains the worker-side buffers into a TracedResult ...
    with obs.observed(trace=True, metrics=True):
        obs.count("w")
        with obs.span("work"):
            pass
        shipped = obs.package(payload)
    assert isinstance(shipped, TracedResult)
    assert shipped.payload is payload
    # ... and unwrap folds them into the (parent-side) active observation
    with obs.observed(trace=True, metrics=True) as parent:
        assert obs.unwrap(shipped) is payload
    assert parent.registry.counter_value("w") == 1
    assert "work" in {event.name for event in parent.tracer.events()}


def test_worker_config_round_trip():
    assert obs.worker_config() is None
    with obs.observed(trace=True, metrics=True) as parent:
        config = obs.worker_config()
    assert config == {"epoch": parent.tracer.epoch, "trace": True, "metrics": True}
    obs.install_worker(config)
    try:
        worker = obs.active()
        assert worker.tracer.epoch == parent.tracer.epoch
        assert worker.registry is not None
    finally:
        obs.uninstall()
    obs.install_worker(None)
    assert obs.active() is None


# --------------------------------------------------------------------------- #
# span correctness under fan-out
# --------------------------------------------------------------------------- #


def _contains(outer: SpanEvent, inner: SpanEvent) -> bool:
    return (
        outer.start <= inner.start
        and inner.start + (inner.duration or 0.0)
        <= outer.start + outer.duration + 1e-9
    )


def test_serial_fanout_spans_nest_inside_run_span():
    with obs.observed(trace=True, metrics=True) as observation:
        validator = ParallelValidator(SCHEMA, jobs=2)
        assert validator.choose_executor(GRAPH) == "serial"  # below the threshold
        report = validator.validate(GRAPH)
    assert report.complete
    events = observation.tracer.events()
    by_name: dict = {}
    for event in events:
        by_name.setdefault(event.name, []).append(event)
    (run,) = by_name["validation.run"]
    shards = by_name["validation.shard"]
    assert len(shards) == validator.jobs
    for shard in shards:
        assert shard.attrs["executor"] == "serial"
        assert _contains(run, shard)
    (merge,) = by_name["validation.merge"]
    assert _contains(run, merge)
    counters = observation.registry.snapshot()["counters"]
    assert counters["validation.shards"] == validator.jobs
    assert counters["validation.checks.WS1"] == GRAPH.num_nodes
    assert counters["validation.checks.DS1"] == GRAPH.num_edges


def test_process_fanout_merges_worker_spans_and_keeps_report_identical(process_rung):
    baseline = ParallelValidator(SCHEMA, jobs=2).validate(GRAPH)
    with obs.observed(trace=True, metrics=True) as observation:
        traced = ParallelValidator(SCHEMA, jobs=2).validate(GRAPH)
    # contract 2 of docs/RESILIENCE.md survives tracing: identical reports
    assert traced.complete and traced.conforms == baseline.conforms
    assert traced.keys() == baseline.keys()
    assert traced.summary() == baseline.summary()
    events = observation.tracer.events()
    shards = [event for event in events if event.name == "validation.shard"]
    assert len(shards) == 2
    worker_pids = {event.pid for event in shards}
    assert os.getpid() not in worker_pids  # recorded inside the workers ...
    (run,) = [event for event in events if event.name == "validation.run"]
    for shard in shards:  # ... on the shared monotonic epoch
        assert _contains(run, shard)
    # worker-side counters merged at the same barrier
    counters = observation.registry.snapshot()["counters"]
    assert counters["validation.checks.WS1"] == GRAPH.num_nodes


def test_sat_portfolio_spans_and_counters():
    with obs.observed(trace=True, metrics=True) as observation:
        # analysis off: the test asserts tableau spans/counters, which the
        # dataflow pre-verdict feed would otherwise skip entirely
        checker = SatisfiabilityChecker(
            load("library"), cache=False, analysis_precheck=False
        )
        report = checker.check_schema(engine="portfolio", jobs=2)
    names = {event.name for event in observation.tracer.events()}
    assert {"sat.run", "sat.unit", "tableau.search"} <= names
    counters = observation.registry.snapshot()["counters"]
    assert counters["sat.units"] == checker.last_profile["units"]
    assert counters["tableau.searches"] >= 1
    assert sum(
        value for name, value in counters.items() if name.startswith("sat.types.")
    ) == len(report.types)


# --------------------------------------------------------------------------- #
# exporters and checked-in artifact schemas
# --------------------------------------------------------------------------- #


def test_chrome_trace_payload_shape():
    tracer = Tracer()
    with tracer.span("validation.run", jobs=2):
        tracer.instant("fault.crash", site="parallel.worker")
    payload = export.chrome_trace_payload(tracer, command="test")
    assert export.check_schema(payload, TRACE_SCHEMA) == []
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
    assert complete[0]["name"] == "validation.run"
    assert complete[0]["cat"] == "validation"
    assert complete[0]["args"] == {"jobs": 2}
    assert instants[0]["s"] == "t"
    assert payload["otherData"]["command"] == "test"
    # ts is relative to the tracer epoch, so every event lands at >= 0
    assert all(event["ts"] >= 0 for event in payload["traceEvents"])


def test_metrics_payload_conforms_and_carries_cache_gauges():
    registry = MetricsRegistry()
    registry.count("validation.runs")
    registry.observe("validation.shard_size", 42)
    export.attach_cache_stats(registry)
    payload = export.metrics_payload(registry, command="test")
    assert export.check_schema(payload, METRICS_SCHEMA) == []
    assert payload["format"] == "pgschema-metrics"
    assert "validation.plan_cache_info.hits" in payload["gauges"]
    assert "sat.cache_info.hits" in payload["gauges"]


def test_check_schema_rejects_bad_payloads():
    schema = METRICS_SCHEMA
    assert export.check_schema([], schema)  # wrong top-level type
    assert export.check_schema({"format": "pgschema-metrics"}, schema)  # missing keys
    bad = {
        "format": "wrong",
        "version": 1,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    problems = export.check_schema(bad, schema)
    assert any("format" in problem for problem in problems)
    assert export.check_schema(
        {
            "format": "pgschema-metrics",
            "version": 1,
            "counters": {"a": "not a number"},
            "gauges": {},
            "histograms": {},
        },
        schema,
    )


def test_cli_trace_and_metrics_artifacts(tmp_path):
    from repro.cli import main
    from repro.pg.io import dumps_graph
    from repro.workloads import CORPUS

    schema_path = tmp_path / "schema.graphql"
    graph_path = tmp_path / "graph.json"
    schema_path.write_text(CORPUS["user_session_edge_props"].sdl)
    graph_path.write_text(dumps_graph(GRAPH))
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.json"
    code = main(
        [
            "validate", str(schema_path), str(graph_path),
            "--engine", "parallel", "--jobs", "2",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]
    )
    assert code == 0
    assert obs.active() is None  # the CLI uninstalled its observation
    trace = json.loads(trace_path.read_text())
    metrics = json.loads(metrics_path.read_text())
    assert export.check_schema(trace, TRACE_SCHEMA) == []
    assert export.check_schema(metrics, METRICS_SCHEMA) == []
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"sdl.parse", "schema.build", "pg.load", "validation.run"} <= names
    assert metrics["counters"]["validation.runs"] == 1
    assert "validation.plan_cache.hits" in metrics["counters"] or (
        "validation.plan_cache.misses" in metrics["counters"]
    )
    assert any(name.startswith("validation.checks.") for name in metrics["counters"])
    assert "validation.plan_cache_info.hits" in metrics["gauges"]
    assert "sat.cache_info.hits" in metrics["gauges"]


@pytest.mark.parametrize(
    ("suffix", "build"), ((".json", "pg.records"), (".jsonl", "pg.load_jsonl"))
)
def test_cli_validate_load_and_report_spans(tmp_path, suffix, build):
    """``pg.load`` splits into ``pg.decode`` + ``pg.records`` children on
    the default path, and ``validation.report`` times the report lines."""
    from repro.cli import main
    from repro.pg.io import dump_graph_jsonl, dumps_graph
    from repro.workloads import CORPUS

    schema_path = tmp_path / "schema.graphql"
    schema_path.write_text(CORPUS["user_session_edge_props"].sdl)
    graph_path = tmp_path / f"graph{suffix}"
    if suffix == ".json":
        graph_path.write_text(dumps_graph(GRAPH))
    else:
        with open(graph_path, "w") as handle:
            dump_graph_jsonl(GRAPH, handle)
    trace_path = tmp_path / "t.json"
    code = main(["validate", str(schema_path), str(graph_path), "--trace", str(trace_path)])
    assert code == 0
    events = {event["name"]: event for event in json.loads(trace_path.read_text())["traceEvents"]}
    report = events["validation.report"]
    assert report["args"] == {"violations": 0}
    assert report["ts"] >= events["validation.run"]["ts"] + events["validation.run"]["dur"]
    if suffix == ".jsonl":
        assert build in events and "pg.load" not in events
        return
    load_span = events["pg.load"]
    assert load_span["args"] == {
        "bytes": graph_path.stat().st_size,
        "nodes": GRAPH.num_nodes,
        "edges": GRAPH.num_edges,
    }
    start, end = load_span["ts"], load_span["ts"] + load_span["dur"]
    decode, records = events["pg.decode"], events[build]
    assert start <= decode["ts"] and decode["ts"] + decode["dur"] <= records["ts"]
    assert records["ts"] + records["dur"] <= end


def test_cli_sat_trace_artifacts(tmp_path):
    from repro.cli import main
    from repro.workloads import CORPUS

    schema_path = tmp_path / "schema.graphql"
    schema_path.write_text(CORPUS["library"].sdl)
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.json"
    code = main(
        [
            "sat", str(schema_path),
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]
    )
    assert code == 0
    trace = json.loads(trace_path.read_text())
    metrics = json.loads(metrics_path.read_text())
    assert export.check_schema(trace, TRACE_SCHEMA) == []
    assert export.check_schema(metrics, METRICS_SCHEMA) == []
    assert {"sat.run", "sat.unit"} <= {e["name"] for e in trace["traceEvents"]}
    assert metrics["counters"]["sat.units"] >= 1


def test_cli_stats_json_uses_metrics_vocabulary(tmp_path, capsys):
    from repro.cli import main
    from repro.pg.io import dumps_graph

    graph_path = tmp_path / "graph.json"
    graph_path.write_text(dumps_graph(GRAPH))
    assert main(["stats", str(graph_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert export.check_schema(payload, METRICS_SCHEMA) == []
    assert payload["counters"]["pg.nodes"] == GRAPH.num_nodes
    assert payload["counters"]["pg.edges"] == GRAPH.num_edges
    assert any(name.startswith("pg.nodes.") for name in payload["counters"])


def test_obs_check_module_cli(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(export.metrics_payload(MetricsRegistry()))
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    schema_path = os.path.join(REPO, "docs", "schemas", "metrics.schema.json")
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    ok = subprocess.run(
        [sys.executable, "-m", "repro.obs", "check", str(good), schema_path],
        capture_output=True, text=True, env=env,
    )
    assert ok.returncode == 0, ok.stderr
    broken = subprocess.run(
        [sys.executable, "-m", "repro.obs", "check", str(bad), schema_path],
        capture_output=True, text=True, env=env,
    )
    assert broken.returncode == 1
    assert "missing required key" in broken.stderr


# --------------------------------------------------------------------------- #
# backward-compatible profiling surfaces
# --------------------------------------------------------------------------- #


def test_profile_from_registry_keeps_legacy_shape():
    registry = MetricsRegistry()
    registry.count("sat.units", 5)
    registry.count("sat.wins.tableau", 3)
    registry.count("sat.wins.cache", 2)
    profile = profile_from_registry(registry, "portfolio", "process", 4)
    assert profile == {
        "engine": "portfolio",
        "executor": "process",
        "jobs": 4,
        "units": 5,
        "wins": {"tableau": 3, "cache": 2},
    }


def test_last_profile_shape_unchanged():
    checker = SatisfiabilityChecker(load("library"), cache=False)
    checker.check_schema(engine="portfolio", jobs=2)
    profile = checker.last_profile
    assert set(profile) == {"engine", "executor", "jobs", "units", "wins"}
    assert isinstance(profile["units"], int)
    assert all(isinstance(count, int) for count in profile["wins"].values())
    checker.check_schema(engine="serial")
    assert checker.last_profile == {
        "engine": "serial",
        "executor": "serial",
        "jobs": 1,
        "units": 0,
        "wins": {},
    }


def test_profile_rules_timings_shape_unchanged():
    validator = IndexedValidator(SCHEMA, plan=compile_plan(SCHEMA))
    report, timings = validator.profile_rules(GRAPH, mode="strong")
    assert report.complete
    assert set(timings) == set(report.rules_checked)
    assert all(isinstance(value, float) for value in timings.values())
    assert all(value >= 0.0 for value in timings.values())


def test_profile_rules_feeds_active_registry():
    with obs.observed(metrics=True) as observation:
        validator = IndexedValidator(SCHEMA, plan=compile_plan(SCHEMA))
        validator.profile_rules(GRAPH, mode="strong")
    histograms = observation.registry.snapshot()["histograms"]
    assert "validation.rule.WS1" in histograms
    assert histograms["validation.rule.WS1"]["count"] == 1


# --------------------------------------------------------------------------- #
# run-level instrumentation across all four engines
# --------------------------------------------------------------------------- #


def test_every_engine_emits_run_span_and_counters():
    small = user_session_graph(12, sessions_per_user=1, seed=3)
    engines = {
        "naive": lambda: NaiveValidator(SCHEMA).validate(small),
        "indexed": lambda: IndexedValidator(
            SCHEMA, plan=compile_plan(SCHEMA)
        ).validate(small),
        "parallel": lambda: ParallelValidator(SCHEMA, jobs=1).validate(small),
        "incremental": lambda: IncrementalValidator(SCHEMA, small).report(),
    }
    for engine, run in engines.items():
        with obs.observed(trace=True, metrics=True) as observation:
            run()
        spans = [
            event
            for event in observation.tracer.drain()
            if isinstance(event, SpanEvent) and event.name == "validation.run"
        ]
        assert spans, f"{engine}: no validation.run span"
        assert spans[0].attrs.get("engine") == engine
        counters = observation.registry.snapshot()["counters"]
        assert counters.get("validation.runs") == 1, engine
        if engine != "incremental":
            assert counters.get("validation.checks.WS1") == small.num_nodes
            assert counters.get("validation.checks.DS1") == small.num_edges


def test_incremental_mutations_count_scope_rechecks():
    small = user_session_graph(8, sessions_per_user=1, seed=5)
    validator = IncrementalValidator(SCHEMA, small)
    with obs.observed(metrics=True) as observation:
        node = next(iter(small.nodes))
        validator.set_property(node, "login", "renamed")
        validator.report()  # mutations only mark scopes; the read rechecks
    counters = observation.registry.snapshot()["counters"]
    assert counters.get("validation.rechecks.node", 0) >= 1
    assert "validation.runs" not in counters  # O(delta), not a full run


def test_incremental_flush_rechecks_a_scope_once():
    small = user_session_graph(8, sessions_per_user=1, seed=5)
    validator = IncrementalValidator(SCHEMA, small)
    node = next(iter(small.nodes))
    with obs.observed(trace=True, metrics=True) as observation:
        validator.set_property(node, "login", "a")
        validator.set_property(node, "login", "b")
        validator.remove_property(node, "login")
        assert not validator.conforms  # DS5: login is @required
        validator.report()  # nothing dirty: no second pass
    counters = observation.registry.snapshot()["counters"]
    assert counters["validation.rechecks.node"] == 1
    assert counters.get("validation.rechecks.edge", 0) == 0
    flushes = [
        event
        for event in observation.tracer.drain()
        if isinstance(event, SpanEvent) and event.name == "incremental.flush"
    ]
    assert [event.attrs["nodes"] for event in flushes] == [1]
