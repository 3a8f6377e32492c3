"""The schema-registry service: registry, batching, HTTP lifecycle, chaos.

The contract under test (ISSUE 9's acceptance criteria):

* batched concurrent requests return reports **byte-identical** to the
  single-shot ``validate()`` path, across jobs/batch sizes and after any
  ladder fallback;
* saturated queues and expired deadlines yield **typed** refusals/partials
  (``E_OVERLOAD`` 503, ``complete: false`` 202) -- never wrong answers;
* tenants are isolated: records pin their own plans and sat caches, and
  lookups are tenant-scoped;
* the registry survives a restart (atomic persistence + reload);
* graceful shutdown drains every admitted request;
* a ``crash@service.batch`` fault is survived by the ladder's retries, and
  a request that fails every retry fails alone, not with its batch;
* a schema version is published only once its file is durable;
* ``/v1/validate`` decodes the graph document into a ``GraphRecords`` view
  that validates like its ``PropertyGraph`` and refuses a malformed
  document with the status, code and message ``graph_from_dict`` gives.
"""

import copy
import json
import logging
import socket
import threading
import time

import pytest

from repro import obs
from repro.errors import GraphError, OverloadedError, ServiceError, WorkerFailureError
from repro.pg import graph_from_dict, graph_to_dict
from repro.pg.io import records_from_dict
from repro.resilience import faults
from repro.satisfiability import sat_cache_clear
from repro.schema import parse_schema
from repro.service import (
    BatchingValidator,
    SchemaRegistry,
    ServiceClient,
    ServiceThread,
    report_payload,
)
from repro.validation import ParallelValidator, plan_cache_clear, validate
from repro.workloads import CORPUS, corrupt_graph, user_session_graph

SDL = CORPUS["user_session_edge_props"].sdl
SCHEMA = parse_schema(SDL)

#: The rules corrupt_graph can inject into a user_session_edge_props graph.
CORRUPTIBLE = ("SS1", "WS1", "SS2", "SS4", "WS3", "WS4", "DS5", "DS6", "DS7")


def canonical(report) -> str:
    return json.dumps(report_payload(report), sort_keys=True)


def naive_canonical(graph) -> str:
    """The naive engine's report in the service's canonical violation order
    (the batcher's merge sorts violations; the naive engine does not)."""
    payload = report_payload(validate(SCHEMA, graph, engine="naive"))
    payload["violations"].sort(
        key=lambda v: (v["rule"], v["location"], v["elements"], v["detail"])
    )
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def registry():
    return SchemaRegistry()


@pytest.fixture
def record(registry):
    return registry.register("acme", "users", SDL)


@pytest.fixture
def graph():
    return user_session_graph(40, 4, seed=0)


@pytest.fixture
def expected(graph):
    """The single-shot CLI-path report, canonically serialized."""
    return canonical(validate(parse_schema(SDL), graph, mode="strong"))


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_versions_are_sequential_per_name(self, registry):
        first = registry.register("t", "s", SDL)
        second = registry.register("t", "s", SDL)
        assert (first.version, second.version) == (1, 2)
        assert registry.get("t", "s").version == 2
        assert registry.get("t", "s", 1) is first

    def test_tenant_scoping(self, registry):
        registry.register("alpha", "users", SDL)
        assert registry.list("beta") == []
        with pytest.raises(ServiceError, match="unknown schema"):
            registry.get("beta", "users")
        # same name under another tenant starts its own version line
        assert registry.register("beta", "users", SDL).version == 1

    def test_records_pin_private_caches(self, registry):
        a = registry.register("alpha", "users", SDL)
        b = registry.register("beta", "users", SDL)
        assert a.plan is not b.plan
        assert a.sat_cache is not b.sat_cache
        assert a.sat_cache.schema is a.schema

    def test_records_take_their_state_from_the_schema_memo(self, registry):
        from repro.satisfiability import sat_cache_for
        from repro.validation import compile_plan

        record = registry.register("alpha", "users", SDL)
        assert record.plan is compile_plan(record.schema)
        assert record.sat_cache is sat_cache_for(record.schema)

    def test_invalid_tokens_rejected(self, registry):
        for bad in ("", "../etc", "a/b", ".hidden", "x" * 70):
            with pytest.raises(ServiceError, match="invalid"):
                registry.register(bad, "s", SDL)
            with pytest.raises(ServiceError, match="invalid"):
                registry.register("t", bad, SDL)

    def test_bad_sdl_burns_no_version(self, registry):
        registry.register("t", "s", SDL)
        with pytest.raises(Exception):
            registry.register("t", "s", "type {{{{")
        assert registry.register("t", "s", SDL).version == 2

    def test_persistence_roundtrip(self, tmp_path):
        root = str(tmp_path / "reg")
        first = SchemaRegistry(root)
        first.register("acme", "users", SDL)
        first.register("acme", "users", SDL)
        first.register("beta", "other", SDL)
        reloaded = SchemaRegistry(root)
        assert len(reloaded) == 3
        assert reloaded.list("acme") == [{"name": "users", "versions": [1, 2]}]
        assert reloaded.get("acme", "users").version == 2
        # reloaded records come back warm: plan compiled, cache pinned
        assert reloaded.get("beta", "other").plan is not None

    def test_crashed_write_leftovers_skipped(self, tmp_path):
        root = str(tmp_path / "reg")
        registry = SchemaRegistry(root)
        registry.register("acme", "users", SDL)
        # a torn write never reaches the .graphql name, only the .tmp
        leftover = tmp_path / "reg" / "acme" / "users" / "2.graphql.tmp"
        leftover.write_text("type Broken {{{{")
        reloaded = SchemaRegistry(root)
        assert len(reloaded) == 1

    def test_failed_persist_publishes_no_version(self, tmp_path):
        """A version is published only once durable: a write that dies
        before its rename leaves nothing to serve and no number to reuse."""
        root = str(tmp_path / "reg")
        registry = SchemaRegistry(root)
        registry.register("acme", "users", SDL)
        faults.install("crash@registry.persist:phase=rename")
        try:
            with pytest.raises(faults.InjectedCrashError):
                registry.register("acme", "users", SDL)
        finally:
            faults.uninstall()
        assert registry.list("acme") == [{"name": "users", "versions": [1]}]
        assert registry.get("acme", "users").version == 1
        assert SchemaRegistry(root).list("acme") == registry.list("acme")
        assert registry.register("acme", "users", SDL).version == 2

    def test_registry_path_is_a_file(self, tmp_path):
        path = tmp_path / "occupied"
        path.write_text("not a directory")
        with pytest.raises(ServiceError, match="registry"):
            SchemaRegistry(str(path))


# --------------------------------------------------------------------------- #
# batching: determinism, coalescing, backpressure, chaos
# --------------------------------------------------------------------------- #


class TestBatching:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("max_batch", [1, 8])
    def test_batched_reports_byte_identical(
        self, record, graph, expected, jobs, max_batch
    ):
        batcher = BatchingValidator(jobs=jobs, max_batch=max_batch)
        try:
            futures = [batcher.submit(record, graph) for _ in range(12)]
            for future in futures:
                assert canonical(future.result(timeout=60)) == expected
        finally:
            batcher.close()

    def test_violations_survive_batching_byte_identical(self, record):
        graph = user_session_graph(10, 2, seed=1)
        graph.add_node("ghost", "Phantom")
        graph.set_property("ghost", "name", 42)
        expected = canonical(validate(parse_schema(SDL), graph, mode="strong"))
        batcher = BatchingValidator(jobs=3)
        try:
            futures = [batcher.submit(record, graph) for _ in range(6)]
            for future in futures:
                report = future.result(timeout=60)
                assert report.violations
                assert canonical(report) == expected
        finally:
            batcher.close()

    def test_coalescing_merges_concurrent_requests(self, record, graph, expected):
        """Requests admitted while a batch is in flight coalesce into the
        next sweep: a delay fault pins the first batch, the backlog must
        then be served in fewer batches than requests."""
        faults.install("delay@service.batch:seconds=0.3,times=1")
        try:
            batcher = BatchingValidator(jobs=2, max_batch=32)
            try:
                futures = [batcher.submit(record, graph) for _ in range(10)]
                for future in futures:
                    assert canonical(future.result(timeout=60)) == expected
                assert batcher.batches < batcher.requests
                stats = batcher.stats()
                assert stats["coalesce_ratio"] > 1.0
            finally:
                batcher.close()
        finally:
            faults.uninstall()

    def test_queue_saturation_is_typed_overload(self, record, graph, expected):
        """Past the admission bound, submits raise E_OVERLOAD -- and every
        admitted request is still answered correctly."""
        faults.install("delay@service.batch:seconds=0.2")
        try:
            batcher = BatchingValidator(jobs=1, max_queue=2, max_batch=1)
            try:
                admitted = []
                with pytest.raises(OverloadedError) as overload:
                    for _ in range(8):
                        admitted.append(batcher.submit(record, graph))
                assert overload.value.code == "E_OVERLOAD"
                assert len(admitted) <= 4  # one in flight + two queued + slack
                for future in admitted:
                    assert canonical(future.result(timeout=60)) == expected
            finally:
                batcher.close()
        finally:
            faults.uninstall()

    def test_expired_deadline_is_typed_partial(self, record, graph):
        batcher = BatchingValidator(jobs=2)
        try:
            report = batcher.submit(record, graph, deadline=1e-9).result(timeout=60)
        finally:
            batcher.close()
        assert report.complete is False
        assert report.verdict == "unknown"
        assert report.interruption is not None
        assert report.interruption.dimension == "deadline"

    def test_crash_fault_survived_by_retry(self, record, graph, expected):
        """A crash on the first batch attempt is retried and recovered;
        the eventual report is still byte-identical."""
        faults.install("crash@service.batch:attempt=0")
        try:
            batcher = BatchingValidator(jobs=2)
            try:
                report = batcher.submit(record, graph).result(timeout=60)
            finally:
                batcher.close()
        finally:
            faults.uninstall()
        assert canonical(report) == expected
        assert batcher.recovery_log
        assert batcher.recovery_log[0]["site"] == "service.batch"

    def test_persistent_crash_falls_back_to_serial(self, record, graph, expected):
        """Crashes on the first two attempts spend both retries; the third
        attempt on the serial rung still produces the identical report."""
        faults.install("crash@service.batch:times=2")
        try:
            batcher = BatchingValidator(jobs=2)
            try:
                report = batcher.submit(record, graph).result(timeout=60)
            finally:
                batcher.close()
        finally:
            faults.uninstall()
        assert canonical(report) == expected
        assert [entry["attempt"] for entry in batcher.recovery_log] == [0, 1]
        assert {entry["executor"] for entry in batcher.recovery_log} == {"serial"}

    def test_failing_request_does_not_fail_its_batch(self, record, graph, expected):
        """A delay fault pins the first batch so a backlog of three requests
        coalesces; only the request that crashes on every attempt fails,
        and its batch-mates still get their reports."""
        faults.install(
            "delay@service.batch:seconds=0.3,times=1;crash@service.batch:request=1"
        )
        try:
            batcher = BatchingValidator(jobs=2, max_batch=32)
            try:
                first = batcher.submit(record, graph)
                while batcher.batches == 0:  # the first batch is in flight
                    time.sleep(0.005)
                backlog = [batcher.submit(record, graph) for _ in range(3)]
                assert canonical(first.result(timeout=60)) == expected
                assert canonical(backlog[0].result(timeout=60)) == expected
                with pytest.raises(WorkerFailureError):
                    backlog[1].result(timeout=60)
                assert canonical(backlog[2].result(timeout=60)) == expected
            finally:
                batcher.close()
        finally:
            faults.uninstall()
        assert batcher.batches == 2
        assert {entry["request"] for entry in batcher.recovery_log} == {1}

    def test_total_failure_is_worker_failure_error(self, record, graph, monkeypatch):
        import repro.resilience.ladder as ladder_module

        monkeypatch.setattr(ladder_module, "MAX_RETRIES", 0)
        faults.install("crash@service.batch")
        try:
            batcher = BatchingValidator(jobs=2)
            try:
                future = batcher.submit(record, graph)
                with pytest.raises(WorkerFailureError):
                    future.result(timeout=60)
            finally:
                batcher.close()
        finally:
            faults.uninstall()

    def test_graceful_close_drains_admitted_requests(self, record, graph, expected):
        faults.install("delay@service.batch:seconds=0.1,times=2")
        try:
            batcher = BatchingValidator(jobs=2, max_batch=2)
            futures = [batcher.submit(record, graph) for _ in range(6)]
            batcher.close()  # returns only after the queue is drained
        finally:
            faults.uninstall()
        for future in futures:
            assert future.done()
            assert canonical(future.result()) == expected
        with pytest.raises(ServiceError, match="shutting down"):
            batcher.submit(record, graph)

    def test_queue_wait_is_recorded_per_request(self, record, graph, expected):
        """A delay fault holds the first batch; the backlog admitted behind
        it waits in the queue, and ``service.queue_wait_ms`` shows it."""
        faults.install("delay@service.batch:seconds=0.3,times=1")
        observation = obs.install(None, obs.MetricsRegistry())
        try:
            batcher = BatchingValidator(jobs=2, max_batch=32)
            try:
                futures = [batcher.submit(record, graph)]
                while batcher.batches == 0:  # the first batch is in flight
                    time.sleep(0.005)
                futures += [batcher.submit(record, graph) for _ in range(9)]
                for future in futures:
                    assert canonical(future.result(timeout=60)) == expected
            finally:
                batcher.close()
            histograms = observation.registry.snapshot()["histograms"]
        finally:
            obs.uninstall()
            faults.uninstall()
        waits = histograms["service.queue_wait_ms"]
        assert waits["count"] == 10
        assert waits["p50"] > 0


def _parity_graphs() -> list:
    """A clean graph, then one copy per rule corrupt_graph can inject."""
    base = user_session_graph(12, 2, seed=7)
    graphs = [base]
    for index, rule in enumerate(CORRUPTIBLE):
        corrupted = corrupt_graph(base, SCHEMA, rule, seed=index)
        assert corrupted is not None, rule
        graphs.append(corrupted)
    return graphs


@pytest.fixture(scope="module")
def large_graph():
    """A graph above the batcher's ParallelValidator threshold, with one
    DS5 violation, and its naive-engine report."""
    graph = corrupt_graph(user_session_graph(830, 2, seed=5), SCHEMA, "DS5", seed=1)
    assert len(graph) >= ParallelValidator.SMALL_GRAPH_THRESHOLD
    return graph, naive_canonical(graph)


class TestBatchingInputs:
    """``submit`` takes a PropertyGraph or a GraphRecords view; either way
    each request is one shard and its report matches the naive oracle."""

    @pytest.mark.parametrize("as_records", [False, True], ids=["graph", "records"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("max_batch", [1, 8])
    def test_inputs_byte_identical_to_naive(self, record, as_records, jobs, max_batch):
        graphs = _parity_graphs()
        expected = [naive_canonical(g) for g in graphs]
        assert len(set(expected)) == len(expected)  # every corruption shows
        inputs = [
            records_from_dict(graph_to_dict(g)) if as_records else g for g in graphs
        ]
        batcher = BatchingValidator(jobs=jobs, max_batch=max_batch)
        try:
            futures = [batcher.submit(record, graph) for graph in inputs]
            reports = [canonical(future.result(timeout=60)) for future in futures]
        finally:
            batcher.close()
        assert reports == expected

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_large_records_view_byte_identical_to_naive(
        self, record, large_graph, jobs
    ):
        graph, expected = large_graph
        view = records_from_dict(graph_to_dict(graph))
        batcher = BatchingValidator(jobs=jobs)
        try:
            report = batcher.submit(record, view).result(timeout=120)
        finally:
            batcher.close()
        assert canonical(report) == expected

    def test_process_rung_pickles_records_view(self, large_graph, process_rung):
        graph, expected = large_graph
        view = records_from_dict(graph_to_dict(graph))
        validator = ParallelValidator(SCHEMA, jobs=2)
        assert validator.choose_executor(view) == "process"
        assert canonical(validator.validate(view)) == expected


# --------------------------------------------------------------------------- #
# HTTP lifecycle
# --------------------------------------------------------------------------- #


#: Malformed graph documents: the error code graph_from_dict raises for
#: each, which ``/v1/validate`` must return with the same message.
MALFORMED = {
    "duplicate id": ("E_GRAPH", {
        "nodes": [{"id": "u", "label": "User"}, {"id": "u", "label": "User"}],
    }),
    "dangling source": ("E_GRAPH", {
        "nodes": [{"id": "u", "label": "User"}],
        "edges": [{"id": "e", "source": "x", "target": "u", "label": "user"}],
    }),
    "dangling target": ("E_GRAPH", {
        "nodes": [{"id": "u", "label": "User"}],
        "edges": [{"id": "e", "source": "u", "target": "x", "label": "user"}],
    }),
    "non-string label": ("E_GRAPH", {"nodes": [{"id": "u", "label": 7}]}),
    "non-object element": ("E_LOAD", {"nodes": [["u", "User"]]}),
    "non-object properties": ("E_LOAD", {
        "nodes": [{"id": "u", "label": "User", "properties": ["login"]}],
    }),
    "unhashable id": ("E_LOAD", {"nodes": [{"id": ["u"], "label": "User"}]}),
}


@pytest.fixture
def service(tmp_path):
    thread = ServiceThread(registry_dir=str(tmp_path / "reg"), port=0)
    host, port = thread.start()
    client = ServiceClient(host, port)
    yield client, thread
    client.close()
    thread.stop()


class TestHttpService:
    def test_register_validate_roundtrip(self, service, graph, expected):
        client, _thread = service
        status, body = client.register("acme", "users", SDL)
        assert status == 200 and body["version"] == 1
        status, report = client.validate("acme", "users", graph)
        assert status == 200
        assert json.dumps(report, sort_keys=True) == expected

    def test_concurrent_http_clients_byte_identical(self, service, graph, expected):
        client, thread = service
        client.register("acme", "users", SDL)
        host, port = thread.service.address
        outcomes: list[tuple[int, str]] = []
        lock = threading.Lock()

        def worker() -> None:
            with ServiceClient(host, port) as mine:
                for _ in range(3):
                    status, report = mine.validate("acme", "users", graph)
                    with lock:
                        outcomes.append(
                            (status, json.dumps(report, sort_keys=True))
                        )

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == 18
        assert all(status == 200 for status, _ in outcomes)
        assert {payload for _, payload in outcomes} == {expected}

    def test_deadline_partial_is_202(self, service, graph):
        client, _thread = service
        client.register("acme", "users", SDL)
        status, report = client.validate("acme", "users", graph, deadline=1e-9)
        assert status == 202
        assert report["complete"] is False
        assert report["verdict"] == "unknown"
        assert report["interruption"]["dimension"] == "deadline"

    def test_tenant_isolation_over_http(self, service, graph):
        client, _thread = service
        client.register("acme", "users", SDL)
        status, body = client.validate("evil", "users", graph)
        assert status == 404
        assert body["error"]["code"] == "E_SERVICE"
        status, listing = client.list_schemas("evil")
        assert status == 200 and listing["schemas"] == []

    def test_typed_input_errors(self, service):
        client, _thread = service
        status, body = client.register("acme", "broken", "type {{{{")
        assert status == 400 and body["error"]["code"] == "E_SYNTAX"
        status, body = client.request("POST", "/v1/validate", {"tenant": "t"})
        assert status == 400 and body["error"]["code"] == "E_SERVICE"
        status, body = client.request("GET", "/v1/nope")
        assert status == 405 and body["error"]["code"] == "E_SERVICE"

    def test_default_service_never_forks(
        self, service, large_graph, monkeypatch, process_rung
    ):
        """With no ``jobs`` the daemon runs ``/v1/sat`` on a schema with
        open units, and ``/v1/validate`` of a graph above the process
        threshold, inline -- on any core count -- with inline bodies."""
        import concurrent.futures

        from repro.satisfiability import SatisfiabilityChecker

        def no_pool(*_args, **_kwargs):
            raise AssertionError("the default service started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        client, _thread = service
        diagram_b = CORPUS["diagram_b"].sdl
        assert client.register("acme", "diagram_b", diagram_b)[0] == 200
        status, sat = client.sat("acme", "diagram_b")
        assert status == 200
        inline = SatisfiabilityChecker(parse_schema(diagram_b), cache=False)
        assert sat["report"] == inline.check_schema(jobs=1).to_json()
        assert inline.last_profile["wins"].get("tableau", 0) > 0  # open units

        graph, _naive = large_graph
        client.register("acme", "users", SDL)
        status, report = client.validate("acme", "users", graph)
        assert status == 200
        assert json.dumps(report, sort_keys=True) == canonical(validate(SCHEMA, graph))

    def test_lint_sat_stats_endpoints(self, service, graph):
        client, _thread = service
        client.register("acme", "users", SDL)
        status, lint = client.lint("acme", "users")
        assert status == 200 and isinstance(lint["findings"], list)
        status, sat = client.sat("acme", "users")
        assert status == 200 and sat["report"]["sound"] is True
        client.validate("acme", "users", graph)
        status, stats = client.stats()
        assert status == 200
        assert stats["format"] == "pgschema-metrics"
        batching = stats["service"]["batching"]
        assert batching["requests"] >= 1
        tenants = stats["service"]["tenants"]
        assert tenants["acme"]["warm_plan_hits"] >= 1
        assert "service.coalesce_ratio" in stats["gauges"]
        for histogram in ("service.latency_ms", "service.batch_seconds",
                          "service.queue_wait_ms"):
            assert stats["histograms"][histogram]["count"] >= 1

    def test_stats_cache_gauges_count_the_registry_caches(self, service, graph):
        """The process-wide cache gauges include the caches the daemon's
        own registry records hold."""
        plan_cache_clear()
        sat_cache_clear()
        client, _thread = service
        client.register("acme", "users", SDL)
        for _ in range(3):
            assert client.sat("acme", "users")[0] == 200
            assert client.validate("acme", "users", graph)[0] == 200
        status, stats = client.stats()
        assert status == 200
        gauges = stats["gauges"]
        assert gauges["sat.cache_info.hits"] >= 1
        assert gauges["sat.cache_info.schemas"] >= 1
        assert gauges["validation.plan_cache_info.size"] >= 1

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_graph_errors_match_graph_from_dict(self, service, name):
        code, document = MALFORMED[name]
        with pytest.raises(GraphError) as raised:
            graph_from_dict(copy.deepcopy(document))
        assert raised.value.code == code
        client, _thread = service
        client.register("acme", "users", SDL)
        status, body = client.validate("acme", "users", document)
        assert status == 400
        assert body["error"] == {"code": code, "message": str(raised.value)}

    def test_lone_surrogate_ids_round_trip(self, service):
        # JSON escapes a lone surrogate both ways: the response names the id
        document = graph_to_dict(user_session_graph(3, 1, seed=2))
        document["nodes"].append({"id": "u\ud800", "label": "User", "properties": {}})
        expected = naive_canonical(graph_from_dict(copy.deepcopy(document)))
        client, _thread = service
        client.register("acme", "users", SDL)
        status, report = client.validate("acme", "users", document)
        assert status == 200
        assert json.dumps(report, sort_keys=True) == expected
        assert any("u\ud800" in v["elements"] for v in report["violations"])

    def test_list_valued_properties_validate_like_graph_from_dict(self, service):
        document = graph_to_dict(user_session_graph(6, 2, seed=2))
        document["nodes"][0]["properties"]["tags"] = ["a", "b"]
        document["edges"][0]["properties"]["trail"] = [1, 2, 3]
        expected = naive_canonical(graph_from_dict(copy.deepcopy(document)))
        client, _thread = service
        client.register("acme", "users", SDL)
        status, report = client.validate("acme", "users", document)
        assert status == 200
        assert json.dumps(report, sort_keys=True) == expected

    def test_restart_reloads_registry(self, tmp_path, graph, expected):
        root = str(tmp_path / "persist")
        first = ServiceThread(registry_dir=root, port=0)
        host, port = first.start()
        with ServiceClient(host, port) as client:
            client.register("acme", "users", SDL)
            client.register("acme", "users", SDL)
        first.stop()
        second = ServiceThread(registry_dir=root, port=0)
        host, port = second.start()
        try:
            with ServiceClient(host, port) as client:
                status, listing = client.list_schemas("acme")
                assert listing["schemas"] == [{"name": "users", "versions": [1, 2]}]
                status, report = client.validate("acme", "users", graph, version=1)
                assert status == 200
                assert json.dumps(report, sort_keys=True) == expected
        finally:
            second.stop()

    def test_graceful_shutdown_answers_in_flight(self, tmp_path, graph, expected):
        """Requests submitted just before shutdown are drained, not dropped."""
        faults.install("delay@service.batch:seconds=0.1,times=1")
        try:
            thread = ServiceThread(port=0)
            host, port = thread.start()
            results: list[tuple[int, str]] = []

            def slow_call() -> None:
                with ServiceClient(host, port) as mine:
                    mine.register("acme", "users", SDL)
                    status, report = mine.validate("acme", "users", graph)
                    results.append((status, json.dumps(report, sort_keys=True)))

            caller = threading.Thread(target=slow_call)
            caller.start()
            time.sleep(0.05)  # let the request reach the delayed batch
            thread.stop()
            caller.join(timeout=30)
        finally:
            faults.uninstall()
        assert results == [(200, expected)]

    def test_stop_ends_idle_keep_alive_connections_quietly(self, caplog):
        """Stopping while a keep-alive client sits idle logs nothing: the
        handler parked in its read ends at EOF instead of being cancelled."""
        thread = ServiceThread(port=0)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            assert client.healthz()[0] == 200
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                thread.stop()
        finally:
            client.close()
        assert [record.getMessage() for record in caplog.records] == []

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_typed_400(self, caplog, length):
        thread = ServiceThread(port=0)
        host, port = thread.start()
        reply = b""
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                with socket.create_connection((host, port), timeout=10) as sock:
                    sock.sendall(
                        f"POST /v1/lint HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                        .encode("latin-1")
                    )
                    while chunk := sock.recv(4096):
                        reply += chunk
        finally:
            thread.stop()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert json.loads(body)["error"] == {
            "code": "E_SERVICE",
            "message": "malformed Content-Length",
        }
        assert [record.getMessage() for record in caplog.records] == []

    def test_port_collision_raises_service_error(self, service):
        _client, thread = service
        host, port = thread.service.address
        clash = ServiceThread(host=host, port=port)
        with pytest.raises(ServiceError, match="cannot bind"):
            clash.start()
