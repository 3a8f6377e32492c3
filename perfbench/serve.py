"""Workload ``serve``: the same registry and kernel traffic, warm.

C keep-alive connections (C = cores, capped at 4) drive a ``pgschema
serve`` subprocess in a closed loop: each client waits for a verdict before
it sends its next request.  The seeded mix is ~97% ``POST /v1/validate``
of ``user_session_graph`` documents (8-600 users, all below the batched
thread path's 4096-element threshold), ~2% ``POST /v1/sat`` on a
registered hub-chain schema and ~1% ``POST /v1/schemas`` registering a new
version of a separate schema name, so reads keep their warm records.
Latency is timed from socket write to response read.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException

from common import (
    CLIENTS,
    OP_TIMEOUT_S,
    SETUP_REPEATS,
    LayerTimer,
    OpResult,
    Recorder,
    WorkloadResult,
    median,
    percentile,
    supported_tail,
)

TENANT = "bench"
VALIDATE_SCHEMA = "user_session_edge_props"
REGISTER_SCHEMA = "library"
POOL_SIZE = 24
MIN_USERS, MAX_USERS = 8, 600
NAIVE_MAX_USERS = 200  # naive reference up to here, indexed above
CORRUPT_EVERY = 4
INJECTED_RULES = ("WS1", "DS5", "SS1")
MIX = (("validate", 97), ("sat", 2), ("register", 1))  # per 100 requests
REPLAY_VALIDATES, REPLAY_SATS, REPLAY_REGISTERS = 200, 10, 10


class Inputs:
    """The seeded request bodies, pre-encoded so the clients only send."""

    def __init__(self, seed: int) -> None:
        from repro.pg.io import graph_to_dict
        from repro.schema import parse_schema
        from repro.workloads import corrupt_graph, user_session_graph
        from repro.workloads.paper_schemas import CORPUS

        from oneshot import hub_sdl

        self.schema_sdl = CORPUS[VALIDATE_SCHEMA].sdl
        self.hub_sdl = hub_sdl()
        self.register_sdl = CORPUS[REGISTER_SCHEMA].sdl
        schema = parse_schema(self.schema_sdl)
        rng = random.Random(seed)
        # one size per stratum of [MIN_USERS, MAX_USERS]: every seed gets
        # the same size distribution, so runs differ in content, not load
        span = (MAX_USERS - MIN_USERS) / POOL_SIZE
        sizes = [MIN_USERS + int(span * (i + rng.random())) for i in range(POOL_SIZE)]
        rng.shuffle(sizes)
        self.users: list[int] = []
        self.elements: list[int] = []
        self.validate_bodies: list[bytes] = []
        for index, users in enumerate(sizes):
            graph = user_session_graph(users, 2, seed=seed * 1000 + index)
            if index % CORRUPT_EVERY == 0:
                rule = INJECTED_RULES[(index // CORRUPT_EVERY) % len(INJECTED_RULES)]
                graph = corrupt_graph(graph, schema, rule, seed=seed + index) or graph
            self.users.append(users)
            self.elements.append(len(graph))
            self.validate_bodies.append(self._body(
                {"tenant": TENANT, "name": "us", "mode": "strong", "graph": graph_to_dict(graph)}
            ))
        self.sat_body = self._body({"tenant": TENANT, "name": "hub"})
        self.register_body = self._body(
            {"tenant": TENANT, "name": "catalog", "sdl": self.register_sdl}
        )

    @staticmethod
    def _body(payload: dict) -> bytes:
        return json.dumps(payload).encode("utf-8")


def references(inputs: Inputs) -> dict:
    """Expected validate response bodies (``engine="naive"`` up to 200
    users, ``"indexed"`` above) and sat verdicts (``engine="serial"``)."""
    from repro.pg import graph_from_dict
    from repro.satisfiability import SatisfiabilityChecker
    from repro.schema import parse_schema
    from repro.service.server import report_payload
    from repro.validation import validate

    schema = parse_schema(inputs.schema_sdl)
    bodies = []
    for users, body in zip(inputs.users, inputs.validate_bodies):
        graph = graph_from_dict(json.loads(body)["graph"])
        engine = "naive" if users <= NAIVE_MAX_USERS else "indexed"
        payload = report_payload(validate(schema, graph, engine=engine))
        # the service's merge path sorts violations canonically
        payload["violations"].sort(
            key=lambda v: (v["rule"], v["location"], v["elements"], v["detail"])
        )
        bodies.append(json.dumps(payload, sort_keys=True).encode("utf-8"))
    sat = SatisfiabilityChecker(parse_schema(inputs.hub_sdl, check=False))
    return {"validate": bodies, "sat": sat_verdicts(sat.check_schema(engine="serial").to_json())}


def sat_verdicts(report_json: dict) -> dict:
    return {
        "sound": report_json["sound"],
        "types": {name: entry["verdict"] for name, entry in report_json["types"].items()},
        "fields": report_json["fields"],
    }


class Daemon:
    """A ``pgschema serve`` subprocess with its own cwd and registry."""

    def __init__(self, checkout, directory: str) -> None:
        cwd = os.path.join(directory, "cwd")
        os.makedirs(cwd)
        self.stderr = open(os.path.join(directory, "serve.stderr"), "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--registry-dir", os.path.join(directory, "registry")],
            cwd=cwd, env=checkout.env(), stdout=subprocess.PIPE, stderr=self.stderr,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], OP_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"pgschema serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].split("/", 1)[0])

    def stop(self) -> int | None:
        """Graceful SIGINT drain; returns the exit code (None if it had to
        be killed)."""
        code = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.stderr.close()
        return code


def request(connection: HTTPConnection, method: str, path: str, body: bytes | None):
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def set_up(checkout, seed: int, directory: str) -> tuple[Inputs, Daemon]:
    """Input generation + daemon start + schema registration."""
    inputs = Inputs(seed)
    daemon = Daemon(checkout, directory)
    connection = HTTPConnection("127.0.0.1", daemon.port, timeout=OP_TIMEOUT_S)
    try:
        for name, sdl in (("us", inputs.schema_sdl), ("hub", inputs.hub_sdl)):
            body = json.dumps({"tenant": TENANT, "name": name, "sdl": sdl}).encode()
            status, _ = request(connection, "POST", "/v1/schemas", body)
            if status != 200:
                raise RuntimeError(f"registering {name} returned HTTP {status}")
    except BaseException:
        daemon.stop()
        raise
    finally:
        connection.close()
    return inputs, daemon


class Client(threading.Thread):
    """One closed-loop connection; never retries a failed request."""

    def __init__(self, index, port, inputs, refs, seed, deadline, traced_from, recorder):
        super().__init__(name=f"perfbench-client-{index}")
        self.port = port
        self.inputs = inputs
        self.refs = refs
        self.rng = random.Random(seed * 7919 + index)
        self.deadline = deadline
        self.traced_from = traced_from
        self.recorder = recorder
        self.ops: list[OpResult] = []
        self.versions: list[int] = []

    def schedule(self):
        """Requests in seeded order: each block of 100 holds the mix's
        exact counts, and validates cycle through the whole pool."""
        block = [kind for kind, count in MIX for _ in range(count)]
        picks: list[int] = []
        while True:
            self.rng.shuffle(block)
            for kind in block:
                if kind != "validate":
                    yield kind, 0
                    continue
                if not picks:
                    picks = list(range(POOL_SIZE))
                    self.rng.shuffle(picks)
                yield kind, picks.pop()

    def run(self) -> None:
        requests = self.schedule()
        connection = HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT_S)
        try:
            while time.perf_counter() < self.deadline:
                kind, pick = next(requests)
                body = {
                    "validate": self.inputs.validate_bodies[pick],
                    "sat": self.inputs.sat_body,
                    "register": self.inputs.register_body,
                }[kind]
                path = {"validate": "/v1/validate", "sat": "/v1/sat", "register": "/v1/schemas"}[kind]
                start = time.perf_counter()
                try:
                    status, payload = request(connection, "POST", path, body)
                except (OSError, HTTPException) as error:
                    end = time.perf_counter()
                    problem = f"{kind}: {type(error).__name__}: {error}"
                    connection.close()
                    connection = HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT_S)
                else:
                    end = time.perf_counter()
                    try:
                        problem = self.check(kind, pick, status, payload)
                    except (ValueError, KeyError, TypeError) as error:
                        problem = f"{kind}: malformed response: {error}"
                op = OpResult(kind, start, end, not problem, problem)
                op.traced = start >= self.traced_from
                self.ops.append(op)
                if op.traced:
                    self.recorder.add(f"serve.{kind}", start, end, client=self.name, ok=op.ok)
        finally:
            connection.close()

    def check(self, kind: str, pick: int, status: int, payload: bytes) -> str:
        if status != 200:
            return f"{kind}: HTTP {status}: {payload[:200]!r}"
        if kind == "validate":
            if payload != self.refs["validate"][pick]:
                return f"validate: response for graph {pick} differs from the reference"
            return ""
        decoded = json.loads(payload)
        if kind == "sat":
            if sat_verdicts(decoded["report"]) != self.refs["sat"]:
                return "sat: verdicts differ from the serial reference"
            return ""
        if decoded.get("name") != "catalog" or not isinstance(decoded.get("version"), int):
            return f"register: unexpected response {decoded!r}"
        self.versions.append(decoded["version"])
        return ""


NAMED_UNITS = {
    "serve.validate_p50_ms": "ms",
    "serve.validate_p99_ms": "ms",
    "serve.throughput_rps": "1/s",
    "serve.sat_p50_ms": "ms",
    "serve.register_p50_ms": "ms",
}


def named_metrics(ops: list[OpResult], window_s: float) -> dict:
    validates = [op.ms for op in ops if op.ok and op.kind == "validate"]
    tail = supported_tail(len(validates)) or 50.0
    values = {
        "serve.validate_p50_ms": median(validates),
        "serve.validate_p99_ms": percentile(validates, min(99.0, tail)),
        "serve.throughput_rps": sum(op.ok for op in ops) / window_s if window_s else 0.0,
        "serve.sat_p50_ms": median(op.ms for op in ops if op.ok and op.kind == "sat"),
        "serve.register_p50_ms": median(op.ms for op in ops if op.ok and op.kind == "register"),
    }
    return {name: (value, NAMED_UNITS[name]) for name, value in values.items()}


def run(checkout, seed: int, seconds: float, trace: bool, recorder: Recorder) -> WorkloadResult:
    from repro.errors import ReproError

    result = WorkloadResult()
    result.primary = "serve.validate_p50_ms"
    with checkout.tempdir("serve-") as work:
        daemon = None
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            started = time.perf_counter()
            inputs, daemon = set_up(checkout, seed, os.path.join(work, f"setup{attempt}"))
            result.setup_s.append(time.perf_counter() - started)
        try:
            refs = references(inputs)
            window_start = time.perf_counter()
            deadline = window_start + seconds
            traced_from = window_start + seconds / 2 if trace else deadline
            clients = [
                Client(index, daemon.port, inputs, refs, seed, deadline, traced_from, recorder)
                for index in range(CLIENTS)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            window_end = max([op.end for c in clients for op in c.ops] or [deadline])
            result.window_s = window_end - window_start
            try:
                stats = stats_snapshot(daemon.port)
            except (OSError, HTTPException, ValueError) as error:
                stats = None
                result.ops.append(OpResult("stats", 0.0, 0.0, False, f"/v1/stats: {error}"))
        finally:
            exit_code = daemon.stop()
        result.read_peak_rss()

        for client in clients:
            result.ops.extend(client.ops)
        result.ops.sort(key=lambda op: op.start)
        versions = sorted(v for client in clients for v in client.versions)
        if versions != list(range(1, len(versions) + 1)):
            result.ops.append(OpResult("register", 0.0, 0.0, False, f"register: versions {versions} are not 1..n"))
        result.ops.append(OpResult("shutdown", 0.0, 0.0, exit_code == 0, f"serve exited {exit_code}"))

        untraced = [op for op in result.ops if not op.traced and op.kind in dict(MIX)]
        traced = [op for op in result.ops if op.traced]
        half = seconds / 2 if trace else result.window_s
        result.named = named_metrics(untraced, half)
        result.traced_named = named_metrics(traced, result.window_s - half) if trace else {}
        result.e2e["validate_ms"] = result.named["serve.validate_p50_ms"][0]
        result.e2e["ops_per_s"] = sum(op.ok for op in untraced) / half
        result.samples = {kind: sum(1 for op in untraced if op.ok and op.kind == kind) for kind, _ in MIX}
        result.stamp["validation_executor"] = batch_path(inputs)
        try:
            if trace:
                result.layers = {**service_layers(stats), **replay(inputs, refs, work, recorder)}
                result.stamp["sat_executor"] = result.layers.pop("_sat_executor")
            else:
                result.stamp["sat_executor"] = sat_executor(inputs)
        except (ReproError, RuntimeError) as error:
            result.ops.append(OpResult("replay", 0.0, 0.0, False, f"replay: {error}"))
    return result


def stats_snapshot(port: int) -> dict:
    connection = HTTPConnection("127.0.0.1", port, timeout=OP_TIMEOUT_S)
    try:
        status, payload = request(connection, "GET", "/v1/stats", None)
    finally:
        connection.close()
    if status != 200:
        raise ValueError(f"HTTP {status}")
    return json.loads(payload)


def service_layers(stats: dict | None) -> dict:
    """Per-layer numbers from the live daemon's ``/v1/stats``."""
    if stats is None:
        return {}
    histograms = stats["histograms"]
    counters = stats["counters"]
    latency_p50 = histograms.get("service.latency_ms", {}).get("p50", 0.0)
    batch_p50_ms = histograms.get("service.batch_seconds", {}).get("p50", 0.0) * 1000.0
    batching = stats["service"]["batching"]
    return {
        "service.queue_wait_ms": (latency_p50 - batch_p50_ms, "ms"),
        "service.coalesce_ratio": (batching["coalesce_ratio"], "ratio"),
        "service.batch_size_mean": (histograms.get("service.batch_size", {}).get("mean", 0.0), "count"),
        "service.rejected": (batching["rejected"], "count"),
        "service.batch_failures": (counters.get("service.batch_failures", 0), "count"),
        "service.internal_errors": (counters.get("service.internal_errors", 0), "count"),
    }


def batch_path(inputs: Inputs) -> str:
    """How the batcher serves the pool: below the threshold every graph
    takes the shared thread pool, at or above it ``ParallelValidator``."""
    from repro.validation import ParallelValidator

    if max(inputs.elements) < ParallelValidator.SMALL_GRAPH_THRESHOLD:
        return "batch-thread"
    return "batch-thread+parallel"


def sat_executor(inputs: Inputs) -> str:
    """The executor ``check_schema`` picks for the ``/v1/sat`` sweep."""
    from repro.satisfiability import SatisfiabilityChecker
    from repro.schema import parse_schema

    checker = SatisfiabilityChecker(parse_schema(inputs.hub_sdl, check=False))
    checker.check_schema(find_witnesses=False)
    return (checker.last_profile or {}).get("executor", "none")


def replay(inputs: Inputs, refs: dict, work: str, recorder: Recorder) -> dict:
    """The request mix again, in-process through the public calls the
    daemon makes, each layer timed from here."""
    from repro.pg import graph_from_dict
    from repro.satisfiability import SatisfiabilityChecker
    from repro.service import BatchingValidator, SchemaRegistry
    from repro.service.server import report_payload
    from repro.validation.parallel import usable_cores

    timer = LayerTimer()
    registry = SchemaRegistry(os.path.join(work, "replay-registry"))
    record = registry.register(TENANT, "us", inputs.schema_sdl)
    hub = registry.register(TENANT, "hub", inputs.hub_sdl)
    batcher = BatchingValidator(jobs=usable_cores())
    try:
        for index in range(REPLAY_VALIDATES):
            pick = index % POOL_SIZE
            with timer.layer("service.decode"):
                document = json.loads(inputs.validate_bodies[pick])
                graph = graph_from_dict(document["graph"])
            with timer.layer("service.batch"):
                report = batcher.submit(record, graph).result()
            with timer.layer("service.encode"):
                body = json.dumps(report_payload(report), sort_keys=True).encode("utf-8")
            if body != refs["validate"][pick]:
                raise RuntimeError(f"replayed validate of graph {pick} differs from the reference")
    finally:
        batcher.close()
    checker = None
    for _ in range(REPLAY_SATS):
        checker = SatisfiabilityChecker(hub.schema, cache=hub.sat_cache)
        with timer.layer("satisfiability.warm_sweep"):
            checker.check_schema(find_witnesses=False)
    for _ in range(REPLAY_REGISTERS):
        with timer.layer("registry.register"):
            registry.register(TENANT, "catalog", inputs.register_sdl)
    recorder.add_children(recorder.add("replay.serve", timer.origin, time.perf_counter()), timer.origin, timer.spans)
    lookups = hub.sat_cache.hits + hub.sat_cache.misses
    layers = {f"{name}_ms": (value, "ms") for name, value in timer.medians().items()}
    layers["satisfiability.cache_hit_ratio"] = (hub.sat_cache.hits / lookups if lookups else 0.0, "ratio")
    layers["_sat_executor"] = (checker.last_profile or {}).get("executor", "none")
    return layers
