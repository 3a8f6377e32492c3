"""Shared helpers for the benchmark: statistics, the in-memory span
recorder, child-process plumbing and the code-path stamp.

Everything here runs in the benchmark process; nothing in ``src/`` is
instrumented.  Layer timings are taken by timing calls into each module's
public functions from the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

#: Client threads/connections: the host's cores, capped at 4.
CLIENTS = max(1, min(os.cpu_count() or 1, 4))

#: Wall-clock limit for one program operation; a slower one counts as failed.
OP_TIMEOUT_S = 60.0

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


class Checkout:
    """Paths of the checkout the benchmark runs in (its current directory)."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.src = os.path.join(self.root, "src")
        self.out = os.path.join(self.root, ".perfbench-out")

    def has_program(self) -> bool:
        return os.path.isfile(os.path.join(self.src, "repro", "cli.py"))

    def env(self) -> dict[str, str]:
        """Environment for program subprocesses: the checkout's ``src`` on
        the path and no inherited fault-injection plan."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        env.pop("PGSCHEMA_FAULTS", None)
        return env

    @contextmanager
    def tempdir(self, prefix: str):
        """A temporary directory inside the checkout, removed on exit."""
        os.makedirs(self.out, exist_ok=True)
        path = tempfile.mkdtemp(prefix=prefix, dir=self.out)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supported_tail(count: int) -> float | None:
    """The highest of p99.9/p99/p95/p90 with at least ten samples beyond
    it, or None when the sample is too small for any of them."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return None


def peak_children_rss_mb() -> float:
    """Peak resident set of every reaped child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# tracing: spans kept in memory, written once when the run ends
# --------------------------------------------------------------------------- #


class Recorder:
    """In-memory span log for the traced run.

    A span is ``(id, parent, name, start, end, attrs)`` with times in
    seconds relative to the recorder's creation.  When ``enabled`` is false
    every method is a no-op, so the untraced run pays nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, parent: int | None = None, **attrs) -> int | None:
        if not self.enabled:
            return None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    **({"attrs": attrs} if attrs else {}),
                }
            )
        return span_id

    def add_children(self, parent: int | None, base: float, layers: list[dict]) -> None:
        """Attach spans reported by a replay child (offsets from its own
        start) below *parent*, placed at absolute time *base*."""
        if not self.enabled:
            return
        for layer in layers:
            self.add(
                layer["name"], base + layer["start"], base + layer["end"], parent
            )


class LayerTimer:
    """Times calls into the program's public functions, in order.

    Used inside replay children and the in-process serve replay: each
    ``with timer.layer(name):`` records one span relative to the timer's
    start, and ``totals`` sums them by name in milliseconds.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []

    @contextmanager
    def layer(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append(
                {"name": name, "start": start - self.origin, "end": end - self.origin}
            )

    def totals(self) -> dict[str, float]:
        return self.totals_of(self.spans)

    def medians(self) -> dict[str, float]:
        """Median milliseconds per call, by span name."""
        calls: dict[str, list[float]] = {}
        for span in self.spans:
            calls.setdefault(span["name"], []).append((span["end"] - span["start"]) * 1000.0)
        return {name: median(values) for name, values in calls.items()}

    @staticmethod
    def totals_of(spans: list[dict]) -> dict[str, float]:
        """Milliseconds per span name, summed."""
        sums: dict[str, float] = {}
        for span in spans:
            sums[span["name"]] = sums.get(span["name"], 0.0) + (
                span["end"] - span["start"]
            ) * 1000.0
        return sums


# --------------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------------- #


class OpResult:
    """One program operation as its caller saw it."""

    __slots__ = ("kind", "start", "end", "ok", "detail", "traced")

    def __init__(self, kind: str, start: float, end: float, ok: bool, detail: str = "") -> None:
        self.kind = kind
        self.start = start
        self.end = end
        self.ok = ok
        self.detail = detail
        #: measured in the traced half of a ``--trace 1`` window
        self.traced = False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class WorkloadResult:
    """Everything one workload run measured.

    ``e2e`` holds the gated end-to-end metrics the workload computes itself
    (``ops_per_s``, ``validate_ms``); ``setup_s`` and ``peak_rss_mb`` are
    added by the runner.  ``named`` holds the workload's own end-to-end
    metrics from the untraced window, ``traced_named`` the same from the
    traced half of a ``--trace 1`` window, and ``layers`` the per-layer
    metrics of the traced replay; each maps a name to ``(value, unit)``.
    """

    def __init__(self) -> None:
        self.ops: list[OpResult] = []
        self.setup_s: list[float] = []
        self.window_s = 0.0
        self.peak_rss_mb = 0.0
        self.e2e: dict[str, float] = {}
        self.named: dict[str, tuple[float, str]] = {}
        self.traced_named: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, int] = {}
        self.stamp: dict = {}
        #: the ``named`` metric whose traced-vs-untraced difference is
        #: reported as ``trace.overhead_pct``
        self.primary = ""

    def read_peak_rss(self) -> None:
        self.peak_rss_mb = peak_children_rss_mb()

    def untraced_ok(self, kind: str) -> list[float]:
        """Latencies (ms) of the kind's correct operations outside the
        traced half."""
        return [op.ms for op in self.ops if op.ok and not op.traced and op.kind == kind]

    def traced_ok(self, kind: str) -> list[float]:
        return [op.ms for op in self.ops if op.ok and op.traced and op.kind == kind]


def run_child(argv: list[str], env: dict[str, str], cwd: str | None = None, timeout: float = OP_TIMEOUT_S):
    """Run one subprocess to completion; returns ``(returncode, stdout,
    stderr, start, end)``.  A timeout kills and reaps the child and
    returns returncode None."""
    start = time.perf_counter()
    try:
        completed = subprocess.run(
            argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as expired:
        end = time.perf_counter()
        return None, expired.stdout or "", f"timeout after {timeout}s", start, end
    end = time.perf_counter()
    return completed.returncode, completed.stdout, completed.stderr, start, end


def run_json_child(script: str, args: list[str], checkout: Checkout, timeout: float = OP_TIMEOUT_S) -> dict:
    """Run one of the benchmark's replay scripts in a fresh interpreter and
    decode the JSON object it prints on its last stdout line."""
    argv = [sys.executable, os.path.join(os.path.dirname(__file__), script), *args]
    code, out, err, start, end = run_child(argv, checkout.env(), timeout=timeout)
    if code != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited {code}: {err.strip()[-500:]}")
    payload = json.loads(out.strip().splitlines()[-1])
    payload["_wall_s"] = end - start
    payload["_start"] = start
    return payload


def code_path_stamp() -> dict:
    """What the run measured: the environment fingerprint and core count.
    Workloads add the executors ``auto`` chose on their own inputs."""
    from repro.perf.store import environment_fingerprint
    from repro.validation.parallel import usable_cores

    return {"environment": environment_fingerprint(), "usable_cores": usable_cores()}
