"""Metrics registry: counters, gauges, histograms with bounded reservoirs.

One :class:`MetricsRegistry` holds every metric recorded during a run.  The
registry is the single vocabulary shared by all exported run artifacts:
``--metrics`` snapshots, ``--profile`` summaries, ``pgschema stats`` output
and the per-benchmark payloads written by ``collect_results.py`` all render
registries through :func:`repro.obs.export.metrics_payload`.

Metric names are dotted paths (``validation.checks.WS1``,
``sat.cache.hits``); there is no label dimension -- encode variants in the
name.  All three instrument kinds are thread-safe: a registry may be shared
by the service's request and batch threads.  Process workers record into a
private registry whose :meth:`~MetricsRegistry.snapshot` ships back with the
task result and is folded into the parent via
:meth:`~MetricsRegistry.merge_snapshot` at the merge barrier.

Histograms keep exact ``count``/``sum``/``min``/``max`` plus a *bounded
reservoir* of observed values for quantile estimates.  The reservoir is
deterministic (no ``random``): it fills to capacity, then decimates itself
to every second element and doubles its sampling stride, so memory stays
O(capacity) while the kept sample remains spread over the whole stream.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Iterator

__all__ = ["Histogram", "MetricsRegistry"]

_RESERVOIR_CAPACITY = 512


class Histogram:
    """A streaming histogram with a deterministic bounded reservoir.

    Not thread-safe on its own; the owning registry serialises access.
    """

    __slots__ = (
        "count",
        "total",
        "minimum",
        "maximum",
        "_reservoir",
        "_stride",
        "_capacity",
    )

    def __init__(self, capacity: int = _RESERVOIR_CAPACITY) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._reservoir: list[float] = []
        self._stride = 1
        self._capacity = capacity

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if (self.count - 1) % self._stride == 0:
            self._reservoir.append(value)
            if len(self._reservoir) > self._capacity:
                # Deterministic decimation: keep every second sample and
                # double the stride.  The kept points stay evenly spread
                # over the stream seen so far.
                self._reservoir = self._reservoir[::2]
                self._stride *= 2

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) from the reservoir."""
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_json(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def merge(self, other: dict) -> None:
        """Fold a snapshot produced by another histogram into this one.

        Exact moments (count/sum/min/max) combine exactly; the reservoir
        absorbs the other side's sample points, so quantiles stay estimates
        over both streams.
        """
        count = other.get("count", 0)
        if not count:
            return
        self.count += count
        self.total += other.get("sum", 0.0)
        self.minimum = min(self.minimum, other.get("min", self.minimum))
        self.maximum = max(self.maximum, other.get("max", self.maximum))
        for value in other.get("reservoir", ()):
            if (len(self._reservoir)) < self._capacity:
                self._reservoir.append(value)
            else:
                self._reservoir = self._reservoir[::2]
                self._stride *= 2
                self._reservoir.append(value)

    def snapshot(self) -> dict:
        """Like :meth:`to_json` but carries the reservoir for merging."""
        payload = self.to_json()
        payload["reservoir"] = list(self._reservoir)
        return payload


class MetricsRegistry:
    """Thread-safe home for every counter, gauge and histogram of a run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def timer(self, name: str) -> "_Timer":
        """Context manager observing elapsed seconds into histogram *name*."""
        return _Timer(self, name)

    def counter_value(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    # ------------------------------------------------------------------ #
    # snapshots and cross-process merging
    # ------------------------------------------------------------------ #

    def snapshot(self, *, reservoirs: bool = False) -> dict:
        """A plain-dict, picklable view of every metric.

        With ``reservoirs=True`` histogram entries carry their sample
        reservoirs so the snapshot can be merged into another registry
        (the process-worker shipping path); without, the snapshot is the
        export shape (quantiles only).
        """
        with self._lock:
            histograms = {
                name: (hist.snapshot() if reservoirs else hist.to_json())
                for name, hist in sorted(self._histograms.items())
            }
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": histograms,
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker snapshot (``reservoirs=True``) into this registry.

        Counters add, gauges last-write-wins, histograms merge moments and
        reservoirs.  Called at the shard/unit merge barrier with whatever
        the worker shipped alongside its result.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = value
            for name, payload in snapshot.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.merge(payload)

    def drain(self) -> dict:
        """Snapshot with reservoirs, then reset.  Used by process workers so
        each task ships only the metrics it recorded itself."""
        with self._lock:
            snapshot = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.snapshot() for name, hist in self._histograms.items()
                },
            }
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            return snapshot

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            names = sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )
        return iter(names)


class _Timer:
    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)
