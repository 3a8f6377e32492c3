"""Unified observability: span tracing + metrics with a zero-cost off switch.

The layer has three pieces:

* :class:`repro.obs.metrics.MetricsRegistry` -- counters, gauges and
  bounded-reservoir histograms; one shared vocabulary for ``--metrics``
  snapshots, ``--profile`` summaries, ``pgschema stats`` and benchmark
  artifacts.
* :class:`repro.obs.trace.Tracer` -- nested spans on the monotonic clock,
  exported as Chrome trace events (``--trace``, open in Perfetto).
* this module -- the *runtime*: one process-global :class:`Observation`
  (a tracer and/or registry) that instrumented code consults through the
  helpers below.

Hot-path contract (mirrors :mod:`repro.resilience.faults`): when nothing is
installed the instrumentation helpers cost one module-global load and a
``None`` check -- no allocation, no locks, no branches beyond the check.
``bench_e12`` asserts the disabled path is indistinguishable from noise, so
every engine can stay instrumented unconditionally.

Process workers: the parent ships :func:`worker_config` through the pool
initializer (next to the fault spec); workers call :func:`install_worker`
to get a private capture observation, wrap each task's spans/metrics with
:func:`package`, and the parent folds them back with :func:`unwrap` at the
merge barrier -- before the deterministic report merge, which therefore
stays byte-identical with tracing on or off.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from .. import _lazy_exports

if TYPE_CHECKING:
    from .metrics import Histogram, MetricsRegistry
    from .trace import SpanEvent, TracedResult, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "SpanEvent",
    "TracedResult",
    "Tracer",
    "active",
    "count",
    "gauge",
    "install",
    "install_worker",
    "instant",
    "observe",
    "observed",
    "package",
    "span",
    "uninstall",
    "unwrap",
    "worker_config",
]

# Exported name -> the submodule that defines it (PEP 562): with observation
# off neither sink loads.  Keep in step with the TYPE_CHECKING imports above.
_EXPORTS = {
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "SpanEvent": "trace",
    "TracedResult": "trace",
    "Tracer": "trace",
}

__getattr__ = _lazy_exports(globals(), _EXPORTS)


class Observation:
    """The installed pair of sinks; either side may be None."""

    __slots__ = ("tracer", "registry")

    def __init__(
        self, tracer: Tracer | None = None, registry: MetricsRegistry | None = None
    ) -> None:
        self.tracer = tracer
        self.registry = registry


# The one global consulted by every instrumented hot path.  None == off.
_active: Observation | None = None


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #


def install(
    tracer: Tracer | None = None, registry: MetricsRegistry | None = None
) -> Observation:
    """Turn instrumentation on for this process until :func:`uninstall`."""
    global _active
    _active = Observation(tracer, registry)
    return _active


def uninstall() -> None:
    global _active
    _active = None


def active() -> Observation | None:
    return _active


@contextmanager
def observed(
    *, trace: bool = False, metrics: bool = False
) -> Iterator[Observation]:
    """Scoped install: ``with obs.observed(trace=True) as ob: ...``."""
    from .metrics import MetricsRegistry
    from .trace import Tracer

    observation = install(
        Tracer() if trace else None, MetricsRegistry() if metrics else None
    )
    try:
        yield observation
    finally:
        uninstall()


# --------------------------------------------------------------------------- #
# recording helpers (the instrumented-code API)
# --------------------------------------------------------------------------- #


def span(name: str, **attrs: Any):
    """A span on the active tracer, or a shared no-op guard when off."""
    observation = _active
    if observation is None or observation.tracer is None:
        return _NULL_SPAN
    return observation.tracer.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """An instant (zero-duration) trace event, when tracing is on."""
    observation = _active
    if observation is not None and observation.tracer is not None:
        observation.tracer.instant(name, **attrs)


def count(name: str, value: float = 1) -> None:
    observation = _active
    if observation is not None and observation.registry is not None:
        observation.registry.count(name, value)


def gauge(name: str, value: float) -> None:
    observation = _active
    if observation is not None and observation.registry is not None:
        observation.registry.gauge(name, value)


def observe(name: str, value: float) -> None:
    observation = _active
    if observation is not None and observation.registry is not None:
        observation.registry.observe(name, value)


# --------------------------------------------------------------------------- #
# process-worker plumbing
# --------------------------------------------------------------------------- #


def worker_config() -> dict | None:
    """What a pool initializer should ship to workers (None == obs off)."""
    observation = _active
    if observation is None:
        return None
    return {
        "epoch": observation.tracer.epoch if observation.tracer else None,
        "trace": observation.tracer is not None,
        "metrics": observation.registry is not None,
    }


def install_worker(config: dict | None) -> None:
    """Install a capture observation inside a pool worker process."""
    if config is None:
        uninstall()
        return
    from .metrics import MetricsRegistry
    from .trace import Tracer

    install(
        Tracer(epoch=config["epoch"]) if config.get("trace") else None,
        MetricsRegistry() if config.get("metrics") else None,
    )


def package(payload: Any) -> Any:
    """Wrap a worker task result with the spans/metrics recorded for it.

    Inside an observed worker this drains the capture buffers (so the next
    task on the same worker ships only its own events) and returns a
    :class:`TracedResult`; with observation off it returns *payload*
    untouched, keeping the disabled path allocation-free.
    """
    observation = _active
    if observation is None:
        return payload
    from .trace import TracedResult

    return TracedResult(
        payload=payload,
        events=observation.tracer.drain() if observation.tracer else [],
        metrics=observation.registry.drain() if observation.registry else None,
    )


def unwrap(result: Any) -> Any:
    """Undo :func:`package` at the merge barrier.

    Absorbs any shipped spans into the active tracer and merges the worker
    metrics snapshot into the active registry, then returns the bare
    payload.  Safe on bare results and on ``None`` slots (budget-partial
    runs), so merge loops can call it unconditionally.  Without
    :mod:`repro.obs.trace` loaded (unpickling loads it) there is none.
    """
    trace = sys.modules.get(__name__ + ".trace")
    if trace is None or type(result) is not trace.TracedResult:
        return result
    observation = _active
    if observation is not None:
        if observation.tracer is not None and result.events:
            observation.tracer.absorb(result.events)
        if observation.registry is not None and result.metrics:
            observation.registry.merge_snapshot(result.metrics)
    return result.payload
