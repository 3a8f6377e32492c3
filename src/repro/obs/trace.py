"""Span tracer: nested spans with monotonic timing and worker merging.

Spans record wall-time intervals on the ``time.monotonic()`` clock.  Like
:class:`repro.resilience.Budget` deadlines, monotonic timestamps are
comparable across the processes of one host, so spans recorded inside
process-pool workers land on the same timeline as the parent's spans: the
tracer's ``epoch`` (captured at construction) is shipped to workers through
the pool initializer, workers record absolute monotonic times, and the
parent simply absorbs their events at the merge barrier -- no clock
re-basing.

Nesting is positional, exactly as Chrome's trace viewer infers it: two
spans on the same ``(pid, tid)`` lane nest when one's interval contains the
other's.  The tracer therefore needs no explicit parent pointers; the
``with tracer.span(...)`` discipline guarantees containment per thread.

Everything here is picklable where it needs to be: :class:`SpanEvent` and
:class:`TracedResult` cross process boundaries alongside shard/unit
results.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from ..record import Record

__all__ = ["SpanEvent", "TracedResult", "Tracer"]


class SpanEvent(Record):
    """One finished span (or instant event, when ``duration`` is None)."""

    name: str
    start: float  # time.monotonic() at entry
    duration: float | None  # seconds; None marks an instant event
    pid: int
    tid: int
    attrs: dict[str, Any] = {}


class TracedResult(Record, frozen=False):
    """A worker task result with the spans/metrics recorded while computing it.

    Process workers return these instead of bare results when observability
    is enabled; the parent unwraps them at the merge barrier (absorbing the
    events into its tracer and the metrics snapshot into its registry)
    *before* the deterministic report merge, so reports stay byte-identical
    with and without tracing.
    """

    payload: Any
    events: list[SpanEvent]
    metrics: dict | None


class Tracer:
    """Thread-safe buffer of finished spans for one observed run."""

    def __init__(self, epoch: float | None = None) -> None:
        self.epoch = time.monotonic() if epoch is None else epoch
        self._lock = threading.Lock()
        self._events: list[SpanEvent] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def span(self, name: str, **attrs: Any) -> "_SpanHandle":
        """Context manager recording a complete span on exit."""
        return _SpanHandle(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker (Chrome 'instant' event)."""
        self._record(
            SpanEvent(
                name=name,
                start=time.monotonic(),
                duration=None,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=attrs,
            )
        )

    def _record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------ #
    # worker merging and export
    # ------------------------------------------------------------------ #

    def absorb(self, events: list[SpanEvent]) -> None:
        """Merge spans shipped back from a worker onto this timeline."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def drain(self) -> list[SpanEvent]:
        """Return and clear the buffered events (worker shipping path)."""
        with self._lock:
            events = self._events
            self._events = []
        return events

    def events(self) -> list[SpanEvent]:
        """All finished events, ordered by start time."""
        with self._lock:
            return sorted(self._events, key=lambda event: event.start)


class _SpanHandle:
    """The ``with tracer.span(...)`` guard.

    Mutable attrs: code inside the span may annotate outcomes via
    :meth:`set` (e.g. a verdict decided mid-span) before the span closes.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs: Any) -> None:
        self._attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        end = time.monotonic()
        if exc_type is not None:
            self._attrs.setdefault("error", getattr(exc_type, "__name__", "error"))
        self._tracer._record(
            SpanEvent(
                name=self._name,
                start=self._start,
                duration=end - self._start,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self._attrs,
            )
        )
