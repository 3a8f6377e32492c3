"""Request batching, admission control and retries for ``pgschema serve``.

The service's hot path: many small concurrent validate requests against
the same schema version should share one drain sweep, one plan and one
retry boundary, not pay N separate dispatches.  :class:`BatchingValidator`
owns

* a **bounded admission queue** -- ``submit`` never blocks; a full queue
  raises :class:`~repro.errors.OverloadedError` (the HTTP layer's typed
  503), because shedding load with a typed refusal beats queueing into a
  deadline miss;
* a **drain loop** that dequeues greedily (up to ``max_batch`` requests
  per sweep) and *coalesces* requests sharing ``(schema record, mode)``
  into one batch, run inline in the drain thread;
* **per-request deadlines** through :class:`~repro.resilience.Budget`:
  queue wait counts against the deadline, and exhaustion -- in the queue
  or inside the kernel -- surfaces as a typed *partial* report
  (``complete=False`` with a structured interruption; HTTP 202), never a
  wrong answer;
* **retries on the shared ladder**: each batch runs on the serial rung of
  an :class:`~repro.resilience.ExecutorLadder`, one task per request, and
  the ladder fires the ``service.batch`` fault site (with the batch's
  tenant, schema and size) before every request attempt.  A retry
  reruns only the requests that failed; a request that fails every retry
  gets :class:`~repro.errors.WorkerFailureError` while the rest of its
  batch still gets its reports.  Graphs at or above the parallel
  validator's process threshold route through
  :class:`~repro.validation.parallel.ParallelValidator` with ``jobs``
  workers, whose process -> serial ladder is the only real parallelism
  here.  With no ``jobs`` (the ``pgschema serve`` default) that is one
  worker, so every request runs inline and no pool is ever made.

Each request is one shard: its :class:`~repro.pg.records.GraphRecords`
view (what ``/v1/validate`` decodes the graph document into, or
:meth:`~repro.pg.records.GraphRecords.from_graph` of a submitted
:class:`~repro.pg.model.PropertyGraph`) is both the graph the kernel reads
and its only shard.  Requests run inline, not on a thread pool: the kernel
is pure Python and holds the GIL, so a pool would add thread handoffs and
no parallelism, and shards of one request would only add a partition pass
and a wider merge.

Determinism contract: each request's report is produced by
``validate_shard`` + ``merge_shard_results`` over its records view -- the
identical kernel/merge path as the CLI's default engine -- so a batched
response is byte-identical to a single-shot ``pgschema validate`` run,
regardless of batch composition, job count, or how many retries it took.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from .. import obs
from ..errors import (
    BudgetExhaustedError,
    BudgetReason,
    OverloadedError,
    ServiceError,
    WorkerFailureError,
)
from ..pg.model import PropertyGraph
from ..pg.records import GraphRecords
from ..resilience import Budget
from ..resilience.ladder import ExecutorLadder, choose_rung
from ..validation.parallel import ParallelValidator, merge_shard_results, validate_shard
from ..validation.violations import ValidationReport, rules_for_mode
from .registry import SchemaRecord

__all__ = ["BatchingValidator"]

#: The fault-injection site every request attempt passes through.
BATCH_FAULT_SITE = "service.batch"


@dataclass
class _Request:
    """One queued validate call and the future its client awaits."""

    record: SchemaRecord
    graph: GraphRecords
    mode: str
    deadline: float | None
    future: "Future[ValidationReport]"
    enqueued_at: float = field(default_factory=time.monotonic)

    def budget(self) -> Budget | None:
        """A fresh budget for one execution attempt.

        The deadline is measured from *enqueue*, so time spent waiting in
        the admission queue counts against it -- backpressure surfaces as
        typed partial answers instead of silently late complete ones.
        Recomputed per attempt, a retry never inherits the consumption of
        a crashed attempt.
        """
        if self.deadline is None:
            return None
        remaining = self.deadline - (time.monotonic() - self.enqueued_at)
        if remaining <= 0:
            raise BudgetExhaustedError(
                BudgetReason(
                    "deadline",
                    self.deadline,
                    time.monotonic() - self.enqueued_at,
                    BATCH_FAULT_SITE,
                )
            )
        return Budget(deadline=remaining)


class BatchingValidator:
    """Coalesce concurrent validate requests into shared batches."""

    def __init__(
        self,
        *,
        jobs: int | None = None,
        max_queue: int = 256,
        max_batch: int = 32,
        deadline: float | None = None,
    ) -> None:
        """``deadline`` is the default per-request seconds (``submit`` may
        override per call); a failing request is retried
        :data:`~repro.resilience.ladder.MAX_RETRIES` times before it gets
        :class:`~repro.errors.WorkerFailureError`; ``jobs`` sizes the process
        pool of big-graph requests.  Left at None it is 1: every request is
        validated inline and no pool is made
        (:func:`~repro.resilience.ladder.choose_rung`)."""
        _rung, self.jobs = choose_rung(jobs)
        self.max_queue = max_queue
        self.max_batch = max(1, max_batch)
        self.deadline = deadline
        self._ladder = ExecutorLadder(jobs=1, site=BATCH_FAULT_SITE, log_key="request")
        #: the last batch's ladder log (one dict per failed request
        #: attempt), as ``ParallelValidator.recovery_log``, so chaos tests
        #: can assert a fault fired and was survived
        self.recovery_log = self._ladder.recovery_log
        self.requests = 0
        self.batches = 0
        self.rejected = 0
        self._queue: "queue.Queue[_Request | None]" = queue.Queue(maxsize=max_queue)
        self._lock = threading.Lock()
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain_loop, name="pgschema-drain", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        record: SchemaRecord,
        graph: PropertyGraph | GraphRecords,
        mode: str = "strong",
        deadline: float | None = None,
    ) -> "Future[ValidationReport]":
        """Enqueue one validate request; never blocks.

        A :class:`~repro.pg.model.PropertyGraph` is queued as its records
        view, which shares the graph's property maps: the graph must not
        change until the future resolves.

        Raises :class:`~repro.errors.OverloadedError` when the admission
        queue is full and :class:`~repro.errors.ServiceError` after
        :meth:`close` -- both typed refusals, never silent drops.
        """
        rules_for_mode(mode)  # reject unknown modes before queueing
        if not isinstance(graph, GraphRecords):
            graph = GraphRecords.from_graph(graph)
        with self._lock:
            if self._closed:
                raise ServiceError("service is shutting down; not accepting requests")
            request = _Request(
                record=record,
                graph=graph,
                mode=mode,
                deadline=deadline if deadline is not None else self.deadline,
                future=Future(),
            )
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self.rejected += 1
                obs.count("service.rejected")
                raise OverloadedError(
                    f"admission queue full ({self.max_queue} request(s) waiting)"
                ) from None
            self.requests += 1
        obs.count("service.requests")
        obs.gauge("service.queue_depth", self._queue.qsize())
        return request.future

    def close(self) -> None:
        """Graceful shutdown: stop admitting, drain every queued request.

        FIFO ordering makes the sentinel a barrier -- every request
        admitted before ``close`` is batched and answered before the drain
        thread exits.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join()

    # ------------------------------------------------------------------ #
    # the drain loop: dequeue greedily, coalesce, execute
    # ------------------------------------------------------------------ #

    def _drain_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    # sentinel reached mid-sweep: serve this batch, then exit
                    self._queue.put(None)
                    break
                batch.append(extra)
            obs.gauge("service.queue_depth", self._queue.qsize())
            groups: dict[tuple[int, str], list[_Request]] = {}
            for request in batch:
                groups.setdefault(
                    (id(request.record), request.mode), []
                ).append(request)
            for group in groups.values():
                self._run_group(group)

    def _run_group(self, group: list[_Request]) -> None:
        """One coalesced batch, run inline on the serial rung of an
        :class:`~repro.resilience.ExecutorLadder`: each request is one
        task, and a retry reruns only the requests that failed."""
        record = group[0].record
        rules = rules_for_mode(group[0].mode)
        self.batches += 1
        obs.count("service.batches")
        obs.observe("service.batch_size", len(group))
        started = time.monotonic()
        for request in group:
            obs.observe(
                "service.queue_wait_ms", (started - request.enqueued_at) * 1000.0
            )

        reports: list[ValidationReport | None] = [None] * len(group)
        failure: WorkerFailureError | None = None
        with obs.span(
            "service.batch",
            tenant=record.tenant,
            schema=record.name,
            version=record.version,
            requests=len(group),
        ):
            try:
                self._ladder.run(
                    "serial",
                    _validate_request,
                    (rules, self.jobs),
                    dict(enumerate(group)),
                    reports,
                    BATCH_FAULT_SITE,
                    tenant=record.tenant,
                    schema=record.name,
                    requests=len(group),
                )
            except WorkerFailureError as error:
                failure = error
        if self.recovery_log:
            obs.count("service.batch_failures", len(self.recovery_log))
        obs.observe("service.batch_seconds", time.monotonic() - started)
        now = time.monotonic()
        for request, report in zip(group, reports):
            obs.observe(
                "service.latency_ms", (now - request.enqueued_at) * 1000.0
            )
            if report is None:
                request.future.set_exception(failure)
            else:
                request.future.set_result(report)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, float]:
        """Queue/batch counters for the ``/v1/stats`` payload."""
        return {
            "queue_depth": float(self._queue.qsize()),
            "max_queue": float(self.max_queue),
            "max_batch": float(self.max_batch),
            "jobs": float(self.jobs),
            "requests": float(self.requests),
            "batches": float(self.batches),
            "rejected": float(self.rejected),
            "coalesce_ratio": (
                self.requests / self.batches if self.batches else 0.0
            ),
        }


def _validate_request(
    state: tuple[tuple[str, ...], int],
    request: _Request,
    attempt: int,
    rung: str,
) -> ValidationReport:
    """The ladder task of one request (*state* is the batch's rules and the
    job count of big-graph requests).

    One request is one shard: its records view is both the graph and its
    only shard, as in the parallel validator's one-shard path.  A deadline
    burned in the queue, or one that runs out in the kernel, yields a typed
    partial report."""
    rules, jobs = state
    plan = request.record.plan
    try:
        budget = request.budget()
        if budget is not None:
            budget.charge_nodes(len(request.graph), site=BATCH_FAULT_SITE)
        if len(request.graph) >= ParallelValidator.SMALL_GRAPH_THRESHOLD:
            # big single graph: the process-pool ladder can use more than
            # one core, with its own process -> serial recovery
            validator = ParallelValidator(
                request.record.schema, jobs=jobs, plan=plan, on_budget="unknown"
            )
            return validator.validate(request.graph, request.mode, budget)
        result = validate_shard(plan, request.graph, request.graph, rules, budget)
    except BudgetExhaustedError as stop:
        return merge_shard_results(plan, [], request.mode, rules, stop.reason)
    return merge_shard_results(plan, [result], request.mode, rules)
