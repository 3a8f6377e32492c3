"""Request batching, admission control and fallback for ``pgschema serve``.

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
  into one batch, running each request as one task on a shared thread
  pool before gathering the batch;
* **per-request deadlines** through the PR 3 Budget machinery: queue wait
  counts against the deadline, and exhaustion -- in the queue or inside
  the kernel -- surfaces as a typed *partial* report (``complete=False``
  with a structured interruption; HTTP 202), never a wrong answer;
* a **fallback ladder**: batches retry with backoff at the
  ``service.batch`` fault site, then fall back to serial in-thread
  execution; graphs at or above the parallel validator's process
  threshold route through :class:`~repro.validation.parallel.ParallelValidator`,
  which carries the full process -> thread -> serial recovery ladder.

Each request is one shard: its :class:`~repro.pg.records.GraphRecords`
view (what ``/v1/validate`` decodes the graph document into, or
:meth:`~repro.pg.records.GraphRecords.from_graph` of a submitted
:class:`~repro.pg.model.PropertyGraph`) is both the graph the kernel reads
and its only shard.  The pool runs requests, not shards: the kernel is
pure Python and holds the GIL, so shards of one request would not run in
parallel; they would only add a partition pass and a wider merge.

Determinism contract: each request's report is produced by
``validate_shard`` + ``merge_shard_results`` over its records view -- the
identical kernel/merge path as the CLI's default engine -- so a batched
response is byte-identical to a single-shot ``pgschema validate`` run,
regardless of batch composition, job count, or which ladder rung finally
served it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
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
from ..resilience import Budget, faults
from ..validation.parallel import (
    ParallelValidator,
    ShardResult,
    merge_shard_results,
    usable_cores,
    validate_shard,
)
from ..validation.plan import ValidationPlan
from ..validation.violations import ValidationReport, rules_for_mode
from .registry import SchemaRecord

__all__ = ["BatchingValidator"]

#: The fault-injection site every batch attempt passes through.
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
        max_retries: int = 2,
        retry_base_delay: float = 0.05,
    ) -> None:
        """``deadline`` is the default per-request seconds (``submit`` may
        override per call); ``max_retries`` bounds same-rung batch retries
        before the serial fallback."""
        self.jobs = max(1, jobs) if jobs is not None else usable_cores()
        self.max_queue = max_queue
        self.max_batch = max(1, max_batch)
        self.deadline = deadline
        self.max_retries = max(0, max_retries)
        self.retry_base_delay = retry_base_delay
        #: recovery events (one dict per failed batch attempt), mirroring
        #: ``ParallelValidator.recovery_log`` so chaos tests can assert a
        #: fault fired and was survived
        self.recovery_log: list[dict[str, object]] = []
        self.requests = 0
        self.batches = 0
        self.rejected = 0
        self._queue: "queue.Queue[_Request | None]" = queue.Queue(maxsize=max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="pgschema-batch"
        )
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
        self._pool.shutdown(wait=True)

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
        """One coalesced batch: retries, then the serial fallback rung."""
        record = group[0].record
        self.batches += 1
        obs.count("service.batches")
        obs.observe("service.batch_size", len(group))
        started = time.monotonic()
        for request in group:
            obs.observe(
                "service.queue_wait_ms", (started - request.enqueued_at) * 1000.0
            )
        with obs.span(
            "service.batch",
            tenant=record.tenant,
            schema=record.name,
            version=record.version,
            requests=len(group),
        ):
            attempt = 0
            while True:
                try:
                    faults.fault_point(
                        BATCH_FAULT_SITE,
                        tenant=record.tenant,
                        schema=record.name,
                        requests=len(group),
                        attempt=attempt,
                        executor="thread",
                    )
                    reports = self._execute_group(group, serial=False)
                    break
                except Exception as error:  # noqa: BLE001 - ladder boundary
                    self._record_failure(record, attempt, "thread", error)
                    attempt += 1
                    if attempt > self.max_retries:
                        reports = self._serial_fallback(group, record, attempt)
                        break
                    time.sleep(self.retry_base_delay * (2 ** (attempt - 1)))
        obs.observe("service.batch_seconds", time.monotonic() - started)
        now = time.monotonic()
        for request in group:
            obs.observe(
                "service.latency_ms", (now - request.enqueued_at) * 1000.0
            )
            result = reports.get(id(request))
            if result is None:
                continue  # fallback already set the failure on the future
            request.future.set_result(result)

    def _serial_fallback(
        self, group: list[_Request], record: SchemaRecord, attempt: int
    ) -> dict[int, ValidationReport]:
        """The last rung: run each request inline in the drain thread."""
        try:
            faults.fault_point(
                BATCH_FAULT_SITE,
                tenant=record.tenant,
                schema=record.name,
                requests=len(group),
                attempt=attempt,
                executor="serial",
            )
            return self._execute_group(group, serial=True)
        except Exception as error:  # noqa: BLE001 - ladder boundary
            self._record_failure(record, attempt, "serial", error)
            failure = WorkerFailureError(
                f"batch failed after {attempt} retry attempt(s) and the "
                f"serial fallback: {error}",
                attempts=attempt + 1,
            )
            for request in group:
                request.future.set_exception(failure)
            return {}

    def _record_failure(
        self, record: SchemaRecord, attempt: int, executor: str, error: Exception
    ) -> None:
        self.recovery_log.append(
            {
                "site": BATCH_FAULT_SITE,
                "tenant": record.tenant,
                "schema": record.name,
                "attempt": attempt,
                "executor": executor,
                "error": repr(error),
            }
        )
        obs.count("service.batch_failures")

    # ------------------------------------------------------------------ #
    # execution: one pooled task per request, per-request merge
    # ------------------------------------------------------------------ #

    def _execute_group(
        self, group: list[_Request], serial: bool
    ) -> dict[int, ValidationReport]:
        """Run every request of one coalesced batch; nothing is published
        to client futures until the whole batch succeeded, so a crashed
        attempt can be retried without clients observing duplicates."""
        record = group[0].record
        rules = rules_for_mode(group[0].mode)
        reports: dict[int, ValidationReport] = {}
        pooled: list[tuple[_Request, "Future[ValidationReport]"]] = []
        for request in group:
            try:
                budget = request.budget()
                if budget is not None:
                    budget.charge_nodes(len(request.graph), site=BATCH_FAULT_SITE)
            except BudgetExhaustedError as stop:
                # deadline burned in the queue (or the graph alone exceeds
                # max_nodes): typed partial report, no kernel run
                reports[id(request)] = merge_shard_results(
                    record.plan, [], request.mode, rules, stop.reason
                )
                continue
            if serial:
                reports[id(request)] = _validate_request(
                    record.plan, request, rules, budget
                )
            elif len(request.graph) >= ParallelValidator.SMALL_GRAPH_THRESHOLD:
                # big single graph: the process-pool ladder can use more
                # than one core; ParallelValidator embeds the full
                # process -> thread -> serial recovery contract
                validator = ParallelValidator(
                    record.schema,
                    jobs=self.jobs,
                    plan=record.plan,
                    on_budget="unknown",
                )
                reports[id(request)] = validator.validate(
                    request.graph, request.mode, budget
                )
            else:
                # one task per request, not per shard: the GIL serialises
                # the kernel's threads, so shards would only add a partition
                # pass and a wider merge to every request
                pooled.append((
                    request,
                    self._pool.submit(
                        _validate_request, record.plan, request, rules, budget
                    ),
                ))
        for request, future in pooled:
            reports[id(request)] = future.result()
        return reports

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
    plan: ValidationPlan,
    request: _Request,
    rules: tuple[str, ...],
    budget: Budget | None,
) -> ValidationReport:
    """One request as one shard: its records view is both the graph and its
    only shard, as in the parallel validator's one-shard path.  A budget
    that runs out inside the kernel yields a typed partial report."""
    results: list[ShardResult | None] = [None]
    interruption: BudgetReason | None = None
    try:
        results[0] = validate_shard(plan, request.graph, request.graph, rules, budget)
    except BudgetExhaustedError as stop:
        interruption = stop.reason
    return merge_shard_results(plan, results, request.mode, rules, interruption)
