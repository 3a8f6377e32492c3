"""The executor ladder: one fan-out contract with retries, backoff and fallback.

:class:`ExecutorLadder` runs every fan-out in the project -- sharded
validation, portfolio satisfiability, the service batcher -- on one
contract, and :func:`choose_rung` is the one policy that picks the rung
each starts on: no worker count means inline, and the process rung is
opt-in through an explicit ``jobs``.  :data:`MAX_RETRIES` and
:func:`backoff` are the one retry policy, CDC commits included.  An
engine supplies only what it knows:

* **the task** -- a module-level function ``task(state, payload, attempt,
  rung)``; module level, so the process rung pickles it by reference;
* **the data** -- the parent's ``state`` and a ``{index: payload}`` mapping,
  one payload per task;
* **the workers** -- a picklable ``(build, args)`` pair; ``build(*args)``
  makes the same state once per worker process (e.g. recompiling a
  validation plan whose closures cannot be pickled).  A run that starts on
  the process rung must pass one.

The ladder does everything else, identically for every engine:

* it fires the engine's fault site before every task attempt, with context
  ``{log_key: index, "attempt": ..., "executor": <rung>}`` plus the run's
  fixed extra keys (:func:`~repro.resilience.faults.fault_point`);
* it runs the batch on one rung (``serial`` inline, ``process`` on a
  ``ProcessPoolExecutor`` whose one initializer marks the worker, installs
  the parent's fault plan and observability config, then builds the
  state); there is no thread rung, because the tasks are pure-Python CPU
  work that the GIL would serialise.  On the process rung at most ``jobs``
  tasks are in flight, and each task's ``task_timeout`` clock starts when
  it is submitted, so a task queued behind busy workers is never taken for
  a stuck one;
* results land *positionally* in a caller-provided array -- process-worker
  results packaged with their spans and metrics (:func:`repro.obs.package`)
  are unwrapped as they are stored -- so merging stays deterministic no
  matter which rung finally produced each result;
* a task attempt can fail three ways -- the worker process dies
  (``BrokenExecutor``), the task raises, or the attempt exceeds
  ``task_timeout`` (a stuck worker, whose pool slot stays taken).  Failed
  tasks are retried after :func:`backoff`; once :data:`MAX_RETRIES`
  same-rung retries are spent, the *failing tasks* fall from the process
  rung to the serial rung while completed results are kept;
* a task that trips a :class:`~repro.resilience.Budget` re-raises
  :class:`~repro.errors.BudgetExhaustedError` in the caller -- that is an
  answer, not a crash -- and when even the serial rung fails the last cause
  is re-raised wrapped in :class:`~repro.errors.WorkerFailureError`;
* every failed attempt is recorded in :attr:`ExecutorLadder.recovery_log`
  (keys: the configured ``log_key``, ``executor``, ``attempt``, ``error``,
  ``site``, ``at``) so chaos tests can assert a fault actually fired and was
  survived.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, Mapping

from .. import obs
from ..errors import BudgetExhaustedError, WorkerFailureError
from . import faults

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future

    from .budget import Budget

__all__ = ["EXECUTORS", "MAX_RETRIES", "RETRY_BASE_DELAY", "ExecutorLadder", "backoff",
           "choose_rung", "usable_cores"]

#: Executor rungs a ladder run may start on; failing tasks fall from
#: ``process`` to ``serial``.
EXECUTORS = ("serial", "process")

#: Same-rung retries of a failing task or CDC commit before it falls to the
#: next rung or its failure propagates; the first sleeps RETRY_BASE_DELAY s.
MAX_RETRIES = 2
RETRY_BASE_DELAY = 0.05

#: ``task(state, payload, attempt, rung)`` -- one fan-out task.
Task = Callable[..., object]


def usable_cores() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def choose_rung(jobs: int | None, big_enough: bool = False) -> tuple[str, int]:
    """The rung and the width of one fan-out: the whole fan-out policy of
    every engine.  ``jobs=None`` is width 1.

    The process rung is chosen only when the caller asked for ``jobs > 1``,
    the host has more than one usable core, and *big_enough* -- the
    engine's one size test (validation: a graph of at least
    ``SMALL_GRAPH_THRESHOLD`` elements; satisfiability: at least ``jobs``
    open units) -- holds.  Everything else runs inline: on the measured
    hosts process start-up outweighed what the pool saved
    (docs/PERFORMANCE.md).  The rung changes only speed, never a report.
    """
    width = 1 if jobs is None else max(1, jobs)
    if width > 1 and big_enough and usable_cores() > 1:
        return "process", width
    return "serial", width


def backoff(attempt: int, budget: "Budget | None" = None) -> None:
    """Sleep before retry number *attempt* (1-based):
    ``RETRY_BASE_DELAY * 2**(attempt - 1)`` seconds, cut to what *budget*
    has left."""
    delay = RETRY_BASE_DELAY * (2 ** (attempt - 1))
    if budget is not None:
        remaining = budget.remaining_seconds()
        if remaining is not None:
            delay = min(delay, remaining)
    if delay > 0:
        time.sleep(delay)


class ExecutorLadder:
    """Retry/backoff/fallback scheduling of indexed tasks over executors.

    Args:
        jobs: Maximum tasks in flight (pool workers) on the process rung.
        task_timeout: Wall seconds one task attempt may take, counted from
            its submission, before it is treated as a stuck worker and
            recovered.
        site: Budget site string used for deadline checks between attempts.
        log_key: Name of the task-index key in ``recovery_log`` entries,
            fault contexts and failure messages (``"shard"`` for validation,
            ``"unit"`` for portfolio satisfiability); stuck-worker messages
            name the timeout ``<log_key>_timeout``.
    """

    def __init__(
        self,
        jobs: int,
        task_timeout: float | None = None,
        site: str = "resilience.ladder",
        log_key: str = "task",
    ) -> None:
        self.jobs = max(1, jobs)
        self.task_timeout = task_timeout
        self.site = site
        self.log_key = log_key
        #: recovery events of the last run: one dict per failed attempt.
        self.recovery_log: list[dict] = []

    # ------------------------------------------------------------------ #
    # the retry / fallback loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        mode: str,
        task: Task,
        state: object,
        payloads: Mapping[int, object],
        results: list,
        fault_site: str,
        worker: "tuple[Callable, tuple] | None" = None,
        budget=None,
        **context,
    ) -> None:
        """Fill ``results[index]`` for every index of *payloads*, starting on
        rung *mode*.

        Every attempt runs ``task(state, payloads[index], attempt, rung)``
        -- in a process worker with the state ``build(*args)`` made from
        *worker* -- after firing *fault_site* with the task's index, attempt
        and rung plus the fixed *context* keys.
        """
        if mode not in EXECUTORS:
            raise ValueError(f"unknown rung {mode!r}; expected one of {EXECUTORS}")
        if mode == "process" and worker is None:
            raise ValueError("the process rung needs a worker (build, args) pair")
        job = (task, state, payloads, (fault_site, self.log_key, context), worker)
        pending = list(payloads)
        attempt = 0
        retries_left = MAX_RETRIES
        self.recovery_log.clear()
        while pending:
            if budget is not None:
                budget.check_deadline(site=self.site)
            failures, unstarted = self._attempt_once(
                mode, job, pending, results, attempt, budget
            )
            if not failures:
                return
            for index, error in failures:
                # ``site``/``at`` let chaos tests (and exported traces)
                # reconstruct the observed fault → recovery sequence:
                # ``at`` is monotonic, comparable with span timestamps and
                # ordered across entries of one run
                entry = {
                    self.log_key: index,
                    "executor": mode,
                    "attempt": attempt,
                    "error": repr(error),
                    "site": self.site,
                    "at": time.monotonic(),
                }
                self.recovery_log.append(entry)
                obs.count("ladder.failures")
                obs.instant(
                    "ladder.recovery",
                    **{
                        "task": index,
                        "executor": mode,
                        "attempt": attempt,
                        "site": self.site,
                        "error": repr(error),
                    },
                )
            retry = {index for index, _error in failures}.union(unstarted)
            pending = [index for index in pending if index in retry]
            attempt += 1
            if retries_left > 0:
                retries_left -= 1
                obs.count("ladder.retries")
                backoff(attempt, budget)
            elif mode == "process":
                mode = "serial"
                retries_left = MAX_RETRIES
                obs.count("ladder.fallbacks")
            else:
                index, error = failures[0]
                raise WorkerFailureError(
                    f"{self.log_key} {index} failed after {attempt} attempt(s) "
                    f"(final executor {mode!r}): {error}",
                    shard=index,
                    attempts=attempt,
                ) from error

    # ------------------------------------------------------------------ #
    # one attempt on one rung
    # ------------------------------------------------------------------ #

    def _attempt_once(
        self, mode: str, job: tuple, pending: list[int], results: list, attempt: int, budget
    ) -> tuple[list[tuple[int, BaseException]], list[int]]:
        """One attempt at the pending tasks; returns the tasks that failed
        (with their causes) and those never started because every pool
        worker was stuck.  Budget exhaustion is not a failure -- it
        propagates."""
        task, state, payloads, fault, worker = job
        if mode == "serial":
            failures: list[tuple[int, BaseException]] = []
            for index in pending:
                if budget is not None:
                    budget.check_deadline(site=self.site)
                try:
                    results[index] = _run_task(
                        task, state, payloads[index], index, attempt, mode, fault
                    )
                except BudgetExhaustedError:
                    raise
                except Exception as error:
                    failures.append((index, error))
            return failures, []
        workers = min(self.jobs, len(pending))
        # imported here: a run that stays on the serial rung never loads it
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker_process,
            initargs=(faults.active_spec(), obs.worker_config(), worker),
        )

        def submit(index: int) -> "Future":
            # each worker builds its own state; the parent's is not pickled
            return pool.submit(
                _run_task, task, None, payloads[index], index, attempt, mode, fault
            )

        hard_shutdown = False
        try:
            failures, unstarted = self._collect(submit, workers, pending, results, budget)
            hard_shutdown = bool(failures)
            return failures, unstarted
        except BaseException:
            hard_shutdown = True
            raise
        finally:
            self._shutdown_pool(pool, hard_shutdown)

    def _collect(
        self,
        submit: "Callable[[int], Future]",
        workers: int,
        pending: list[int],
        results: list,
        budget,
    ) -> tuple[list[tuple[int, BaseException]], list[int]]:
        """Keep up to *workers* tasks in flight and harvest them into
        ``results``; classify what went wrong.

        A task that *tripped the budget* re-raises here (that is an answer,
        not a crash); a worker that died, raised, or exceeded
        ``task_timeout`` since its task was submitted marks the task failed
        for retry/fallback.  A stuck worker keeps its slot, so when every
        slot is stuck the tasks not yet submitted are returned unstarted.
        """
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        waiting = iter(pending)
        running: "dict[Future, tuple[int, float]]" = {}
        failures: list[tuple[int, BaseException]] = []
        free = workers
        while True:
            while free and (index := next(waiting, None)) is not None:
                try:
                    running[submit(index)] = (index, time.monotonic())
                    free -= 1
                except BrokenExecutor as error:  # a worker died: the pool is gone
                    obs.count("ladder.worker_crashes")
                    failures.append((index, error))
            if not running:
                break
            timeout = None
            if self.task_timeout is not None:
                first_started = min(started for _index, started in running.values())
                timeout = max(0.0, first_started + self.task_timeout - time.monotonic())
            if budget is not None:
                remaining = budget.remaining_seconds()
                if remaining is not None:
                    timeout = remaining if timeout is None else min(timeout, remaining)
            done, _ = wait(running, timeout=timeout, return_when=FIRST_COMPLETED)
            if not done and budget is not None:
                # raises when the run deadline (not the task ceiling) expired
                budget.check_deadline(site=self.site)
            for future in done:
                index, _started = running.pop(future)
                free += 1
                try:
                    results[index] = obs.unwrap(future.result())
                except BudgetExhaustedError:
                    raise
                except BrokenExecutor as error:
                    obs.count("ladder.worker_crashes")
                    failures.append((index, error))
                except Exception as error:
                    obs.count("ladder.worker_errors")
                    failures.append((index, error))
            if self.task_timeout is not None:
                now = time.monotonic()
                for future, (index, started) in list(running.items()):
                    if now - started < self.task_timeout:
                        continue
                    # the stuck worker keeps its slot: no ``free += 1``
                    del running[future]
                    future.cancel()
                    obs.count("ladder.stuck_workers")
                    failures.append(
                        (
                            index,
                            WorkerFailureError(
                                f"{self.log_key} {index} attempt exceeded "
                                f"{self.log_key}_timeout={self.task_timeout}s",
                                shard=index,
                            ),
                        )
                    )
        order = {index: position for position, index in enumerate(pending)}
        failures.sort(key=lambda failure: order[failure[0]])
        return failures, list(waiting)

    @staticmethod
    def _shutdown_pool(pool, hard: bool) -> None:
        if not hard:
            pool.shutdown(wait=True)
            return
        # a crashed/stuck attempt: do not wait for wedged workers, and
        # terminate any process still chewing on a cancelled task (listed
        # first: shutdown() drops the pool's map of its processes)
        processes = list(pool._processes.values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass


# --------------------------------------------------------------------------- #
# the task wrapper every rung runs, and the process-worker side
# --------------------------------------------------------------------------- #


def _run_task(task: Task, state, payload, index: int, attempt: int, rung: str, fault):
    """One task attempt on any rung: fire the fault site, run the task.  In a
    process worker the task gets the state the worker built, and its result
    ships back with the spans and metrics the worker recorded for it."""
    site, log_key, context = fault
    faults.fault_point(site, **{log_key: index}, attempt=attempt, executor=rung, **context)
    if rung != "process":
        return task(state, payload, attempt, rung)
    return obs.package(task(_worker_state, payload, attempt, rung))


#: The state ``build(*args)`` made in this worker process.
_worker_state: object = None


def _init_worker_process(
    fault_spec: str | None, obs_config: dict | None, worker: "tuple[Callable, tuple]"
) -> None:
    """Runs once per worker process.  Shipping the parent's fault spec
    explicitly keeps injection working under any multiprocessing start
    method, and marking the process as a worker arms ``mode=exit`` crash
    faults (a real ``os._exit``, never in the parent).  The parent's
    observability config rides along the same way: workers record into a
    private capture buffer (sharing the parent tracer's monotonic epoch)
    whose contents ship back with each task result."""
    global _worker_state
    faults.mark_worker_process()
    faults.install(fault_spec)
    obs.install_worker(obs_config)
    build, args = worker
    _worker_state = build(*args)
