"""The executor ladder: retries, backoff, and executor fallback for task fans.

:class:`ExecutorLadder` is the worker-recovery machinery PR 3 built into
:class:`~repro.validation.parallel.ParallelValidator`, extracted so every
fan-out engine (sharded validation, portfolio satisfiability) shares one
implementation of the recovery contract:

* a batch of indexed tasks is attempted on one executor rung (``serial``,
  ``thread`` or ``process``); results land *positionally* in a
  caller-provided array, so merging stays deterministic no matter which
  rung finally produced each result;
* a task attempt can fail three ways -- the worker process dies
  (``BrokenExecutor``), the worker raises, or the attempt exceeds
  ``task_timeout`` (a stuck worker).  Failed tasks are retried with
  exponential backoff (``retry_base_delay * 2**attempt``); once
  ``max_retries`` same-rung retries are spent, the *failing tasks* fall
  down the ladder process → thread → serial while completed results are
  kept;
* a worker that trips a :class:`~repro.resilience.Budget` re-raises
  :class:`~repro.errors.BudgetExhaustedError` in the caller -- that is an
  answer, not a crash -- and when even the serial rung fails the last cause
  is re-raised wrapped in :class:`~repro.errors.WorkerFailureError`;
* every failed attempt is recorded in :attr:`ExecutorLadder.recovery_log`
  (keys: the configured ``log_key``, ``executor``, ``attempt``, ``error``)
  so chaos tests can assert a fault actually fired and was survived.

The ladder owns scheduling only; *what* a task does on each rung is
supplied per :meth:`run` call as callables, keeping the worker plumbing
(fault-injection sites, pool initializers, pickling strategy) with the
engine that knows its own data.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, Sequence

from .. import obs
from ..errors import BudgetExhaustedError, WorkerFailureError

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future, ThreadPoolExecutor

__all__ = ["EXECUTORS", "FALLBACK", "ExecutorLadder", "usable_cores"]

#: Executor rungs a ladder run may start on.
EXECUTORS = ("serial", "thread", "process")

#: The fallback ladder for failing tasks.
FALLBACK = {"process": "thread", "thread": "serial"}


def usable_cores() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class ExecutorLadder:
    """Retry/backoff/fallback scheduling of indexed tasks over executors.

    Args:
        jobs: Maximum pool workers for the thread/process rungs.
        max_retries: Same-rung retries per ladder rung before falling back.
        retry_base_delay: Base of the exponential backoff sleep.
        task_timeout: Wall seconds one task attempt may take before it is
            treated as a stuck worker and recovered.
        fallback: When False, exhausted retries raise instead of falling
            down the ladder.
        site: Budget site string used for deadline checks between attempts.
        log_key: Name of the task-index key in ``recovery_log`` entries and
            failure messages (``"shard"`` for validation, ``"unit"`` for
            portfolio satisfiability).
        timeout_label: Name of the timeout knob in stuck-worker messages
            (kept configurable so existing logs stay grep-stable).
    """

    def __init__(
        self,
        jobs: int,
        max_retries: int = 2,
        retry_base_delay: float = 0.05,
        task_timeout: float | None = None,
        fallback: bool = True,
        site: str = "resilience.ladder",
        log_key: str = "task",
        timeout_label: str = "task_timeout",
    ) -> None:
        self.jobs = max(1, jobs)
        self.max_retries = max(0, max_retries)
        self.retry_base_delay = retry_base_delay
        self.task_timeout = task_timeout
        self.fallback = fallback
        self.site = site
        self.log_key = log_key
        self.timeout_label = timeout_label
        #: recovery events of the last run: one dict per failed attempt.
        self.recovery_log: list[dict] = []

    # ------------------------------------------------------------------ #
    # the retry / fallback loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        mode: str,
        indices: Sequence[int],
        results: list,
        serial: Callable[[int, int], object],
        thread_submit: "Callable[[ThreadPoolExecutor, int, int], Future] | None" = None,
        process_submit: "Callable[[object, int, int], Future] | None" = None,
        make_process_pool: "Callable[[int], object] | None" = None,
        budget=None,
    ) -> None:
        """Fill ``results[index]`` for every index, starting on rung *mode*.

        ``serial(index, attempt)`` runs a task inline;
        ``thread_submit(pool, index, attempt)`` /
        ``process_submit(pool, index, attempt)`` submit one task to a
        ``ThreadPoolExecutor(n)`` / a pool built by ``make_process_pool(n)``.
        Rungs without a submit callable degrade to the next rung down.
        """
        if mode not in EXECUTORS:
            raise ValueError(f"unknown executor {mode!r}; expected one of {EXECUTORS}")
        if mode == "process" and process_submit is None:
            mode = "thread"
        if mode == "thread" and thread_submit is None:
            mode = "serial"
        pending = list(indices)
        attempt = 0
        retries_left = self.max_retries
        self.recovery_log.clear()
        while pending:
            if budget is not None:
                budget.check_deadline(site=self.site)
            failures = self._attempt_once(
                mode,
                pending,
                results,
                attempt,
                budget,
                serial,
                thread_submit,
                process_submit,
                make_process_pool,
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
            pending = [index for index, _error in failures]
            attempt += 1
            if retries_left > 0:
                retries_left -= 1
                obs.count("ladder.retries")
                self._backoff(attempt, budget)
            elif self.fallback and mode in FALLBACK:
                mode = FALLBACK[mode]
                retries_left = self.max_retries
                obs.count("ladder.fallbacks")
            else:
                index, error = failures[0]
                raise WorkerFailureError(
                    f"{self.log_key} {index} failed after {attempt} attempt(s) "
                    f"(final executor {mode!r}): {error}",
                    shard=index,
                    attempts=attempt,
                ) from error

    def _backoff(self, attempt: int, budget) -> None:
        delay = self.retry_base_delay * (2 ** (attempt - 1))
        if budget is not None:
            remaining = budget.remaining_seconds()
            if remaining is not None:
                delay = min(delay, remaining)
        if delay > 0:
            time.sleep(delay)

    # ------------------------------------------------------------------ #
    # one attempt on one rung
    # ------------------------------------------------------------------ #

    def _attempt_once(
        self,
        mode: str,
        pending: list[int],
        results: list,
        attempt: int,
        budget,
        serial,
        thread_submit,
        process_submit,
        make_process_pool,
    ) -> list[tuple[int, BaseException]]:
        """One attempt at the pending tasks; returns the tasks that failed
        (with their causes).  Budget exhaustion is not a failure -- it
        propagates."""
        if mode == "serial":
            failures: list[tuple[int, BaseException]] = []
            for index in pending:
                if budget is not None:
                    budget.check_deadline(site=self.site)
                try:
                    results[index] = serial(index, attempt)
                except BudgetExhaustedError:
                    raise
                except Exception as error:
                    failures.append((index, error))
            return failures
        workers = min(self.jobs, len(pending))
        if mode == "thread":
            # imported here: a run that stays on the serial rung never loads it
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=workers)
            submit = thread_submit
        else:
            assert make_process_pool is not None
            pool = make_process_pool(workers)
            submit = process_submit
        hard_shutdown = False
        try:
            futures: dict[int, Future] = {
                index: submit(pool, index, attempt) for index in pending
            }
            failures = self._collect(futures, results, budget)
            hard_shutdown = bool(failures)
            return failures
        except BaseException:
            hard_shutdown = True
            raise
        finally:
            self._shutdown_pool(pool, hard_shutdown)

    def _collect(
        self,
        futures: "dict[int, Future]",
        results: list,
        budget,
    ) -> list[tuple[int, BaseException]]:
        """Harvest futures into ``results``; classify what went wrong.

        A worker that *tripped the budget* re-raises here (that is an
        answer, not a crash); a worker that died, raised, or exceeded
        ``task_timeout`` marks its task failed for retry/fallback.
        """
        from concurrent.futures import BrokenExecutor

        deadline_at = (
            time.monotonic() + self.task_timeout
            if self.task_timeout is not None
            else None
        )
        failures: list[tuple[int, BaseException]] = []
        for index, future in futures.items():
            timeout = None
            if deadline_at is not None:
                timeout = max(0.0, deadline_at - time.monotonic())
            if budget is not None:
                remaining = budget.remaining_seconds()
                if remaining is not None:
                    timeout = remaining if timeout is None else min(timeout, remaining)
            try:
                results[index] = future.result(timeout=timeout)
            except BudgetExhaustedError:
                raise
            except TimeoutError:
                if budget is not None:
                    # raises when the run deadline (not the task ceiling) expired
                    budget.check_deadline(site=self.site)
                future.cancel()
                obs.count("ladder.stuck_workers")
                failures.append(
                    (
                        index,
                        WorkerFailureError(
                            f"{self.log_key} {index} attempt exceeded "
                            f"{self.timeout_label}={self.task_timeout}s",
                            shard=index,
                        ),
                    )
                )
            except BrokenExecutor as error:
                obs.count("ladder.worker_crashes")
                failures.append((index, error))
            except Exception as error:
                obs.count("ladder.worker_errors")
                failures.append((index, error))
        return failures

    @staticmethod
    def _shutdown_pool(pool, hard: bool) -> None:
        if not hard:
            pool.shutdown(wait=True)
            return
        # a crashed/stuck attempt: do not wait for wedged workers, and
        # terminate any process still chewing on a cancelled task
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already-dead worker
                    pass
