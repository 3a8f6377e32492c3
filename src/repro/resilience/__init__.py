"""Resilient execution: budgets, typed failure reasons, fault injection.

Under the project's production north star a single pathological schema, a
killed worker, or a malformed upload must degrade gracefully -- a typed
UNKNOWN/partial verdict or a recovered retry -- instead of hanging or
tracebacking the service.  This package holds the shared machinery:

* :class:`Budget` (:mod:`repro.resilience.budget`) -- cooperative
  deadline / node-count / expansion-count / memory-estimate limits threaded
  through the tableau, bounded model search, the SAT solver and the
  validation engines;
* :class:`ExecutorLadder` (:mod:`repro.resilience.ladder`) -- the shared
  retry / backoff / executor-fallback scheduler behind every fan-out
  engine (sharded validation, portfolio satisfiability): positional
  results for deterministic merges, stuck-worker timeouts, and a
  recovery log chaos tests can assert on (the service batcher runs its
  requests inline on its serial rung);
* :func:`~repro.resilience.durable.atomic_write` -- the one durable
  writer (tmp + fsync + rename, with a ``phase=rename`` fault point)
  behind CDC checkpoints, registry versions and the perf index;
* :mod:`repro.resilience.faults` -- deterministic fault injection
  (``PGSCHEMA_FAULTS``) used by the chaos tests to prove every recovery
  path: injected worker crashes, delays and allocation spikes at named
  sites.

The structured failure types (:class:`~repro.errors.BudgetReason`,
:class:`~repro.errors.BudgetExhaustedError`,
:class:`~repro.errors.WorkerFailureError`) live in :mod:`repro.errors` with
the rest of the taxonomy; they are re-exported here for convenience.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports
from ..errors import BudgetExhaustedError, BudgetReason, WorkerFailureError

if TYPE_CHECKING:
    from . import faults
    from .budget import UNLIMITED, Budget
    from .ladder import ExecutorLadder

__all__ = [
    "UNLIMITED",
    "Budget",
    "BudgetExhaustedError",
    "BudgetReason",
    "ExecutorLadder",
    "WorkerFailureError",
    "faults",
]

# Exported name -> the submodule that defines it (PEP 562): a run without
# a budget or a fault plan loads neither.  Keep in step with TYPE_CHECKING.
_EXPORTS = {
    "faults": "faults",
    "UNLIMITED": "budget",
    "Budget": "budget",
    "ExecutorLadder": "ladder",
}


__getattr__ = _lazy_exports(globals(), _EXPORTS)
