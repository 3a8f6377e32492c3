"""``pgschema serve``: the long-lived schema-registry service (PR 9).

The one-shot CLI pays cold-start costs -- SDL parse, plan compile, sat
warm-up -- on every invocation; the caches built in PRs 2-6 amortize them
only within a process.  This package keeps that process alive:

* :mod:`~repro.service.registry` -- versioned, multi-tenant schema records
  pinning their compiled plans and private sat caches (tenant isolation by
  construction), atomically persisted and reloaded across restarts;
* :mod:`~repro.service.batching` -- the hot path: bounded admission,
  coalescing of concurrent validate requests into shared batches (each
  request one records-view shard),
  per-request deadline budgets, and a retry/serial fallback ladder;
* :mod:`~repro.service.server` -- the stdlib-only asyncio JSON-over-HTTP
  daemon plus :class:`~repro.service.server.ServiceThread` for in-process
  hosting (tests, benchmarks, the CI smoke job);
* :mod:`~repro.service.client` -- a small keep-alive HTTP client those
  harnesses share.

``bench_e17_service.py`` (experiment E17) proves the point: batched
warm-cache serving sustains >= 3x the throughput of per-request cold
subprocess invocation, with p50/p99 latencies from the obs histograms.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .batching import BatchingValidator
    from .client import ServiceClient
    from .registry import SchemaRecord, SchemaRegistry
    from .server import ServiceThread, ValidationService, report_payload

# Exported name -> the submodule that defines it (PEP 562): the daemon
# never loads the HTTP client.  Keep in step with TYPE_CHECKING.
_EXPORTS = {
    "BatchingValidator": "batching",
    "ServiceClient": "client",
    "SchemaRecord": "registry",
    "SchemaRegistry": "registry",
    "ServiceThread": "server",
    "ValidationService": "server",
    "report_payload": "server",
}
__all__ = list(_EXPORTS)

__getattr__ = _lazy_exports(globals(), _EXPORTS)
