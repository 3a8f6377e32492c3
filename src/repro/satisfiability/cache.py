"""Cross-check verdict caching for satisfiability (the DL-reasoner playbook).

Deciding a whole schema re-asks many closely related questions: the same
object type is probed by ``check_type`` and again inside every
``check_field`` concept that names it; repeated ``check_schema`` sweeps
(a server validating uploads against one schema) re-prove everything from
scratch.  This module adds the two classic caching layers of optimised
description-logic reasoners, adapted to this engine:

* :class:`SatCache` -- a per-schema verdict memo: decided type verdicts,
  field (edge-definition) verdicts, and bounded witness results, shared
  across ``check_type`` / ``check_field`` / ``check_schema`` calls and
  across checker instances over the same schema object.  Budget-exhausted
  (UNKNOWN) verdicts are never cached -- a later call with a larger budget
  must get a chance to decide.
* :class:`LabelSetCache` -- tableau-level caching of known-satisfiable and
  known-clashing *root label sets*, shared by every tableau over the same
  TBox (each :class:`~repro.dl.tableau.Tableau` interns concepts to
  instance-local integer ids, so the shared key is a frozenset of concept
  *objects*).  Three sound rules, all anchored at the root node:

  - exact: the initial root label was decided before -- replay it;
  - subset-of-SAT: a *completed clash-free* root label ``R`` proves the
    conjunction of ``R`` satisfiable, hence any query whose initial label
    is a subset of ``R`` is satisfiable;
  - superset-of-UNSAT: an initial label proven unsatisfiable stays
    unsatisfiable under any superset.

  These rules are deliberately **not** applied to non-root nodes: with
  inverse roles (ALCQI) the satisfiability of a successor's label depends
  on constraints propagated back from its ancestors, so caching interior
  labels is unsound -- the standard caveat in the DL literature.

:func:`sat_cache_for` keeps each schema's :class:`SatCache` in the
schema's memo, beside its validation plan, and frees it with the schema;
:func:`sat_cache_info` / :func:`sat_cache_clear` expose observability and
test isolation (``pgschema sat --profile`` reports these counters).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from .. import obs
from ..schema.model import memo_clear, memo_entries

if TYPE_CHECKING:  # pragma: no cover
    from ..dl.concepts import Concept
    from ..schema.model import GraphQLSchema
    from .bounded import BoundedSearchResult
    from .engine import TypeSatisfiability

__all__ = [
    "LabelSetCache",
    "SatCache",
    "sat_cache_clear",
    "sat_cache_for",
    "sat_cache_info",
]

#: Per-layer entry caps: the exact memo, completed-SAT roots and UNSAT
#: seeds are each bounded so a pathological sweep cannot grow without
#: limit (the subset/superset rules scan linearly, so the cap also bounds
#: lookup cost).
LABEL_CACHE_MAXSIZE = 512


class LabelSetCache:
    """Known-satisfiable / known-clashing root label sets for one TBox.

    Thread-compatible by construction: lookups read append-only structures
    (CPython list iteration tolerates concurrent appends), stores and the
    hit/miss counters take a lock.  A lost store under a race costs a
    re-proof, never a wrong verdict.
    """

    def __init__(self, max_entries: int = LABEL_CACHE_MAXSIZE) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._exact: "OrderedDict[frozenset[Concept], bool]" = OrderedDict()
        self._sat_roots: "list[frozenset[Concept]]" = []
        self._unsat_seeds: "list[frozenset[Concept]]" = []

    def lookup(self, initial: "frozenset[Concept]") -> bool | None:
        """A cached verdict for this initial root label, or None."""
        verdict = self._find(initial)
        with self._lock:
            if verdict is None:
                self.misses += 1
            else:
                self.hits += 1
        return verdict

    def _find(self, initial: "frozenset[Concept]") -> bool | None:
        verdict = self._exact.get(initial)
        if verdict is not None:
            return verdict
        for completed in self._sat_roots:
            if initial <= completed:
                return True
        for seed in self._unsat_seeds:
            if seed <= initial:
                return False
        return None

    def store(
        self,
        initial: "frozenset[Concept]",
        verdict: bool,
        completed_root: "frozenset[Concept] | None",
    ) -> None:
        """Record a *decided* verdict (budget-tripped runs never get here)."""
        with self._lock:
            if initial not in self._exact and len(self._exact) >= self.max_entries:
                self._exact.popitem(last=False)
            self._exact[initial] = verdict
            if verdict and completed_root is not None:
                if len(self._sat_roots) < self.max_entries:
                    self._sat_roots.append(completed_root)
            elif not verdict:
                if len(self._unsat_seeds) < self.max_entries:
                    self._unsat_seeds.append(initial)

    def info(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._exact),
            "sat_roots": len(self._sat_roots),
            "unsat_seeds": len(self._unsat_seeds),
        }


class SatCache:
    """Memoized satisfiability verdicts for one schema.

    Stores only *decided* results: type verdicts with
    ``tableau_satisfiable`` in {True, False} (the bounded component is kept
    separately, per node bound, so ``find_witnesses=True`` and ``=False``
    sweeps replay identically to uncached runs), field verdicts in
    {True, False}, and completed bounded searches.  The embedded
    :class:`LabelSetCache` is what checker-built tableaux attach as their
    ``label_cache``.
    """

    def __init__(self, schema: "GraphQLSchema") -> None:
        self.schema = schema
        self.labels = LabelSetCache()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._types: "dict[str, TypeSatisfiability]" = {}
        self._fields: "dict[tuple[str, str], bool]" = {}
        self._bounded: "dict[tuple[str, int], BoundedSearchResult]" = {}

    # -- type verdicts -------------------------------------------------- #

    def get_type(self, type_name: str) -> "TypeSatisfiability | None":
        """A fresh copy of the cached verdict (``bounded`` not attached)."""
        cached = self._types.get(type_name)
        self._count(cached is not None)
        return None if cached is None else cached.without_witness()

    def put_type(self, verdict: "TypeSatisfiability") -> None:
        if verdict.tableau_satisfiable is None:
            return  # UNKNOWN: a bigger budget deserves a fresh attempt
        with self._lock:
            self._types.setdefault(verdict.type_name, verdict.without_witness())

    # -- field (edge-definition) verdicts ------------------------------- #

    def get_field(self, key: tuple[str, str]) -> bool | None:
        cached = self._fields.get(key)
        self._count(cached is not None)
        return cached

    def put_field(self, key: tuple[str, str], verdict: bool | None) -> None:
        if verdict is None:
            return
        with self._lock:
            self._fields.setdefault(key, verdict)

    # -- bounded witness results ---------------------------------------- #

    def get_bounded(
        self, type_name: str, bound: int
    ) -> "BoundedSearchResult | None":
        cached = self._bounded.get((type_name, bound))
        self._count(cached is not None)
        return cached

    def put_bounded(
        self, type_name: str, bound: int, result: "BoundedSearchResult"
    ) -> None:
        if result.exhausted and not result.satisfiable:
            return  # stopped on a budget below the bound: not a completed search
        with self._lock:
            self._bounded.setdefault((type_name, bound), result)

    # -- observability --------------------------------------------------- #

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        obs.count("sat.cache.hits" if hit else "sat.cache.misses")

    def lookups(self) -> tuple[int, int, int, int]:
        """Verdict hits, verdict misses, label hits, label misses so far."""
        return self.hits, self.misses, self.labels.hits, self.labels.misses

    def add_lookups(self, counts: tuple[int, ...]) -> None:
        """Count a sat worker's lookups (per unit) as this cache's."""
        hits, misses, label_hits, label_misses = counts
        with self._lock:
            self.hits += hits
            self.misses += misses
        with self.labels._lock:
            self.labels.hits += label_hits
            self.labels.misses += label_misses

    def cache_info(self) -> dict:
        """Hit/miss counters for the verdict layer and the label layer."""
        label_info = self.labels.info()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "types": len(self._types),
            "fields": len(self._fields),
            "bounded": len(self._bounded),
            "label_hits": label_info["hits"],
            "label_misses": label_info["misses"],
            "label_entries": label_info["entries"],
        }


# --------------------------------------------------------------------------- #
# one cache per schema, kept in the schema's memo
# --------------------------------------------------------------------------- #


def sat_cache_for(schema: "GraphQLSchema") -> SatCache:
    """The shared :class:`SatCache` for *schema*, kept in the schema's memo
    and freed with it (the service's registry records hold this one too)."""
    cache = schema.memo_get(SatCache)
    return cache if cache is not None else schema.memo_put(SatCache(schema))


def sat_cache_info() -> dict:
    """Aggregated counters over every live schema's cache."""
    caches = memo_entries(SatCache)
    totals = {
        "schemas": len(caches),
        "hits": 0,
        "misses": 0,
        "types": 0,
        "fields": 0,
        "bounded": 0,
        "label_hits": 0,
        "label_misses": 0,
        "label_entries": 0,
    }
    for cache in caches:
        for key, value in cache.cache_info().items():
            totals[key] += value
    return totals


def sat_cache_clear() -> None:
    """Drop every cached verdict (test isolation / cold benchmark runs)."""
    memo_clear(SatCache)
