"""Schema dataflow analysis: fixpoint passes over the type-dependency graph.

The package front door:

* :func:`analyze_schema` -- run the default pass pipeline (cardinality
  intervals, constraint implication, key domains, reachability) over a
  schema, memoized per schema instance;
* :func:`sat_preverdicts` -- the sound SAT/UNSAT pre-verdict feed the
  satisfiability engines consult before constructing a tableau; only
  verdicts the fixpoints *prove* are present, everything else is absent
  and falls through to the engines;
* :func:`analysis_cache_clear` -- drop the per-schema memo (tests and
  benchmarks use it to force cold runs).

The individual passes live in :mod:`repro.analysis.cardinality`,
:mod:`repro.analysis.implication`, :mod:`repro.analysis.keys` and
:mod:`repro.analysis.reachability`; the machinery in
:mod:`repro.analysis.framework` (pass manager) and
:mod:`repro.analysis.graph` (the dependency graph).  Soundness arguments
live with each pass; every claim appeals only to axioms the Theorem-3
translation (:mod:`repro.dl.translate`) actually emits.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING

from ..record import Record
from .cardinality import CardinalityFacts, CardinalityPass
from .framework import (
    AnalysisContext,
    AnalysisError,
    AnalysisPass,
    AnalysisResult,
    PassManager,
    fixpoint,
)
from .graph import FieldEdge, TypeDependencyGraph
from .implication import ImplicationPass
from .keys import KeyDomainPass
from .lattice import Interval
from .reachability import ReachabilityPass

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import GraphQLSchema

__all__ = [
    "AnalysisContext",
    "AnalysisError",
    "AnalysisPass",
    "AnalysisResult",
    "CardinalityFacts",
    "CardinalityPass",
    "FieldEdge",
    "ImplicationPass",
    "Interval",
    "KeyDomainPass",
    "PassManager",
    "ReachabilityPass",
    "SatPreVerdicts",
    "TypeDependencyGraph",
    "analysis_cache_clear",
    "analyze_schema",
    "default_passes",
    "fixpoint",
    "sat_preverdicts",
]


def default_passes() -> tuple[AnalysisPass, ...]:
    """The standard pipeline, in dependency order."""
    return (
        CardinalityPass(),
        ImplicationPass(),
        KeyDomainPass(),
        ReachabilityPass(),
    )


_results: "weakref.WeakKeyDictionary[GraphQLSchema, AnalysisResult]" = (
    weakref.WeakKeyDictionary()
)
_lock = threading.Lock()


def analyze_schema(schema: "GraphQLSchema", refresh: bool = False) -> AnalysisResult:
    """Run (or replay) the default pipeline over *schema*.

    Results are memoized per schema instance (schemas are immutable once
    built), so the lint rules, the CLI and the satisfiability pre-verdict
    feed share one run.
    """
    if not refresh:
        with _lock:
            cached = _results.get(schema)
        if cached is not None:
            return cached
    result = PassManager(default_passes()).run(schema)
    with _lock:
        _results[schema] = result
    return result


def analysis_cache_clear() -> None:
    """Forget every memoized analysis result."""
    with _lock:
        _results.clear()


class SatPreVerdicts(Record):
    """The sound pre-verdict feed: only *proven* SAT/UNSAT claims.

    ``types`` maps object-type names to their proven verdict; ``fields``
    maps ``(declaring type, field name)`` relationship declarations to the
    proven verdict of the §6.2 concept ``t ⊓ ∃f.base``.  Absence means the
    fixpoints could not decide and the tableau/bounded engines must run.
    ``@key`` findings never contribute here -- the translation drops keys,
    so key reasoning is not sound for tableau semantics.
    """

    types: dict[str, bool] = {}
    fields: dict[tuple[str, str], bool] = {}

    @property
    def decided(self) -> int:
        return len(self.types) + len(self.fields)


def sat_preverdicts(schema: "GraphQLSchema") -> SatPreVerdicts:
    """The pre-verdict feed for one schema (memoized via the analysis)."""
    cardinality: CardinalityFacts = analyze_schema(schema).fact("cardinality")
    types: dict[str, bool] = {}
    for type_name in schema.object_types:
        verdict = cardinality.type_verdict(type_name)
        if verdict is not None:
            types[type_name] = verdict
    fields = {
        key: verdict
        for key, verdict in cardinality.field_verdicts.items()
        if verdict is not None
    }
    return SatPreVerdicts(types=types, fields=fields)
