"""Schema dataflow analysis: fixpoint passes over the type-dependency graph.

The package front door:

* :func:`analyze_schema` -- run the default pass pipeline (cardinality
  intervals, constraint implication, key domains, reachability) over a
  schema, kept in the schema's memo and freed with it;
* :func:`sat_preverdicts` -- the sound SAT/UNSAT pre-verdict feed, the one
  static rung of the satisfiability decision ladder; only verdicts the
  fixpoints *prove* are present, everything else falls through to the
  tableau.  It runs the cardinality pass alone, into the same memo, so a
  later :func:`analyze_schema` runs only the other passes (which
  ``pgschema sat`` never loads);
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

from typing import TYPE_CHECKING

from ..lint.diagnostics import Diagnostic
from ..record import Record
from ..schema.model import memo_clear
from .cardinality import CardinalityFacts, CardinalityPass, DeadProof
from .framework import (
    AnalysisContext,
    AnalysisError,
    AnalysisPass,
    AnalysisResult,
    PassManager,
    fixpoint,
)
from .graph import FieldEdge, TypeDependencyGraph
from .lattice import Interval

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import GraphQLSchema

__all__ = [
    "AnalysisContext",
    "AnalysisError",
    "AnalysisPass",
    "AnalysisResult",
    "CardinalityFacts",
    "CardinalityPass",
    "DeadProof",
    "FieldEdge",
    "Interval",
    "PassManager",
    "SatPreVerdicts",
    "TypeDependencyGraph",
    "analysis_cache_clear",
    "analyze_schema",
    "default_passes",
    "fixpoint",
    "sat_preverdicts",
]


def default_passes() -> tuple[AnalysisPass, ...]:
    """The standard pipeline, in dependency order (all but the cardinality
    pass load here: ``pgschema sat`` runs that one alone)."""
    from .implication import ImplicationPass
    from .keys import KeyDomainPass
    from .reachability import ReachabilityPass

    return (
        CardinalityPass(),
        ImplicationPass(),
        KeyDomainPass(),
        ReachabilityPass(),
    )


def analyze_schema(schema: "GraphQLSchema", refresh: bool = False) -> AnalysisResult:
    """Run (or replay) the default pipeline over *schema*.

    Results are kept in the schema's memo (schemas are immutable once
    built), so the lint rules, the CLI and the satisfiability pre-verdict
    feed share one run, and the result is freed with its schema.
    """
    return _memoized(schema, default_passes(), refresh)


def _memoized(
    schema: "GraphQLSchema", passes: tuple[AnalysisPass, ...], refresh: bool = False
) -> AnalysisResult:
    """The memo for *schema* once *passes* ran; memoized facts are reused."""
    prior = None if refresh else schema.memo_get(AnalysisResult)
    if prior is not None and all(p.name in prior.facts for p in passes):
        return prior
    result = PassManager(passes).run(schema, prior)
    return schema.memo_put(result, replace=True)


def analysis_cache_clear() -> None:
    """Forget every memoized analysis result."""
    memo_clear(AnalysisResult)


class SatPreVerdicts(Record):
    """The sound pre-verdict feed: only *proven* SAT/UNSAT claims.

    ``types`` maps object-type names to their proven verdict; ``fields``
    maps ``(declaring type, field name)`` relationship declarations to the
    proven verdict of the §6.2 concept ``t ⊓ ∃f.base``.  Absence means the
    fixpoints could not decide and the tableau/bounded engines must run.
    ``diagnostics`` maps each type proved UNSAT to the PG011 finding that
    proves it.  ``@key`` findings never contribute here -- the translation
    drops keys, so key reasoning is not sound for tableau semantics.
    """

    types: dict[str, bool] = {}
    fields: dict[tuple[str, str], bool] = {}
    diagnostics: dict[str, Diagnostic] = {}

    @property
    def decided(self) -> int:
        return len(self.types) + len(self.fields)


def sat_preverdicts(schema: "GraphQLSchema") -> SatPreVerdicts:
    """The pre-verdict feed for one schema: the cardinality pass alone,
    memoized with the rest of the analysis."""
    result = _memoized(schema, (CardinalityPass(),))
    cardinality: CardinalityFacts = result.fact("cardinality")
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
    diagnostics = {
        diagnostic.unsat_type: diagnostic
        for diagnostic in result.diagnostics
        if diagnostic.code == "PG011" and diagnostic.unsat_type is not None
    }
    return SatPreVerdicts(types=types, fields=fields, diagnostics=diagnostics)
