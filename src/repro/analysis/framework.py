"""The pass manager and fixpoint engine of the schema dataflow analyzer.

An :class:`AnalysisPass` computes one *fact* (an arbitrary result object)
over the shared :class:`~repro.analysis.graph.TypeDependencyGraph` and may
emit :class:`~repro.lint.diagnostics.Diagnostic` findings.  Passes declare
dependencies by name (``requires``); the :class:`PassManager` runs them in
registration order, validates the dependencies are met, stores each fact in
the :class:`AnalysisContext`, and records per-pass wall time both in the
returned :class:`AnalysisResult` and -- when observation is installed --
as ``analysis.pass.<name>`` spans and ``analysis.pass.<name>.seconds``
histograms in the obs registry.

:func:`fixpoint` is the shared chaotic-iteration driver: it re-applies a
monotone ``step`` until nothing changes, counts rounds, and guards against
non-monotone steps with an explicit round ceiling (every client pass
operates on a finite powerset lattice, so the ceiling is never hit by a
correct transfer function).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .. import obs
from ..lint.diagnostics import Diagnostic, sort_key
from ..record import Record
from .graph import TypeDependencyGraph

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import GraphQLSchema


class AnalysisError(Exception):
    """A mis-assembled pass pipeline (unknown dependency, duplicate name)."""


def fixpoint(
    step: Callable[[], bool], *, name: str = "fixpoint", max_rounds: int = 10_000
) -> int:
    """Iterate *step* until it reports no change; return the round count.

    ``step`` must return True when it changed the state it closes over.
    The ceiling exists purely as a diagnostics-friendly guard against a
    non-monotone step looping forever.
    """
    rounds = 0
    while step():
        rounds += 1
        if rounds >= max_rounds:  # pragma: no cover - authoring error
            raise AnalysisError(f"fixpoint {name!r} did not converge in {rounds} rounds")
    obs.count(f"analysis.fixpoint.{name}.rounds", rounds + 1)
    return rounds + 1


class AnalysisContext(Record, frozen=False):
    """Everything a pass sees: the schema, the graph, and prior facts."""

    schema: "GraphQLSchema"
    graph: TypeDependencyGraph
    facts: dict[str, Any] = {}
    diagnostics: list[Diagnostic] = []

    def fact(self, name: str) -> Any:
        if name not in self.facts:
            raise AnalysisError(f"pass fact {name!r} has not been computed")
        return self.facts[name]

    def emit(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)


class AnalysisPass:
    """Base class of one analysis pass.

    Subclasses set ``name`` (the fact key), optionally ``requires`` (facts
    that must exist before this pass runs), and implement :meth:`run`
    returning the pass's fact object.
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    description: str = ""

    def run(self, context: AnalysisContext) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError


class AnalysisResult(Record, frozen=False):
    """The outcome of one pass-manager run over one schema."""

    schema: "GraphQLSchema"
    graph: TypeDependencyGraph
    facts: dict[str, Any]
    diagnostics: tuple[Diagnostic, ...]
    timings: dict[str, float]

    def fact(self, name: str) -> Any:
        if name not in self.facts:
            raise AnalysisError(f"pass fact {name!r} has not been computed")
        return self.facts[name]

    def to_json(self) -> dict:
        """The ``pgschema analyze --json`` payload (stable key set)."""
        from .cardinality import CardinalityFacts

        cardinality = self.facts.get("cardinality")
        types: dict[str, dict] = {}
        fields: dict[str, str] = {}
        if isinstance(cardinality, CardinalityFacts):
            for type_name in sorted(self.schema.object_types):
                types[type_name] = {
                    "interval": str(cardinality.interval(type_name)),
                    "verdict": cardinality.type_verdict_name(type_name),
                }
                proof = cardinality.dead.get(type_name)
                if proof is not None:
                    types[type_name]["reason"] = proof.reason
            for (declarer, field_name), verdict in sorted(
                cardinality.field_verdicts.items()
            ):
                fields[f"{declarer}.{field_name}"] = (
                    "sat" if verdict else ("unsat" if verdict is False else "unknown")
                )
        return {
            "passes": [
                {"name": name, "seconds": round(seconds, 6)}
                for name, seconds in self.timings.items()
            ],
            "types": types,
            "fields": fields,
            "diagnostics": [diagnostic.to_json() for diagnostic in self.diagnostics],
        }


class PassManager:
    """Runs a pass pipeline over a schema, timing and ordering the output."""

    def __init__(self, passes: Sequence[AnalysisPass]) -> None:
        names: set[str] = set()
        for analysis_pass in passes:
            if not analysis_pass.name:
                raise AnalysisError(f"pass {analysis_pass!r} has no name")
            if analysis_pass.name in names:
                raise AnalysisError(f"duplicate pass name {analysis_pass.name!r}")
            for dependency in analysis_pass.requires:
                if dependency not in names:
                    raise AnalysisError(
                        f"pass {analysis_pass.name!r} requires {dependency!r}, "
                        f"which does not run before it"
                    )
            names.add(analysis_pass.name)
        self.passes: tuple[AnalysisPass, ...] = tuple(passes)

    def run(
        self, schema: "GraphQLSchema", prior: AnalysisResult | None = None
    ) -> AnalysisResult:
        """Run the pipeline over *schema*.

        *prior*, an earlier result over the same schema, is resumed: its
        graph, facts, findings and timings carry over, and a pass whose
        fact it already holds does not run again.
        """
        graph = TypeDependencyGraph(schema) if prior is None else prior.graph
        context = AnalysisContext(schema=schema, graph=graph)
        timings: dict[str, float] = {}
        if prior is not None:
            context.facts.update(prior.facts)
            context.diagnostics.extend(prior.diagnostics)
            timings.update(prior.timings)
        pending = [p for p in self.passes if p.name not in context.facts]
        with obs.span("analysis.run", passes=len(pending)):
            for analysis_pass in pending:
                with obs.span("analysis.pass", pass_name=analysis_pass.name):
                    started = time.perf_counter()
                    context.facts[analysis_pass.name] = analysis_pass.run(context)
                    elapsed = time.perf_counter() - started
                timings[analysis_pass.name] = elapsed
                obs.observe(f"analysis.pass.{analysis_pass.name}.seconds", elapsed)
        # Report order is deterministic regardless of the order fixpoint
        # iteration happened to emit findings in: the same (line, column,
        # code, location, message) key the lint engine sorts by.
        diagnostics = tuple(sorted(context.diagnostics, key=sort_key))
        return AnalysisResult(
            schema=schema,
            graph=graph,
            facts=dict(context.facts),
            diagnostics=diagnostics,
            timings=timings,
        )
