"""Cardinality interval analysis: sound UNSAT/SAT pre-verdicts by fixpoint.

The pass abstracts every object type's achievable instance count as an
:class:`~repro.analysis.lattice.Interval` and tightens it through the
required-edge constraints of the Theorem-3 ALCQI translation until a
fixpoint.  Two complementary fixpoints run:

**The dead fixpoint (greatest-model UNSAT side).**  A type is *dead* when
the axioms the translation emits force its instance interval to the empty
meet -- no model of the TBox contains a node of the type.  Rules, each
justified by translated axioms only (``@key``/``@noLoops``/``@distinct``
are dropped by the translation and therefore never consulted):

1. *missing required field*: an applicable declaration ``(c, f)`` is
   ``@required`` (axiom ``c ⊑ ∃f.base``) but the object type has no own
   relationship declaration of ``f`` -- the SS4 axiom ``ot ⊑ ≤0 f.⊤``
   contradicts the existential outright.
2. *dead required targets*: a required ``f``-edge must reach a node typed
   by some member of ``allowed(ot, f)`` (the meet of the ``∀f.base``
   axioms, resolved to object types by the interface/union definitions and
   pairwise disjointness); if every member is dead the edge has nowhere to
   land.
3. *unservable obligation*: ``@requiredForTarget`` on ``(d, f)`` forces an
   incoming edge from a ``d``-instance at every node of each target type
   ``x``.  A ``d``-instance is an instance of some object type below ``d``
   (the definition axioms), which must declare ``f`` itself (SS4) and
   admit ``x`` as a target (its ``∀`` meet) and be alive -- when no such
   server type exists, ``x`` is dead.
4. *incoming overflow*: distinct object-type declarers are pairwise
   disjoint, so each ``@requiredForTarget`` from a distinct object type
   below a ``@uniqueForTarget`` cap declarer forces a distinct incoming
   edge counted by the cap; the meet ``[k, ∞) ⊓ [0, 1]`` is empty for
   ``k ≥ 2`` (Example 6.1's unconditional class).
5. *forced cap overflow*: a live type whose own required ``f``-edge would,
   at every live admissible target, collide with a disjoint forced source
   under a cap covering both (diagram (c)'s conditional class, generalized
   to interface-declared obligations disjoint from the entering type).

Each dead type keeps a :class:`DeadProof`: the rule that fired, the
declaration it rests on and the types it names.  Rule 4 reads no other
verdict, so it is tried first; then rules 1, 2 and 5 per required field;
then rule 3.  The lint rules PG001/PG003 render these proofs
(:mod:`repro.lint.rules`), so there is one UNSAT fixpoint, and PG011
reports the rest.

**The good fixpoint (least-model trivially-SAT side).**  A type is *good*
when a finite tree-shaped model fragment rooted at a fresh node of the
type provably exists: every required field can point at a good target that
tolerates the extra incoming edge, and every incoming obligation at the
root is served by a good server type whose single ``f``-edge can be
redirected at the root without overflowing any cap (counting one forced
source per obligation family conservatively).  Cyclically-required types
never become good -- the tableau keeps deciding those (the paper's diagram
(b) stays undecided here, exactly as it must).  Good is sound for the
tableau's unrestricted-model semantics because the constructed fragment
*is* a model.

Everything in between stays ``None``: the pre-verdict feed only ever skips
tableau work it can reproduce, never guesses.
"""

from __future__ import annotations

from typing import AbstractSet

from ..lint.diagnostics import Diagnostic, Severity, Span
from ..record import Record
from . import lattice
from .framework import AnalysisContext, AnalysisPass, fixpoint
from .graph import FieldEdge, TypeDependencyGraph
from .lattice import Interval


class DeadProof(Record):
    """Why the dead fixpoint proved one object type dead."""

    #: missing-field, dead-targets, unservable-obligation, incoming-overflow
    #: or forced-cap-overflow (rules 1, 2, 3, 4 and 5)
    rule: str
    #: the declaration the proof rests on: the required field, the
    #: obligation or the cap
    edge: FieldEdge
    #: the forced sources (incoming-overflow), the admissible targets
    #: (dead-targets) or (cap declarer, clashing source)
    #: (forced-cap-overflow); empty for the other rules
    names: tuple[str, ...]
    #: human-readable proof sketch (the PG011 text)
    reason: str


class CardinalityFacts(Record, frozen=False):
    """The pass's fact object: intervals, verdicts, and their reasons."""

    #: dead object type -> the proof that it is dead
    dead: dict[str, DeadProof] = {}
    #: object types with a constructed finite model fragment
    good: frozenset[str] = frozenset()
    #: relationship declaration -> SAT (True) / UNSAT (False) / undecided
    field_verdicts: dict[tuple[str, str], bool | None] = {}
    #: reasons for decided field verdicts
    field_reasons: dict[tuple[str, str], str] = {}
    #: fixpoint round counts (dead, good) for the profile surface
    rounds: dict[str, int] = {}

    def interval(self, object_type: str) -> Interval:
        """The instance-count abstraction: ``[0, 0]`` when dead, else
        ``[0, ∞)`` (``0`` is always achievable -- the empty graph)."""
        return lattice.ZERO if object_type in self.dead else lattice.TOP

    def type_verdict(self, object_type: str) -> bool | None:
        if object_type in self.dead:
            return False
        if object_type in self.good:
            return True
        return None

    def type_verdict_name(self, object_type: str) -> str:
        verdict = self.type_verdict(object_type)
        return "sat" if verdict else ("unsat" if verdict is False else "unknown")


def _span_of(edge: FieldEdge) -> Span:
    return Span(edge.line, edge.column)


class CardinalityPass(AnalysisPass):
    """Abstract interpretation of instance-count intervals to a fixpoint."""

    name = "cardinality"
    description = (
        "propagate [lo, hi] instance-count intervals through required-edge "
        "constraints; empty meet proves UNSAT, a constructed fragment "
        "proves SAT"
    )

    def run(self, context: AnalysisContext) -> CardinalityFacts:
        graph = context.graph
        facts = CardinalityFacts()
        facts.rounds["dead"] = _dead_fixpoint(graph, facts.dead)
        good: set[str] = set()
        facts.rounds["good"] = _good_fixpoint(graph, facts.dead, good)
        facts.good = frozenset(good)
        _field_verdicts(graph, facts)
        _emit_diagnostics(context, facts)
        return facts


# --------------------------------------------------------------------------- #
# the dead fixpoint (UNSAT side)
# --------------------------------------------------------------------------- #


def _dead_fixpoint(graph: TypeDependencyGraph, dead: dict[str, DeadProof]) -> int:
    def step() -> bool:
        changed = False
        for object_type in sorted(graph.schema.object_types):
            if object_type in dead:
                continue
            proof = _dead_proof(graph, dead, object_type)
            if proof is not None:
                dead[object_type] = proof
                changed = True
        return changed

    return fixpoint(step, name="cardinality.dead")


def _dead_proof(
    graph: TypeDependencyGraph, dead: dict[str, DeadProof], object_type: str
) -> DeadProof | None:
    obligation_fields = graph.obligation_fields_at(object_type)
    # rule 4 first: it reads no other verdict
    for field_name in obligation_fields:
        obligations = _distinct_obligations(graph, object_type, field_name)
        for cap in _distinct_caps(graph, object_type, field_name):
            forced = sorted(
                {
                    obligation.declarer
                    for obligation in obligations
                    if obligation.declarer in graph.schema.object_types
                    and obligation.declarer in graph.below(cap.declarer)
                }
            )
            incoming = lattice.at_least(len(forced)).meet(lattice.at_most(1))
            if incoming.is_empty:
                return DeadProof(
                    "incoming-overflow",
                    cap,
                    tuple(forced),
                    f"incoming '{field_name}' interval at {object_type} is "
                    f"empty: @requiredForTarget on "
                    f"{' and '.join(f'{t}.{field_name}' for t in forced)} "
                    f"forces {len(forced)} distinct sources, but "
                    f"@uniqueForTarget on {cap.location} caps them at one",
                )
    # rules 1, 2, 5: the type's required fields
    for field_name, declarations in sorted(graph.required_fields(object_type).items()):
        own = graph.own.get((object_type, field_name))
        if own is None:
            declarer = next(e for e in declarations if e.required)
            return DeadProof(
                "missing-field",
                declarer,
                (),
                f"{declarer.location} is @required and applies to "
                f"{object_type}, but {object_type} declares no relationship "
                f"field '{field_name}', so it may emit no '{field_name}' edge "
                f"at all",
            )
        allowed = graph.allowed(object_type, field_name)
        live = sorted(target for target in allowed if target not in dead)
        if not live:
            detail = (
                "has no admissible target object types"
                if not allowed
                else "has only unpopulatable admissible targets ("
                + ", ".join(sorted(allowed))
                + ")"
            )
            return DeadProof(
                "dead-targets",
                own,
                tuple(sorted(allowed)),
                f"the required edge '{field_name}' {detail}",
            )
        clashes = [
            _definite_clash(graph, object_type, target, field_name)
            for target in live
        ]
        if all(clash is not None for clash in clashes):
            cap, other = clashes[0]  # type: ignore[misc]
            return DeadProof(
                "forced-cap-overflow",
                own,
                (cap.declarer, other),
                f"the required edge '{field_name}' collides at every live "
                f"target: e.g. at {live[0]}, @uniqueForTarget on "
                f"{cap.location} admits one incoming source but "
                f"@requiredForTarget already forces one from {other}",
            )
    # rule 3: obligations at nodes of this type
    for field_name in obligation_fields:
        for obligation in _distinct_obligations(graph, object_type, field_name):
            servers = _servers(graph, obligation, object_type)
            if all(source in dead for source in servers):
                return DeadProof(
                    "unservable-obligation",
                    obligation,
                    (),
                    f"@requiredForTarget on {obligation.location} demands an "
                    f"incoming '{field_name}' edge at every {object_type} "
                    f"node, but no live object type can emit it",
                )
    return None


def _servers(
    graph: TypeDependencyGraph, obligation: FieldEdge, target: str
) -> list[str]:
    """Object types that could emit the edge an obligation demands at a
    *target* node: below the declarer, declaring the field themselves (SS4
    forbids undeclared edges) and admitting the target (their ∀-meet)."""
    return [
        source
        for source in sorted(graph.below(obligation.declarer))
        if (source, obligation.field_name) in graph.own
        and target in graph.allowed(source, obligation.field_name)
    ]


def _distinct_obligations(
    graph: TypeDependencyGraph, target: str, field_name: str
) -> list[FieldEdge]:
    """Obligations at (target, field), one per declaring type."""
    seen: dict[str, FieldEdge] = {}
    for edge in graph.obligations_at(target, field_name):
        seen.setdefault(edge.declarer, edge)
    return [seen[name] for name in sorted(seen)]


def _distinct_caps(
    graph: TypeDependencyGraph, target: str, field_name: str
) -> list[FieldEdge]:
    seen: dict[str, FieldEdge] = {}
    for edge in graph.caps_at(target, field_name):
        seen.setdefault(edge.declarer, edge)
    return [seen[name] for name in sorted(seen)]


def _definite_clash(
    graph: TypeDependencyGraph, entering: str, target: str, field_name: str
) -> tuple[FieldEdge, str] | None:
    """A cap at (target, field) that the *entering* type's own edge must
    overflow: the cap covers the entering type and some forced source
    provably disjoint from it.  Returns (cap, forced declarer) or None."""
    for cap in _distinct_caps(graph, target, field_name):
        cap_family = graph.below(cap.declarer)
        if entering not in cap_family:
            continue
        for obligation in _distinct_obligations(graph, target, field_name):
            family = graph.below(obligation.declarer)
            # the forced source is an instance of some type in the
            # obligation's family: the clash is definite when that family
            # is nonempty, excludes the entering type (disjointness), and
            # lies wholly under the cap (the forced edge always counts)
            if family and entering not in family and family <= cap_family:
                return cap, obligation.declarer
    return None


# --------------------------------------------------------------------------- #
# the good fixpoint (trivially-SAT side)
# --------------------------------------------------------------------------- #


def _good_fixpoint(
    graph: TypeDependencyGraph, dead: dict[str, DeadProof], good: set[str]
) -> int:
    def step() -> bool:
        changed = False
        for object_type in sorted(graph.schema.object_types):
            if object_type in good or object_type in dead:
                continue
            if _fragment_exists(graph, good, object_type):
                good.add(object_type)
                changed = True
        return changed

    return fixpoint(step, name="cardinality.good")


def _fragment_exists(
    graph: TypeDependencyGraph, good: AbstractSet[str], object_type: str
) -> bool:
    """Does a finite tree-model fragment rooted at the type provably exist?"""
    for field_name in graph.required_fields(object_type):
        if (object_type, field_name) not in graph.own:
            return False  # rule-1 territory; the dead fixpoint handles it
        if not any(
            target in good
            and _incoming_ok(graph, good, target, field_name, object_type)
            for target in graph.allowed(object_type, field_name)
        ):
            return False
    for field_name in graph.obligation_fields_at(object_type):
        if not _incoming_ok(graph, good, object_type, field_name, None):
            return False
    return True


def _incoming_ok(
    graph: TypeDependencyGraph,
    good: AbstractSet[str],
    target: str,
    field_name: str,
    entering: str | None,
) -> bool:
    """Can a fresh *target* node absorb its forced incoming edges (plus
    the optional *entering* parent edge) without overflowing any cap?

    Each obligation family needs either the parent edge (when the
    parent's type lies below the obligation declarer) or a good server.
    Each cap conservatively counts one edge per obligation family with
    any server inside the cap family, plus the parent edge when the cap
    covers the parent -- overcounting only ever withholds SAT.
    """
    obligations = _distinct_obligations(graph, target, field_name)
    served_by_parent: set[str] = set()
    family_servers: dict[str, list[str]] = {}
    for obligation in obligations:
        if entering is not None and entering in graph.below(obligation.declarer):
            served_by_parent.add(obligation.declarer)
            continue
        family = [s for s in _servers(graph, obligation, target) if s in good]
        if not family:
            return False
        family_servers[obligation.declarer] = family
    for cap in _distinct_caps(graph, target, field_name):
        cap_family = graph.below(cap.declarer)
        total = 1 if (entering is not None and entering in cap_family) else 0
        for obligation in obligations:
            if obligation.declarer in served_by_parent:
                continue
            if any(server in cap_family for server in family_servers[obligation.declarer]):
                total += 1
        if lattice.at_least(total).meet(lattice.at_most(1)).is_empty:
            return False
    return True


# --------------------------------------------------------------------------- #
# field (edge-definition) pre-verdicts
# --------------------------------------------------------------------------- #


def _field_verdicts(graph: TypeDependencyGraph, facts: CardinalityFacts) -> None:
    """Decide ``declarer ⊓ ∃f.base`` per relationship declaration where the
    fixpoints allow; interface declarations resolve through implementors."""
    for edge in graph.edges:
        key = (edge.declarer, edge.field_name)
        if edge.declarer in graph.schema.object_types:
            verdict, reason = _object_field_verdict(graph, facts, edge, edge.declarer)
        else:
            verdict, reason = _abstract_field_verdict(graph, facts, edge)
        facts.field_verdicts[key] = verdict
        if reason:
            facts.field_reasons[key] = reason


def _object_field_verdict(
    graph: TypeDependencyGraph,
    facts: CardinalityFacts,
    edge: FieldEdge,
    object_type: str,
) -> tuple[bool | None, str]:
    """The verdict of ``ot ⊓ ∃f.base`` for one candidate emitting type."""
    if object_type in facts.dead:
        return False, f"{object_type} is unpopulatable: {facts.dead[object_type].reason}"
    if (object_type, edge.field_name) not in graph.own:
        return False, (
            f"{object_type} declares no relationship field '{edge.field_name}' "
            f"and may emit no such edge"
        )
    allowed = graph.allowed(object_type, edge.field_name) & edge.targets
    live = sorted(target for target in allowed if target not in facts.dead)
    if not live:
        detail = (
            "has no admissible target object types"
            if not allowed
            else "lands only on unpopulatable targets"
        )
        return False, f"the edge {detail}"
    clashes = [
        _definite_clash(graph, object_type, target, edge.field_name)
        for target in live
    ]
    if all(clash is not None for clash in clashes):
        return False, (
            "the edge collides with a forced incoming source under a "
            "@uniqueForTarget cap at every live target"
        )
    if object_type not in facts.good:
        return None, ""
    required = any(
        declaration.required
        for declaration in graph.applicable[object_type].get(edge.field_name, ())
    )
    if required:
        # the good fragment already carries this edge
        return True, f"{object_type} has a model fragment with the required edge"
    # a good fragment carries no edge on this non-required field, so one
    # more edge to an enterable good target respects any ≤1 outdegree cap
    good_landing = any(
        target in facts.good
        and _incoming_ok(graph, facts.good, target, edge.field_name, object_type)
        for target in live
    )
    if good_landing:
        return True, f"{object_type} has a model fragment extendable by this edge"
    return None, ""


def _abstract_field_verdict(
    graph: TypeDependencyGraph, facts: CardinalityFacts, edge: FieldEdge
) -> tuple[bool | None, str]:
    """An interface/union declaration: SAT iff some implementor's version is
    SAT (the definition axioms make the declarer the union of them)."""
    implementors = sorted(graph.below(edge.declarer))
    if not implementors:
        return False, f"no object type lies below {edge.declarer}"
    verdicts = [
        _object_field_verdict(graph, facts, edge, implementor)
        for implementor in implementors
    ]
    if any(verdict is True for verdict, _reason in verdicts):
        witness = next(
            implementor
            for implementor, (verdict, _reason) in zip(implementors, verdicts)
            if verdict is True
        )
        return True, f"implementor {witness} can emit the edge"
    if all(verdict is False for verdict, _reason in verdicts):
        return False, (
            "no object type below "
            f"{edge.declarer} can emit a '{edge.field_name}' edge"
        )
    return None, ""


# --------------------------------------------------------------------------- #
# diagnostics (PG011 interval-unsat, PG012 interval-dead-edge)
# --------------------------------------------------------------------------- #


def _emit_diagnostics(context: AnalysisContext, facts: CardinalityFacts) -> None:
    graph = context.graph
    for object_type in sorted(facts.dead):
        composite = context.schema.object_types[object_type]
        context.emit(
            Diagnostic(
                code="PG011",
                severity=Severity.ERROR,
                message=(
                    f"cardinality interval analysis proves {object_type} "
                    f"unsatisfiable (instance interval {lattice.ZERO}): "
                    f"{facts.dead[object_type].reason}"
                ),
                location=object_type,
                span=Span.of(composite),
                rule="interval-unsat",
                unsat_type=object_type,
            )
        )
    for edge in graph.edges:
        key = (edge.declarer, edge.field_name)
        if facts.field_verdicts.get(key) is not False:
            continue
        if edge.declarer in facts.dead:
            continue  # the PG011 finding on the declarer already covers it
        reason = facts.field_reasons.get(key, "the edge can never be populated")
        context.emit(
            Diagnostic(
                code="PG012",
                severity=Severity.WARNING,
                message=(
                    f"interval analysis proves the edge definition can never "
                    f"be populated: {reason}"
                ),
                location=edge.location,
                span=_span_of(edge),
                rule="interval-dead-edge",
            )
        )
