"""Violations and validation reports.

Every satisfaction rule of Section 5 (WS1-WS4, DS1-DS7, SS1-SS4) reports its
failures as :class:`Violation` objects carrying the rule id, the schema
location that imposed the constraint, and the graph elements witnessing the
failure.  Reports from the naive and the indexed validator are comparable as
sets, which is how the differential tests establish engine agreement.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..record import Record

#: Rule catalogue: id -> (title, statement from the paper).
RULES: dict[str, tuple[str, str]] = {
    "WS1": (
        "Node properties must be of the required type",
        "For all (v, f) ∈ dom(σ) with v ∈ V, f ∈ fields(λ(v)) and "
        "t = type_F(λ(v), f) ∈ S ∪ W_S: σ(v, f) ∈ values_W(t).",
    ),
    "WS2": (
        "Edge properties must be of the required type",
        "For all (e, a) ∈ dom(σ) with e ∈ E, (v1, v2) = ρ(e), "
        "f = (λ(v1), λ(e)) and a ∈ args(f): σ(e, a) ∈ values_W(type_AF(f, a)).",
    ),
    "WS3": (
        "Target nodes must be of the required type",
        "For every e ∈ E with ρ(e) = (v1, v2) and f = (λ(v1), λ(e)) ∈ "
        "dom(type_F): λ(v2) ⊑ basetype(type_F(f)).",
    ),
    "WS4": (
        "Non-list fields contain at most one edge",
        "Edges e1, e2 with the same source and the same label f, where "
        "type_F(λ(v1), f) is not a list type: e1 = e2.",
    ),
    "DS1": (
        "Edges identified by nodes and label (@distinct)",
        "If (@distinct, ∅) ∈ directives_F(t, f): edges e1, e2 with identical "
        "endpoints, source label ⊑ t and label f coincide.",
    ),
    "DS2": (
        "No loops (@noLoops)",
        "If (@noLoops, ∅) ∈ directives_F(t, f): no edge e with ρ(e) = (v, v), "
        "λ(v) ⊑ t and λ(e) = f.",
    ),
    "DS3": (
        "Target has at most one incoming edge (@uniqueForTarget)",
        "If (@uniqueForTarget, ∅) ∈ directives_F(t, f): edges e1, e2 with the "
        "same target, source labels ⊑ t and label f coincide.",
    ),
    "DS4": (
        "Target has at least one incoming edge (@requiredForTarget)",
        "If (@requiredForTarget, ∅) ∈ directives_F(t, f): every node v2 with "
        "λ(v2) ⊑ basetype(type_S(t, f)) has an incoming f-edge from a node "
        "with label ⊑ t.",
    ),
    "DS5": (
        "Property is required (@required on an attribute)",
        "If (@required, ∅) ∈ directives_F(t, f) and type_S(t, f) ∈ S ∪ W_S: "
        "every v with λ(v) ⊑ t has (v, f) ∈ dom(σ), with a nonempty list "
        "value when type_S(t, f) is a list type.",
    ),
    "DS6": (
        "Edge is required (@required on a relationship)",
        "If (@required, ∅) ∈ directives_F(t, f) and type_S(t, f) ∉ S ∪ W_S: "
        "every v1 with λ(v1) ⊑ t has at least one outgoing edge labelled f.",
    ),
    "DS7": (
        "Keys (@key)",
        "If (@key, {fields: [f1 … fn]}) ∈ directives_T(t): any two nodes with "
        "labels ⊑ t that agree on every scalar-typed key field (both absent, "
        "or both present and equal) are identical.",
    ),
    "SS1": (
        "All nodes are justified",
        "For all v ∈ V: λ(v) ∈ OT.",
    ),
    "SS2": (
        "All node properties are justified",
        "For all (v, f) ∈ dom(σ) with v ∈ V: f ∈ fields(λ(v)) and "
        "type_F(λ(v), f) ∈ S ∪ W_S.",
    ),
    "SS3": (
        "All edge properties are justified",
        "For all (e, a) ∈ dom(σ) with e ∈ E: a ∈ args((λ(v1), λ(e))).",
    ),
    "SS4": (
        "All edges are justified",
        "For all e ∈ E with ρ(e) = (v1, v2): λ(e) ∈ fields(λ(v1)) and "
        "type_F(λ(v1), λ(e)) ∉ S ∪ W_S.",
    ),
}

RULES["EP1"] = (
    "Non-null edge properties are mandatory (extension)",
    "For every edge e with (λ(v1), λ(e)) ∈ dom(type_F) and every argument a "
    "with non-null type_AF and no default value: (e, a) ∈ dom(σ).  Stated in "
    "prose in §3.5/Example 3.12 but absent from Definitions 5.1-5.3; checked "
    'only in the "extended" validation mode.',
)

WEAK_RULES = ("WS1", "WS2", "WS3", "WS4")
DIRECTIVE_RULES = ("DS1", "DS2", "DS3", "DS4", "DS5", "DS6", "DS7")
STRONG_RULES = ("SS1", "SS2", "SS3", "SS4")
EXTENSION_RULES = ("EP1",)
ALL_RULES = WEAK_RULES + DIRECTIVE_RULES + STRONG_RULES


def rules_for_mode(mode: str) -> tuple[str, ...]:
    """The rule set decided by each validation mode."""
    if mode == "weak":
        return WEAK_RULES
    if mode == "directives":
        return DIRECTIVE_RULES
    if mode == "strong":
        return ALL_RULES
    if mode == "extended":
        return ALL_RULES + EXTENSION_RULES
    raise ValueError(f"unknown validation mode: {mode!r}")


#: Which element population each rule scans: node-scoped rules touch every
#: node of the graph, edge-scoped rules every edge.  Used to derive the
#: ``validation.checks.<rule>`` counters all engines export.
RULE_SCOPE: dict[str, str] = {
    "WS1": "nodes",
    "SS1": "nodes",
    "SS2": "nodes",
    "DS4": "nodes",
    "DS5": "nodes",
    "DS6": "nodes",
    "DS7": "nodes",
    "WS2": "edges",
    "WS3": "edges",
    "WS4": "edges",
    "SS3": "edges",
    "SS4": "edges",
    "DS1": "edges",
    "DS2": "edges",
    "DS3": "edges",
    "EP1": "edges",
}


def record_rule_checks(registry, rules: tuple[str, ...], nodes: int, edges: int) -> None:
    """Count the per-rule check work of one run into *registry*.

    One "check" is one element scanned by a rule: node-scoped rules perform
    ``nodes`` checks, edge-scoped rules ``edges`` -- the granularity the
    complexity claims of Theorem 1 are stated at.
    """
    for rule in rules:
        registry.count(
            f"validation.checks.{rule}",
            nodes if RULE_SCOPE[rule] == "nodes" else edges,
        )


class Violation(Record):
    """One witnessed failure of a satisfaction rule.

    Attributes:
        rule: Rule id ("WS1" … "SS4").
        location: Schema location imposing the constraint, e.g.
            ``"Book.author"`` or ``"type User @key(id)"``; empty for the
            purely structural SS rules.
        elements: The graph elements witnessing the failure (node/edge ids,
            in canonical order for pairwise rules).
        detail: Human-readable explanation.
    """

    rule: str
    location: str
    elements: tuple
    detail: str = ""

    def __init__(self, rule: str, location: str, elements: tuple, detail: str = "") -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "detail", detail)

    @property
    def title(self) -> str:
        return RULES[self.rule][0]

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        subject = ", ".join(str(element) for element in self.elements)
        detail = f": {self.detail}" if self.detail else ""
        return f"{self.rule}{where} ({subject}){detail}"

    def key(self) -> tuple:
        """Identity ignoring the free-text detail (for engine comparison)."""
        return (self.rule, self.location, self.elements)


def canonical_pair(a: object, b: object) -> tuple:
    """Order a pair of element ids canonically (for WS4/DS1/DS3/DS7 witnesses)."""
    return (a, b) if str(a) <= str(b) else (b, a)


def _ordered_pairs(elements: list) -> Iterator[tuple]:
    """All unordered pairs of *elements*, each in canonical order."""
    ordered = sorted(elements, key=str)
    for i, first in enumerate(ordered):
        for second in ordered[i + 1 :]:
            yield canonical_pair(first, second)


class ValidationReport(Record, frozen=False):
    """The outcome of validating one Property Graph against one schema.

    ``conforms`` is True iff no violations were found for the rules that were
    checked *and the run completed*.  ``mode`` records which satisfaction
    notion was decided: ``"weak"`` (WS only), ``"directives"`` (DS only) or
    ``"strong"`` (all).

    ``complete`` is False when an execution budget (deadline, element
    count) ran out mid-validation: the report then carries the violations
    found *so far* plus the structured ``interruption`` reason, and its
    verdict is "unknown" rather than "conforms" -- a partial scan proves
    nothing about the unscanned remainder.
    """

    mode: str
    violations: list[Violation] = []
    rules_checked: tuple[str, ...] = ALL_RULES
    complete: bool = True
    #: a :class:`repro.errors.BudgetReason` when ``complete`` is False
    interruption: object | None = None

    def __init__(
        self,
        mode: str,
        violations: list[Violation] | None = None,
        rules_checked: tuple[str, ...] = ALL_RULES,
        complete: bool = True,
        interruption: object | None = None,
    ) -> None:
        self.mode = mode
        self.violations = [] if violations is None else violations
        self.rules_checked = rules_checked
        self.complete = complete
        self.interruption = interruption

    @property
    def conforms(self) -> bool:
        return self.complete and not self.violations

    @property
    def verdict(self) -> str:
        """``"conforms"``, ``"violations"`` or ``"unknown"`` (partial run)."""
        if self.violations:
            return "violations"
        return "conforms" if self.complete else "unknown"

    def by_rule(self) -> dict[str, list[Violation]]:
        grouped: dict[str, list[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.rule, []).append(violation)
        return grouped

    def keys(self) -> frozenset[tuple]:
        """The set of violation identities (for engine-agreement checks)."""
        return frozenset(violation.key() for violation in self.violations)

    def summary(self) -> str:
        suffix = "" if self.complete else (
            f" [INCOMPLETE: {self.interruption}]"
            if self.interruption is not None
            else " [INCOMPLETE]"
        )
        if not self.violations:
            if self.complete:
                return f"conforms ({self.mode} satisfaction)"
            return f"UNKNOWN ({self.mode} satisfaction undecided){suffix}"
        counts = ", ".join(
            f"{rule}×{len(violations)}" for rule, violations in sorted(self.by_rule().items())
        )
        return f"{len(self.violations)} violation(s): {counts}{suffix}"

    def extend(self, violations: Iterable[Violation]) -> None:
        self.violations.extend(violations)
