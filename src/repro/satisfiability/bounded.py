"""Bounded (finite) model search for object-type satisfiability.

Property Graphs are finite by definition, so satisfiability in the paper's
sense is *finite* satisfiability.  This engine searches exhaustively for a
strongly-satisfying Property Graph with at most ``max_nodes`` nodes that
populates a given object type, and returns the witness graph when it finds
one.

It complements the ALCQI tableau of :mod:`repro.dl`:

* when the bounded search finds a model, the type is satisfiable (and the
  tableau must agree, since finite models are models);
* when the tableau reports UNSAT, no model of any size exists, so the
  bounded search must fail at every bound;
* when the tableau reports SAT but the bounded search keeps failing, the
  schema may require an infinite model -- ALCQI lacks the finite model
  property, and the paper's Example 6.1 diagram (b) is exactly such a case
  (see EXPERIMENTS.md).

Search strategy: enumerate label multisets of size 1..max_nodes containing
the target type; for each, collect the required-edge obligations (DS6 per
node and field, DS4 per node and @requiredForTarget site) and satisfy them
one at a time by adding justified edges, backtracking across target/source
choices; cardinality constraints (WS4/DS3/DS2) are checked on the fly, and
every candidate is confirmed with the inline plan kernel that
:func:`~repro.validation.validate` runs (with required scalar properties
filled in with fresh distinct values) before being returned.

The finder compiles the schema into lookup tables once, in its
constructor, so the edge search never walks the schema:

* the subtype pairs ``(l, t)`` with ``l ⊑_S t`` for every object label
  ``l`` (rules 1-3; labels are always object types here);
* each label's obligation templates in search order -- the DS6 "out"
  demands of every ``@required`` relationship site above the label, then
  the DS4 "in" demands of every ``@requiredForTarget`` site whose target
  type is above it;
* each ``(label, field)``'s relationship base type and list-ness (WS2's
  ``type_F``), and the DS2/DS3 declaring types per field name;
* each obligation's *partner labels*: the labels that can stand at the
  other end of an edge meeting it -- targets below the field's base type
  for "out", sources below the declaring type whose own declaration
  admits the node for "in".

Before searching a label multiset, the finder rejects it when some
obligation has no partner among its labels.  The pruning is exact.  An
obligation with no partner has no candidate edge, and an edge meets an
obligation only if it satisfies that obligation's candidate conditions:
every edge the search adds is a candidate of *some* obligation, and the
candidate conditions depend on the edge alone (its source label declares
the field as a relationship whose base type is above the target label,
plus, for "in", the source label is below the declaring type, which
meeting an "in" obligation demands anyway).  So such an obligation is
never met, and the search would return ``None`` for the multiset after
trying every candidate.  The enumeration order, the assignment count and
the budget charges are the same with or without the pruning.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ..errors import BudgetExhaustedError, BudgetReason
from ..pg.model import PropertyGraph
from ..record import Record
from ..resilience import faults
from ..schema.subtype import is_named_subtype
from ..validation import sites
from ..validation.parallel import ParallelValidator

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema


class BoundedSearchResult(Record, frozen=False):
    """Outcome of a bounded model search.

    ``reason`` is set when the search stopped early -- the assignment cap,
    a deadline, or another budget dimension ran out before every label
    multiset up to the bound was tried.  ``satisfiable=False`` with a
    ``reason`` therefore means *unknown below the bound*, not refuted.
    """

    satisfiable: bool
    witness: PropertyGraph | None = None
    nodes_tried: int = 0
    assignments_tried: int = 0
    bound: int = 0
    reason: "BudgetReason | None" = None

    @property
    def exhausted(self) -> bool:
        """Did the search stop on a budget rather than completing?"""
        return self.reason is not None


class _Obligation(NamedTuple):
    """One required edge: ``kind`` is "out" (DS6: node needs an outgoing
    f-edge) or "in" (DS4: node needs an incoming f-edge from a source
    below the declaring type)."""

    kind: str
    node: int
    field_name: str
    declaring_type: str


class BoundedModelFinder:
    """Exhaustive finite-model search up to a node bound."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        max_assignments: int = 20000,
        budget: "Budget | None" = None,
    ) -> None:
        self.schema = schema
        self.max_assignments = max_assignments
        self.budget = budget
        self._validator = ParallelValidator(schema)
        labels = sorted(schema.object_types)
        named = (*schema.object_types, *schema.interface_types, *schema.union_types)
        below = frozenset(
            (label, type_name)
            for label in labels
            for type_name in named
            if is_named_subtype(schema, label, type_name)
        )
        self._below = below
        # (label, field) -> (base type, is list) of each relationship field
        # the label declares
        relationship = {
            (label, field_def.name): (field_def.type.base, field_def.type.is_list)
            for label in labels
            for field_def in schema.object_types[label].fields
            if not field_def.is_attribute
        }
        self._relationship = relationship
        self._no_loops = _declaring_by_field(sites.no_loops_sites(schema))
        self._unique_for_target = _declaring_by_field(
            sites.unique_for_target_sites(schema)
        )
        # label -> its (kind, field, declaring type) demands, in search order
        required_edge = sites.required_edge_sites(schema)
        required_ft = sites.required_for_target_sites(schema)
        self._templates: dict[str, tuple[tuple[str, str, str], ...]] = {
            label: tuple(
                [
                    ("out", site.field_name, site.type_name)
                    for site in required_edge
                    if (label, site.type_name) in below
                ]
                + [
                    ("in", site.field_name, site.type_name)
                    for site in required_ft
                    if (label, site.field.type.base) in below
                ]
            )
            for label in labels
        }
        # (label, field) -> labels an "out" edge of that field may target
        self._out_partners = {
            key: frozenset(
                target for target in labels if (target, base) in below
            )
            for key, (base, _is_list) in relationship.items()
        }
        # (label, field, declaring type) -> labels an "in" edge may come from
        self._in_partners: dict[tuple[str, str, str], frozenset[str]] = {}
        for label, templates in self._templates.items():
            for kind, field_name, declaring in templates:
                if kind == "in":
                    self._in_partners[(label, field_name, declaring)] = frozenset(
                        source
                        for source in labels
                        if (source, declaring) in below
                        and (source, field_name) in relationship
                        and (label, relationship[(source, field_name)][0]) in below
                    )

    def find_model(
        self,
        object_type: str,
        max_nodes: int = 4,
        budget: "Budget | None" = None,
    ) -> BoundedSearchResult:
        """Search for a strongly-satisfying graph with a node of *object_type*.

        Never raises on exhaustion: the search is best-effort below a bound
        by construction, so a tripped budget (deadline, expansion count, or
        the historical assignment cap) is reported as ``result.reason``.
        """
        result = BoundedSearchResult(satisfiable=False, bound=max_nodes)
        if object_type not in self.schema.object_types:
            return result
        budget = budget if budget is not None else self.budget
        other_types = sorted(self.schema.object_types)
        try:
            for size in range(1, max_nodes + 1):
                for extra in itertools.combinations_with_replacement(
                    other_types, size - 1
                ):
                    result.assignments_tried += 1
                    if result.assignments_tried > self.max_assignments:
                        result.reason = BudgetReason(
                            "assignments",
                            self.max_assignments,
                            result.assignments_tried,
                            "satisfiability.bounded",
                        )
                        return result
                    if budget is not None:
                        budget.charge_expansions(1, site="satisfiability.bounded")
                        budget.check_deadline(site="satisfiability.bounded")
                    faults.fault_point(
                        "bounded.assignment", assignment=result.assignments_tried
                    )
                    labels = (object_type,) + extra
                    witness = self._try_labels(labels)
                    if witness is not None:
                        result.satisfiable = True
                        result.witness = witness
                        return result
        except BudgetExhaustedError as stop:
            result.reason = stop.reason
        return result

    # ------------------------------------------------------------------ #

    def _try_labels(self, labels: tuple[str, ...]) -> PropertyGraph | None:
        obligations = self._collect_obligations(labels)
        if not self._feasible(labels, obligations):
            return None
        edges = self._search_edges(labels, frozenset(), obligations, 0)
        if edges is None:
            return None
        graph = self._materialise(labels, edges)
        report = self._validator.validate(graph, mode="strong")
        return graph if report.conforms else None

    def _collect_obligations(self, labels: tuple[str, ...]) -> list[_Obligation]:
        return [
            _Obligation(kind, node, field_name, declaring)
            for node, label in enumerate(labels)
            for kind, field_name, declaring in self._templates[label]
        ]

    def _feasible(
        self, labels: tuple[str, ...], obligations: list[_Obligation]
    ) -> bool:
        """Does every obligation have a partner label in the multiset?

        False means no edge among *labels* can meet some obligation, so
        :meth:`_search_edges` would return None (see the module docstring).
        """
        present = frozenset(labels)
        for obligation in obligations:
            label = labels[obligation.node]
            if obligation.kind == "out":
                partners = self._out_partners.get(
                    (label, obligation.field_name), frozenset()
                )
            else:
                partners = self._in_partners[
                    (label, obligation.field_name, obligation.declaring_type)
                ]
            if partners.isdisjoint(present):
                return False
        return True

    def _search_edges(
        self,
        labels: tuple[str, ...],
        edges: frozenset[tuple[int, str, int]],
        obligations: list[_Obligation],
        depth: int,
    ) -> frozenset[tuple[int, str, int]] | None:
        pending = [
            obligation
            for obligation in obligations
            if not self._met(labels, edges, obligation)
        ]
        if not pending:
            return edges
        if depth > len(labels) * len(obligations) + 8:
            return None
        obligation = pending[0]
        for candidate in self._candidate_edges(labels, edges, obligation):
            extended = edges | {candidate}
            if not self._edges_admissible(labels, extended, candidate):
                continue
            found = self._search_edges(labels, extended, obligations, depth + 1)
            if found is not None:
                return found
        return None

    def _met(
        self,
        labels: tuple[str, ...],
        edges: frozenset[tuple[int, str, int]],
        obligation: _Obligation,
    ) -> bool:
        node = obligation.node
        field_name = obligation.field_name
        if obligation.kind == "out":
            return any(
                source == node and label == field_name
                for source, label, _target in edges
            )
        below = self._below
        declaring = obligation.declaring_type
        return any(
            target == node
            and label == field_name
            and (labels[source], declaring) in below
            for source, label, target in edges
        )

    def _candidate_edges(
        self,
        labels: tuple[str, ...],
        edges: frozenset[tuple[int, str, int]],
        obligation: _Obligation,
    ) -> Iterable[tuple[int, str, int]]:
        below = self._below
        field_name = obligation.field_name
        if obligation.kind == "out":
            source = obligation.node
            declaration = self._relationship.get((labels[source], field_name))
            if declaration is None:
                return
            base = declaration[0]
            for target, target_label in enumerate(labels):
                if (target_label, base) in below:
                    candidate = (source, field_name, target)
                    if candidate not in edges:
                        yield candidate
        else:
            target = obligation.node
            target_label = labels[target]
            for source, source_label in enumerate(labels):
                if (source_label, obligation.declaring_type) not in below:
                    continue
                declaration = self._relationship.get((source_label, field_name))
                if declaration is None:
                    continue
                if (target_label, declaration[0]) not in below:
                    continue
                candidate = (source, field_name, target)
                if candidate not in edges:
                    yield candidate

    def _edges_admissible(
        self,
        labels: tuple[str, ...],
        edges: frozenset[tuple[int, str, int]],
        added: tuple[int, str, int],
    ) -> bool:
        """Quick rejection of the newly added edge against WS4/DS2/DS3."""
        source, field_name, target = added
        declaration = self._relationship.get((labels[source], field_name))
        if declaration is None:
            return False
        below = self._below
        # WS4: non-list declarations allow at most one outgoing edge
        if not declaration[1]:
            count = sum(
                1
                for other_source, other_label, _t in edges
                if other_source == source and other_label == field_name
            )
            if count > 1:
                return False
        # DS2: @noLoops forbids self-loops for sources below the declaring type
        if source == target:
            for declaring in self._no_loops.get(field_name, ()):
                if (labels[source], declaring) in below:
                    return False
        # DS3: @uniqueForTarget bounds incoming edges per declaring type
        for declaring in self._unique_for_target.get(field_name, ()):
            count = sum(
                1
                for other_source, other_label, other_target in edges
                if other_target == target
                and other_label == field_name
                and (labels[other_source], declaring) in below
            )
            if count > 1:
                return False
        return True

    def _materialise(
        self, labels: tuple[str, ...], edges: frozenset[tuple[int, str, int]]
    ) -> PropertyGraph:
        return materialise_graph(self.schema, labels, edges)


def _declaring_by_field(
    field_sites: "list[sites.FieldSite]",
) -> dict[str, tuple[str, ...]]:
    """Field name -> the declaring types of the sites on that field."""
    grouped: dict[str, list[str]] = {}
    for site in field_sites:
        grouped.setdefault(site.field_name, []).append(site.type_name)
    return {field_name: tuple(types) for field_name, types in grouped.items()}


def fresh_value(schema: "GraphQLSchema", type_ref, seed: int) -> object:
    """A well-typed value for *type_ref*, distinct per *seed* where the
    domain allows (Theorem 3's argument: scalar values can always be chosen)."""
    base = type_ref.base
    scalars = schema.scalars
    if scalars.is_enum(base):
        value: object = sorted(scalars.enum_values(base))[0]
    elif base == "Int":
        value = seed
    elif base == "Float":
        value = float(seed)
    elif base == "Boolean":
        value = True
    else:  # String, ID, custom scalars
        value = f"value-{seed}"
    if type_ref.is_list:
        return (value,)
    return value


def materialise_graph(
    schema: "GraphQLSchema",
    labels: tuple[str, ...],
    edges: frozenset[tuple[int, str, int]],
) -> PropertyGraph:
    """Build the Property Graph for a label assignment plus edge set,
    filling required scalar node properties and mandatory edge properties
    with fresh, distinct, well-typed values."""
    graph = PropertyGraph()
    counter = itertools.count(1)
    for node, label in enumerate(labels):
        properties: dict[str, object] = {}
        object_type = schema.object_types[label]
        for field_def in object_type.fields:
            if field_def.is_attribute and field_def.has_directive("required"):
                properties[field_def.name] = fresh_value(
                    schema, field_def.type, next(counter)
                )
        # interface-declared required attributes apply to implementors too
        for interface_name in object_type.interfaces:
            for field_def in schema.interface_types[interface_name].fields:
                if (
                    field_def.is_attribute
                    and field_def.has_directive("required")
                    and field_def.name not in properties
                ):
                    properties[field_def.name] = fresh_value(
                        schema, field_def.type, next(counter)
                    )
        graph.add_node(node, label, properties or None)
    for index, (source, field_name, target) in enumerate(sorted(edges)):
        field_def = schema.field(labels[source], field_name)
        properties = {}
        if field_def is not None:
            properties = {
                argument.name: fresh_value(schema, argument.type, next(counter))
                for argument in field_def.arguments
                if argument.type.non_null and not argument.has_default
            }
        graph.add_edge(f"e{index}", source, target, field_name, properties or None)
    return graph
