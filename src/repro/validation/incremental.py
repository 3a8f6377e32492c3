"""Incremental re-validation after graph mutations (an extension feature).

:class:`IncrementalValidator` owns a Property Graph, keeps it strongly
validated, and updates the violation set after mutations by re-checking
only the affected *scopes* instead of the whole graph.  Every Section-5
rule is decided on one scope:

* per-element scopes -- WS1/SS1/SS2/DS4/DS5/DS6 for one node
  (``("node", v)``), and WS2/WS3/SS3/SS4/DS2 for one edge (``("edge", e)``);
* edge-group scopes -- WS4/DS1 for one ``("out", source, label)`` group and
  DS3 for one ``("in", target, label)`` group;
* key scopes -- DS7 for one ``("key", site, signature)`` group, with the
  key-value signature index maintained incrementally.

**Mutations mark scopes dirty; a read flushes them in one kernel pass.**
A mutation updates the graph, drops a removed node from the signature
index, and records the scopes it touched.  :meth:`~IncrementalValidator.report`,
:attr:`~IncrementalValidator.conforms` and every internal reader first
:meth:`~IncrementalValidator.flush`: one call of the fused plan kernel that
one-shot validation and the service run
(:func:`~repro.validation.parallel.validate_shard`) over a
:class:`~repro.validation.shard.GraphShard` holding every dirty node, edge
and edge group.  Each violation is filed under the scope its rule defines;
the same pass's DS7 triples re-sign the dirty nodes, and the key scopes
whose membership moved are rechecked.  A scope touched by several
mutations between two reads is thus checked once.  The whole-graph build
(the constructor) and schema migration (:func:`migrated_validator`) are the
same path: mark scopes dirty, flush once.

A flush returns the old and new violations of the scopes whose entries it
replaced, so a consumer diffs only the changed scopes (the CDC consumer's
violation transitions, :mod:`repro.validation.cdc`).

After any sequence of mutations, ``report()`` equals a from-scratch strong
validation of the current graph (the differential tests enforce this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .. import obs
from .parallel import validate_shard
from .plan import ValidationPlan, compile_plan
from .shard import EdgeRecord, GraphShard
from .sites import KeySite, labels_below
from .violations import ValidationReport, Violation, _ordered_pairs

if TYPE_CHECKING:  # pragma: no cover
    from ..pg.model import ElementId, PropertyGraph
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema

ScopeKey = tuple

#: The scope kind each kernel rule's violations are filed under.
_RULE_SCOPE = {
    **dict.fromkeys(("WS1", "SS1", "SS2", "DS4", "DS5", "DS6"), "node"),
    **dict.fromkeys(("WS2", "WS3", "SS3", "SS4", "DS2"), "edge"),
    "WS4": "out",
    "DS1": "out",
    "DS3": "in",
}
#: The rules a flush runs: every scope rule, plus DS7 for the signatures.
_FLUSH_RULES = (*_RULE_SCOPE, "DS7")


class IncrementalValidator:
    """Keeps a graph's strong-validation report current across mutations."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        graph: "PropertyGraph",
        plan: ValidationPlan | None = None,
        budget: "Budget | None" = None,
    ) -> None:
        """``budget`` bounds the initial whole-graph build (the only
        unbounded sweep this engine performs).  Exhaustion *raises*
        :class:`~repro.errors.BudgetExhaustedError` rather than returning a
        partial validator: a half-built violation cache would silently
        misreport every later incremental answer."""
        self._setup(schema, graph, plan, budget)
        with obs.span(
            "validation.run", engine="incremental", elements=len(graph)
        ):
            self._dirty_nodes = {node: None for node in graph.nodes}
            self._dirty_edges = {edge: None for edge in graph.edges}
            groups = self._dirty_groups
            for _edge, source, target, label, _sl, _tl in graph.edge_records():
                groups[("out", source, label)] = None
                groups[("in", target, label)] = None
            self.flush(budget.renew() if budget is not None else None)
        if obs.active() is not None:
            obs.count("validation.runs")

    def _setup(
        self,
        schema: "GraphQLSchema",
        graph: "PropertyGraph",
        plan: ValidationPlan | None,
        budget: "Budget | None",
    ) -> None:
        """An empty store and index for *schema* over *graph*."""
        self.schema = schema
        self.graph = graph
        self.budget = budget
        # schema analysis is shared with the other engines via the plan
        self.plan = plan if plan is not None else compile_plan(schema)
        self._key_sites = self.plan.key_sites
        # scope key -> violations found in that scope (never empty)
        self._violations: dict[ScopeKey, list[Violation]] = {}
        # key-site index -> signature -> set of nodes
        self._signatures: list[dict[tuple, set["ElementId"]]] = [
            {} for _ in self._key_sites
        ]
        # node -> its signature per key site (nodes in no key group: absent)
        self._node_signatures: dict["ElementId", list[tuple | None]] = {}
        # the scopes awaiting the next flush, in the order first touched
        # (dicts as ordered sets keep the store's order deterministic)
        self._dirty_nodes: dict["ElementId", None] = {}
        self._dirty_edges: dict["ElementId", None] = {}
        self._dirty_groups: dict[ScopeKey, None] = {}
        self._dirty_keys: dict[tuple[int, tuple], None] = {}
        # label -> the edge labels its node rules read (see _edge_readers)
        self._readers: dict[str, tuple[frozenset[str], frozenset[str]]] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def report(self) -> ValidationReport:
        """The current strong-validation report."""
        self.flush()
        report = ValidationReport(mode="strong")
        for violations in self._violations.values():
            report.extend(violations)
        return report

    @property
    def conforms(self) -> bool:
        self.flush()
        return not self._violations

    def stored_violations(self) -> list[Violation]:
        """The violations as of the last flush: mutations made since are
        not yet rechecked."""
        return [v for violations in self._violations.values() for v in violations]

    def add_node(
        self,
        node_id: "ElementId",
        label: str,
        properties: Mapping[str, object] | None = None,
    ) -> None:
        self.graph.add_node(node_id, label, properties)
        self._dirty_nodes[node_id] = None

    def remove_node(self, node_id: "ElementId") -> None:
        graph = self.graph
        incident = [
            (edge, *graph.endpoints(edge), graph.label(edge))
            for edge in (*graph.out_edges(node_id), *graph.in_edges(node_id))
        ]
        graph.remove_node(node_id)
        self._unindex_node_signatures(node_id)
        self._dirty_nodes[node_id] = None
        for edge, source, target, label in incident:
            self._touch_edge(edge, source, target, label)

    def add_edge(
        self,
        edge_id: "ElementId",
        source: "ElementId",
        target: "ElementId",
        label: str,
        properties: Mapping[str, object] | None = None,
    ) -> None:
        self.graph.add_edge(edge_id, source, target, label, properties)
        self._touch_edge(edge_id, source, target, label)

    def remove_edge(self, edge_id: "ElementId") -> None:
        source, target = self.graph.endpoints(edge_id)
        label = self.graph.label(edge_id)
        self.graph.remove_edge(edge_id)
        self._touch_edge(edge_id, source, target, label)

    def set_property(self, element_id: "ElementId", name: str, value: object) -> None:
        self.graph.set_property(element_id, name, value)
        self._touch_element(element_id)

    def remove_property(self, element_id: "ElementId", name: str) -> None:
        self.graph.remove_property(element_id, name)
        self._touch_element(element_id)

    # ------------------------------------------------------------------ #
    # dirty marking
    # ------------------------------------------------------------------ #

    def _touch_edge(
        self,
        edge: "ElementId",
        source: "ElementId",
        target: "ElementId",
        label: str,
    ) -> None:
        """An edge came or went: its own scope and both edge groups it sits
        in are dirty, and so is an endpoint whose rules read edges of its
        label -- DS6 counts a source's out-edges, DS4 looks for a target's
        in-edge; no other node rule reads an edge."""
        self._dirty_edges[edge] = None
        self._dirty_groups[("out", source, label)] = None
        self._dirty_groups[("in", target, label)] = None
        graph = self.graph
        if graph.is_node(source) and label in self._edge_readers(graph.label(source))[0]:
            self._dirty_nodes[source] = None
        if graph.is_node(target) and label in self._edge_readers(graph.label(target))[1]:
            self._dirty_nodes[target] = None

    def _edge_readers(self, label: str) -> tuple[frozenset[str], frozenset[str]]:
        """The edge labels a node of *label* reads: out-edges (DS6) and
        in-edges (DS4)."""
        readers = self._readers.get(label)
        if readers is None:
            rules = self.plan.node_rules(label)
            readers = self._readers[label] = (
                frozenset(field for _location, field in rules.required_edges),
                frozenset(field for _location, field, _below in rules.incoming_required),
            )
        return readers

    def _touch_element(self, element: "ElementId") -> None:
        """A property changed: only the element's own scope reads it (and
        a node's key signatures, which the flush re-derives)."""
        if self.graph.is_node(element):
            self._dirty_nodes[element] = None
        else:
            self.graph.label(element)  # raises for an unknown element
            self._dirty_edges[element] = None

    # ------------------------------------------------------------------ #
    # the flush
    # ------------------------------------------------------------------ #

    def flush(
        self, budget: "Budget | None" = None
    ) -> tuple[list[Violation], list[Violation]]:
        """Recheck every dirty scope in one kernel pass.

        Returns the violations the pass removed from the store and the
        ones it added, over the scopes whose entries it replaced; both are
        empty when nothing was dirty.  A *budget* bounds the kernel pass,
        and its exhaustion raises (the whole-graph build uses this)."""
        nodes_dirty = self._dirty_nodes
        edges_dirty = self._dirty_edges
        groups_dirty = self._dirty_groups
        removed: list[Violation] = []
        added: list[Violation] = []
        if not (nodes_dirty or edges_dirty or groups_dirty or self._dirty_keys):
            return removed, added
        self._dirty_nodes = {}
        self._dirty_edges = {}
        self._dirty_groups = {}
        dirty = (nodes_dirty, edges_dirty, groups_dirty, removed, added, budget)
        if obs.active() is None:
            keys = self._flush(*dirty)
        else:
            with obs.span("incremental.flush") as span:
                keys = self._flush(*dirty)
                span.set(
                    nodes=len(nodes_dirty),
                    edges=len(edges_dirty),
                    groups=len(groups_dirty),
                    key_scopes=keys,
                )
            # once per scope per flush, however often mutations touched it
            obs.count("validation.rechecks.node", len(nodes_dirty))
            obs.count("validation.rechecks.edge", len(edges_dirty))
            obs.count("validation.rechecks.edge_group", len(groups_dirty))
            obs.count("validation.rechecks.key_scope", keys)
        return removed, added

    def _flush(
        self,
        nodes_dirty: dict["ElementId", None],
        edges_dirty: dict["ElementId", None],
        groups_dirty: dict[ScopeKey, None],
        removed: list[Violation],
        added: list[Violation],
        budget: "Budget | None",
    ) -> int:
        """The flush's work; returns how many key scopes it rechecked."""
        entries = self._violations

        def store(scope: ScopeKey, violations: list[Violation] | None) -> None:
            previous = entries.pop(scope, None)
            if previous is not None:
                removed.extend(previous)
            if violations:
                entries[scope] = violations
                added.extend(violations)

        graph = self.graph
        label_of = graph.label
        endpoints = graph.endpoints
        nodes = [(node, label_of(node)) for node in nodes_dirty if graph.is_node(node)]
        edges = [self._edge_record(edge) for edge in edges_dirty if graph.is_edge(edge)]
        source_groups: list[tuple["ElementId", str, list[EdgeRecord]]] = []
        target_groups: list[tuple["ElementId", str, list[EdgeRecord]]] = []
        for scope in groups_dirty:
            direction, node, label = scope
            if direction == "out":
                records = [self._edge_record(edge) for edge in graph.out_edges(node, label)]
                if len(records) >= 2:  # the pairwise rules are vacuous below two
                    source_groups.append((node, label, records))
            else:
                records = graph.in_edge_records(node, label)
                if len(records) >= 2:
                    target_groups.append((node, label, records))
        shard = GraphShard(
            0,
            nodes=nodes,
            edges=edges,
            source_groups=source_groups,
            target_groups=target_groups,
        )
        violations, triples = validate_shard(
            self.plan, graph, shard, _FLUSH_RULES, budget
        )

        # file each violation under the scope its rule defines
        found: dict[ScopeKey, list[Violation]] = {}
        for violation in violations:
            kind = _RULE_SCOPE[violation.rule]
            element = violation.elements[0]
            if kind == "out":
                scope = ("out", endpoints(element)[0], label_of(element))
            elif kind == "in":
                scope = ("in", endpoints(element)[1], label_of(element))
            else:
                scope = (kind, element)
            found.setdefault(scope, []).append(violation)
        for node in nodes_dirty:
            scope = ("node", node)
            store(scope, found.get(scope))
        for edge in edges_dirty:
            scope = ("edge", edge)
            store(scope, found.get(scope))
        for scope in groups_dirty:
            store(scope, found.get(scope))

        # re-sign the dirty nodes from the pass's DS7 triples
        if self._key_sites:
            width = len(self._key_sites)
            signed: dict["ElementId", list[tuple | None]] = {}
            for site_index, signature, node in triples:
                per_site = signed.get(node)
                if per_site is None:
                    per_site = signed[node] = [None] * width
                per_site[site_index] = signature
            node_signatures = self._node_signatures
            for node, _label in nodes:
                per_site = signed.get(node)
                if per_site != node_signatures.get(node):
                    self._unindex_node_signatures(node)
                    if per_site is not None:
                        self._index_node_signatures(node, per_site)

        # the key scopes whose membership moved
        keys_dirty = self._dirty_keys
        self._dirty_keys = {}
        key_sites = self._key_sites
        signatures = self._signatures
        for site_index, signature in keys_dirty:
            members = sorted(signatures[site_index].get(signature, ()), key=str)
            location = key_sites[site_index].location
            store(
                ("key", site_index, signature),
                [
                    Violation(
                        "DS7",
                        location,
                        pair,
                        "two distinct nodes agree on all key fields",
                    )
                    for pair in _ordered_pairs(members)
                ],
            )
        return len(keys_dirty)

    def _edge_record(self, edge: "ElementId") -> EdgeRecord:
        graph = self.graph
        source, target = graph.endpoints(edge)
        return (
            edge, source, target,
            graph.label(edge), graph.label(source), graph.label(target),
        )

    # ------------------------------------------------------------------ #
    # signature index maintenance
    # ------------------------------------------------------------------ #

    def _index_node_signatures(
        self, node: "ElementId", per_site: list[tuple | None]
    ) -> None:
        """Index *node* under its signature at each key site its label lies
        below; the groups it joins are dirty."""
        self._node_signatures[node] = per_site
        for site_index, signature in enumerate(per_site):
            if signature is not None:
                self._signatures[site_index].setdefault(signature, set()).add(node)
                self._dirty_keys[(site_index, signature)] = None

    def _unindex_node_signatures(self, node: "ElementId") -> None:
        """Drop *node* from the index; the groups it leaves are dirty."""
        per_site = self._node_signatures.pop(node, None)
        if per_site is None:
            return
        for site_index, signature in enumerate(per_site):
            if signature is not None:
                group = self._signatures[site_index].get(signature)
                if group is not None:
                    group.discard(node)
                    if not group:
                        del self._signatures[site_index][signature]
                self._dirty_keys[(site_index, signature)] = None


def migrated_validator(
    source: IncrementalValidator,
    new_schema: "GraphQLSchema",
    affected_labels: frozenset[str],
) -> tuple[IncrementalValidator, int]:
    """Migrate *source* to *new_schema*, rechecking only affected scopes.

    The caller (the CDC consumer's schema-change path) guarantees that the
    subtype relation, interface/union memberships and scalar/enum value
    sets are identical between the two schemas, and that every schema
    change only affects elements whose labels lie in *affected_labels*
    (plus edge scopes incident to such elements).  Under that contract the
    violation store entries of unaffected scopes remain exactly valid, so
    this function transfers them wholesale, marks dirty only:

    * per-node scopes of nodes with an affected label (the flush re-derives
      their DS7 key signatures under the new plan);
    * per-edge and edge-group scopes of edges with an affected endpoint;
    * key scopes whose signature index carried over (same ``(type,
      fields)`` site with the same scalar-field tuple) only where members
      moved, plus full index builds for sites new to the plan;

    and flushes them in one kernel pass.

    Returns the migrated validator and the number of scopes rechecked --
    the cost the E16 benchmark tracks.  Validation work is proportional to
    the affected population; the only whole-graph pass is a label
    comparison per edge to *find* the affected edges.
    """
    source.flush()
    graph = source.graph
    fresh = IncrementalValidator.__new__(IncrementalValidator)
    fresh._setup(new_schema, graph, None, source.budget)

    # -- remap the DS7 signature index by (type, fields) site identity --- #
    def identity(site: KeySite) -> tuple[str, tuple[str, ...]]:
        return (site.type_name, site.fields)

    # a duplicated site pairs with its duplicate, in order
    old_sites: dict[tuple, list[int]] = {}
    for i, site in enumerate(source._key_sites):
        old_sites.setdefault(identity(site), []).append(i)
    carried: dict[int, int] = {}  # new site index -> old site index
    for j, site in enumerate(fresh._key_sites):
        candidates = old_sites.get(identity(site))
        if candidates:
            i = candidates.pop(0)
            if source.plan.key_scalar_fields[i] == fresh.plan.key_scalar_fields[j]:
                carried[j] = i
    width = len(fresh._key_sites)
    fresh._signatures = [
        source._signatures[carried[j]] if j in carried else {} for j in range(width)
    ]
    for node, per_site in source._node_signatures.items():
        moved = [per_site[carried[j]] if j in carried else None for j in range(width)]
        if any(signature is not None for signature in moved):
            fresh._node_signatures[node] = moved

    # -- transfer the violation store, rekeying DS7 scopes --------------- #
    old_to_new = {i: j for j, i in carried.items()}
    for scope, violations in source._violations.items():
        if scope[0] == "key":
            mapped = old_to_new.get(scope[1])
            if mapped is not None:
                fresh._violations[("key", mapped, scope[2])] = violations
        else:
            fresh._violations[scope] = violations

    # -- mark the affected scopes dirty, then flush once ----------------- #
    resigned: set["ElementId"] = set()

    def resign(node: "ElementId") -> None:
        resigned.add(node)
        fresh._dirty_nodes[node] = None
        for j, signature in enumerate(fresh._node_signatures.get(node) or ()):
            if signature is not None:
                fresh._dirty_keys[(j, signature)] = None

    affected_nodes: set["ElementId"] = set()
    for label in affected_labels:
        affected_nodes.update(graph.nodes_with_label(label))
    for node in affected_nodes:
        resign(node)
    # sites new to the plan must index their whole label population, even
    # the part outside affected_labels (defensive: the caller's affected
    # set normally covers it)
    for j, site in enumerate(fresh._key_sites):
        if j in carried:
            continue
        for label in labels_below(new_schema, site.type_name):
            if label not in affected_labels:
                for node in graph.nodes_with_label(label):
                    resign(node)

    affected_edges = 0
    for edge in graph.edges:
        edge_source, edge_target = graph.endpoints(edge)
        if (
            graph.label(edge_source) in affected_labels
            or graph.label(edge_target) in affected_labels
        ):
            affected_edges += 1
            label = graph.label(edge)
            fresh._dirty_edges[edge] = None
            fresh._dirty_groups[("out", edge_source, label)] = None
            fresh._dirty_groups[("in", edge_target, label)] = None
    groups = len(fresh._dirty_groups)
    # the key scopes the re-signed nodes left or joined, or stayed in
    touched_keys = set(fresh._dirty_keys)
    fresh.flush()
    for node in resigned:
        for j, signature in enumerate(fresh._node_signatures.get(node) or ()):
            if signature is not None:
                touched_keys.add((j, signature))
    rechecked = len(affected_nodes) + affected_edges + groups + len(touched_keys)
    return fresh, rechecked
