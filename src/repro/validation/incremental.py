"""Incremental re-validation after graph mutations (an extension feature).

:class:`IncrementalValidator` owns a Property Graph, keeps it strongly
validated, and updates the violation set after each mutation by re-checking
only the affected *scopes* instead of the whole graph:

* per-element scopes -- WS1/SS1/SS2/DS4/DS5/DS6 for one node, and
  WS2/WS3/SS3/SS4/DS2 for one edge;
* edge-group scopes -- WS4/DS1 for one (source, label) group and DS3 for one
  (target, label) group;
* key scopes -- DS7 for one (key site, key-value signature) group, with the
  signature index maintained incrementally.

Every element and edge-group recheck runs the fused plan kernel that
one-shot validation and the service run
(:func:`~repro.validation.parallel.validate_shard`) over a
:class:`~repro.validation.shard.GraphShard` holding just that scope, and
the signature index takes its key-value signatures from the kernel's DS7
triples.  The rules thus have one implementation for one-shot, service and
live graphs.

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

#: The rules each scope's one-scope shard is checked for.
_NODE_RULES = ("WS1", "SS1", "SS2", "DS4", "DS5", "DS6")
_EDGE_RULES = ("WS2", "WS3", "SS3", "SS4", "DS2")
_GROUP_RULES = ("WS4", "DS1", "DS3")
_KEY_RULES = ("DS7",)


class IncrementalValidator:
    """Keeps a graph's strong-validation report current across mutations."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        graph: "PropertyGraph",
        plan: ValidationPlan | None = None,
        budget: "Budget | None" = None,
    ) -> None:
        """``budget`` bounds the initial full rebuild (the only unbounded
        sweep this engine performs).  Exhaustion *raises*
        :class:`~repro.errors.BudgetExhaustedError` rather than returning a
        partial validator: a half-built violation cache would silently
        misreport every later incremental answer."""
        self.schema = schema
        self.graph = graph
        self.budget = budget
        # schema analysis is shared with the other engines via the plan
        self.plan = plan if plan is not None else compile_plan(schema)
        self._key_sites = self.plan.key_sites
        # scope key -> violations found in that scope
        self._violations: dict[ScopeKey, list[Violation]] = {}
        # key-site index -> signature -> set of nodes
        self._signatures: list[dict[tuple, set["ElementId"]]] = [
            {} for _ in self._key_sites
        ]
        self._node_signatures: dict["ElementId", list[tuple | None]] = {}
        self._full_rebuild()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def report(self) -> ValidationReport:
        """The current strong-validation report."""
        report = ValidationReport(mode="strong")
        for violations in self._violations.values():
            report.extend(violations)
        return report

    @property
    def conforms(self) -> bool:
        return all(not violations for violations in self._violations.values())

    def add_node(
        self,
        node_id: "ElementId",
        label: str,
        properties: Mapping[str, object] | None = None,
    ) -> None:
        self.graph.add_node(node_id, label, properties)
        self._index_node_signatures(node_id)
        self._recheck_node(node_id)
        self._recheck_key_scopes_of(node_id)

    def remove_node(self, node_id: "ElementId") -> None:
        touched_edges = set(self.graph.out_edges(node_id)) | set(
            self.graph.in_edges(node_id)
        )
        neighbour_scopes: set[ScopeKey] = set()
        affected_nodes: set["ElementId"] = set()
        for edge in touched_edges:
            source, target = self.graph.endpoints(edge)
            label = self.graph.label(edge)
            neighbour_scopes.add(("out", source, label))
            neighbour_scopes.add(("in", target, label))
            affected_nodes.update((source, target))
            self._violations.pop(("edge", edge), None)
        self._unindex_node_signatures(node_id)
        self.graph.remove_node(node_id)
        self._violations.pop(("node", node_id), None)
        affected_nodes.discard(node_id)
        for scope in neighbour_scopes:
            if scope[1] != node_id:
                self._recheck_edge_group(scope)
            else:
                self._violations.pop(scope, None)
        for node in affected_nodes:
            self._recheck_node(node)
        self._recheck_key_scopes_of(node_id, removed=True)

    def add_edge(
        self,
        edge_id: "ElementId",
        source: "ElementId",
        target: "ElementId",
        label: str,
        properties: Mapping[str, object] | None = None,
    ) -> None:
        self.graph.add_edge(edge_id, source, target, label, properties)
        self._recheck_edge(edge_id)
        self._recheck_edge_group(("out", source, label))
        self._recheck_edge_group(("in", target, label))
        self._recheck_node(source)
        self._recheck_node(target)

    def remove_edge(self, edge_id: "ElementId") -> None:
        source, target = self.graph.endpoints(edge_id)
        label = self.graph.label(edge_id)
        self.graph.remove_edge(edge_id)
        self._violations.pop(("edge", edge_id), None)
        self._recheck_edge_group(("out", source, label))
        self._recheck_edge_group(("in", target, label))
        self._recheck_node(source)
        self._recheck_node(target)

    def set_property(self, element_id: "ElementId", name: str, value: object) -> None:
        self._change_property(element_id, lambda: self.graph.set_property(element_id, name, value))

    def remove_property(self, element_id: "ElementId", name: str) -> None:
        self._change_property(element_id, lambda: self.graph.remove_property(element_id, name))

    def _change_property(self, element_id: "ElementId", mutate) -> None:
        if not self.graph.is_node(element_id):
            mutate()
            self._recheck_edge(element_id)
            return
        old_signatures = list(self._node_signatures.get(element_id) or ())
        self._unindex_node_signatures(element_id)
        mutate()
        self._index_node_signatures(element_id)
        self._recheck_node(element_id)
        # both the groups the node left and the groups it joined change
        for site_index, signature in enumerate(old_signatures):
            if signature is not None:
                self._recheck_key_scope(site_index, signature)
        self._recheck_key_scopes_of(element_id)

    # ------------------------------------------------------------------ #
    # scope recomputation
    # ------------------------------------------------------------------ #

    def _full_rebuild(self) -> None:
        with obs.span(
            "validation.run", engine="incremental", elements=len(self.graph)
        ):
            self._rebuild_scopes()
        if obs.active() is not None:
            obs.count("validation.runs")

    def _rebuild_scopes(self) -> None:
        budget = self.budget.renew() if self.budget is not None else None
        rebuilt = 0
        self._violations.clear()
        for holder in self._signatures:
            holder.clear()
        self._node_signatures.clear()
        for node in self.graph.nodes:
            if budget is not None:
                rebuilt += 1
                if not rebuilt % 1024:
                    budget.check_deadline(site="validation.incremental")
            self._index_node_signatures(node)
            self._recheck_node(node)
        for edge in self.graph.edges:
            if budget is not None:
                rebuilt += 1
                if not rebuilt % 1024:
                    budget.check_deadline(site="validation.incremental")
            self._recheck_edge(edge)
        seen_groups: set[ScopeKey] = set()
        for edge in self.graph.edges:
            source, target = self.graph.endpoints(edge)
            label = self.graph.label(edge)
            for scope in (("out", source, label), ("in", target, label)):
                if scope not in seen_groups:
                    seen_groups.add(scope)
                    self._recheck_edge_group(scope)
        for site_index in range(len(self._key_sites)):
            for signature in self._signatures[site_index]:
                self._recheck_key_scope(site_index, signature)

    def _kernel(self, shard: GraphShard, rules: tuple[str, ...]) -> list[Violation]:
        return validate_shard(self.plan, self.graph, shard, rules)[0]

    def _edge_record(self, edge: "ElementId") -> EdgeRecord:
        graph = self.graph
        source, target = graph.endpoints(edge)
        return (
            edge, source, target,
            graph.label(edge), graph.label(source), graph.label(target),
        )

    def _recheck_node(self, node: "ElementId") -> None:
        """Re-run the per-node rules (WS1/SS1/SS2/DS4/DS5/DS6) for one node."""
        obs.count("validation.rechecks.node")
        shard = GraphShard(0, nodes=[(node, self.graph.label(node))])
        self._store(("node", node), self._kernel(shard, _NODE_RULES))

    def _recheck_edge(self, edge: "ElementId") -> None:
        """Re-run the per-edge rules (WS2/WS3/SS3/SS4/DS2) for one edge."""
        obs.count("validation.rechecks.edge")
        shard = GraphShard(0, edges=[self._edge_record(edge)])
        self._store(("edge", edge), self._kernel(shard, _EDGE_RULES))

    def _recheck_edge_group(self, scope: ScopeKey) -> None:
        """Re-run WS4/DS1 for one (source, label) group or DS3 for one
        (target, label) group.  Like the kernel's shards, a group with
        fewer than two edges holds nothing: the pairwise rules are vacuous
        on it."""
        obs.count("validation.rechecks.edge_group")
        direction, node, label = scope
        graph = self.graph
        records: list[EdgeRecord] = []
        if graph.is_node(node):
            if direction == "out":
                records = [self._edge_record(edge) for edge in graph.out_edges(node, label)]
            else:
                records = graph.in_edge_records(node, label)
        if len(records) < 2:
            self._violations.pop(scope, None)
            return
        group = [(node, label, records)]
        if direction == "out":
            shard = GraphShard(0, source_groups=group)
        else:
            shard = GraphShard(0, target_groups=group)
        self._store(scope, self._kernel(shard, _GROUP_RULES))

    def _recheck_key_scopes_of(
        self, node: "ElementId", removed: bool = False
    ) -> None:
        """Re-check the DS7 groups that contain (or contained) *node*."""
        signatures = self._node_signatures.get(node)
        if removed:
            signatures = self._last_removed_signatures
        if not signatures:
            return
        for site_index, signature in enumerate(signatures):
            if signature is not None:
                self._recheck_key_scope(site_index, signature)

    def _recheck_key_scope(self, site_index: int, signature: tuple) -> None:
        obs.count("validation.rechecks.key_scope")
        site = self._key_sites[site_index]
        members = sorted(
            self._signatures[site_index].get(signature, ()), key=str
        )
        found = [
            Violation(
                "DS7",
                site.location,
                (v1, v2),
                "two distinct nodes agree on all key fields",
            )
            for v1, v2 in _ordered_pairs(members)
        ]
        self._store(("key", site_index, signature), found)

    # ------------------------------------------------------------------ #
    # signature index maintenance
    # ------------------------------------------------------------------ #

    def _index_node_signatures(self, node: "ElementId") -> None:
        """Index *node* under the key-value signature the kernel's DS7 pass
        computes for each key site its label lies below."""
        per_site: list[tuple | None] = [None] * len(self._key_sites)
        shard = GraphShard(0, nodes=[(node, self.graph.label(node))])
        triples = validate_shard(self.plan, self.graph, shard, _KEY_RULES)[1]
        for site_index, signature, _node in triples:
            per_site[site_index] = signature
            self._signatures[site_index].setdefault(signature, set()).add(node)
        self._node_signatures[node] = per_site

    def _unindex_node_signatures(self, node: "ElementId") -> None:
        per_site = self._node_signatures.pop(node, None)
        self._last_removed_signatures = per_site
        if per_site is None:
            return
        for site_index, signature in enumerate(per_site):
            if signature is not None:
                group = self._signatures[site_index].get(signature)
                if group is not None:
                    group.discard(node)
                    if not group:
                        del self._signatures[site_index][signature]

    _last_removed_signatures: list[tuple | None] | None = None

    def _store(self, scope: ScopeKey, violations: list[Violation]) -> None:
        if violations:
            self._violations[scope] = violations
        else:
            self._violations.pop(scope, None)


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
    this function transfers them wholesale and re-runs only:

    * per-node scopes of nodes with an affected label (re-deriving their
      DS7 key signatures under the new plan);
    * per-edge and edge-group scopes of edges with an affected endpoint;
    * key scopes whose signature index carried over (same ``(type,
      fields)`` site with the same scalar-field tuple) only where members
      moved, plus full index builds for sites new to the plan.

    Returns the migrated validator and the number of scopes rechecked --
    the cost the E16 benchmark tracks.  Validation work is proportional to
    the affected population; the only whole-graph pass is a label
    comparison per edge to *find* the affected edges.
    """
    graph = source.graph
    fresh = IncrementalValidator.__new__(IncrementalValidator)
    fresh.schema = new_schema
    fresh.graph = graph
    fresh.budget = source.budget
    fresh.plan = compile_plan(new_schema)
    fresh._key_sites = fresh.plan.key_sites

    # -- remap the DS7 signature index by (type, fields) site identity --- #
    def identity(site: KeySite) -> tuple[str, tuple[str, ...]]:
        return (site.type_name, site.fields)

    old_index = {identity(site): i for i, site in enumerate(source._key_sites)}
    carried: dict[int, int] = {}  # new site index -> old site index
    for j, site in enumerate(fresh._key_sites):
        i = old_index.get(identity(site))
        if i is not None and (
            source.plan.key_scalar_fields[i] == fresh.plan.key_scalar_fields[j]
        ):
            carried[j] = i
    fresh._signatures = [
        source._signatures[carried[j]] if j in carried else {}
        for j in range(len(fresh._key_sites))
    ]
    fresh._node_signatures = {
        node: [
            per_site[carried[j]] if j in carried else None
            for j in range(len(fresh._key_sites))
        ]
        for node, per_site in source._node_signatures.items()
    }

    # -- transfer the violation store, rekeying DS7 scopes --------------- #
    old_to_new = {i: j for j, i in carried.items()}
    fresh._violations = {}
    for scope, violations in source._violations.items():
        if scope[0] == "key":
            mapped = old_to_new.get(scope[1])
            if mapped is not None:
                fresh._violations[("key", mapped, scope[2])] = violations
        else:
            fresh._violations[scope] = violations

    # -- recheck the affected scopes ------------------------------------- #
    rechecked = 0
    touched_key_scopes: set[tuple[int, tuple]] = set()

    def reindex(node: "ElementId") -> None:
        before = fresh._node_signatures.get(node)
        if before:
            for j, signature in enumerate(before):
                if signature is not None:
                    touched_key_scopes.add((j, signature))
        fresh._unindex_node_signatures(node)
        fresh._index_node_signatures(node)
        for j, signature in enumerate(fresh._node_signatures[node]):
            if signature is not None:
                touched_key_scopes.add((j, signature))

    affected_nodes: set["ElementId"] = set()
    for label in affected_labels:
        affected_nodes.update(graph.nodes_with_label(label))
    for node in affected_nodes:
        reindex(node)
        fresh._recheck_node(node)
        rechecked += 1
    # sites new to the plan must index their whole label population, even
    # the part outside affected_labels (defensive: the caller's affected
    # set normally covers it)
    for j, site in enumerate(fresh._key_sites):
        if j in carried:
            continue
        for label in labels_below(new_schema, site.type_name):
            if label in affected_labels:
                continue
            for node in graph.nodes_with_label(label):
                reindex(node)

    groups: set[ScopeKey] = set()
    for edge in graph.edges:
        edge_source, edge_target = graph.endpoints(edge)
        if (
            graph.label(edge_source) in affected_labels
            or graph.label(edge_target) in affected_labels
        ):
            fresh._recheck_edge(edge)
            rechecked += 1
            label = graph.label(edge)
            groups.add(("out", edge_source, label))
            groups.add(("in", edge_target, label))
    for scope in groups:
        fresh._recheck_edge_group(scope)
        rechecked += 1
    for j, signature in sorted(touched_key_scopes, key=lambda pair: (pair[0], str(pair[1]))):
        fresh._recheck_key_scope(j, signature)
        rechecked += 1
    return fresh, rechecked
