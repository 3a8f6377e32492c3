"""The Property Graph data model (Definition 2.1 of the paper).

A Property Graph is a tuple ``(V, E, ρ, λ, σ)`` where ``V`` and ``E`` are
disjoint finite sets of node and edge identifiers, ``ρ : E → V × V`` maps
every edge to its (source, target) pair, ``λ : V ∪ E → Labels`` assigns a
label to every node and edge, and ``σ : (V ∪ E) × Props ⇀ Values`` is a
partial function assigning property values.

:class:`PropertyGraph` realises this definition directly.  Identifiers may be
any hashable Python values (strings and integers in practice).  The class
additionally maintains incidence indexes (outgoing/incoming edges per node,
grouped by edge label) because both the indexed validator and the GraphQL
query executor need them; the indexes are pure acceleration structures and
carry no semantics of their own.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping

from ..errors import GraphError
from .values import PropertyValue, normalize_value

ElementId = Hashable

#: Shared empty mapping returned by :meth:`PropertyGraph.property_map` for
#: elements without properties.  A read-only proxy, not a plain dict: it is
#: shared across every element of every graph, so a caller mutating it
#: would silently give *all* property-less elements phantom properties.
_EMPTY_PROPERTIES: Mapping[str, PropertyValue] = MappingProxyType({})


class PropertyGraph:
    """A mutable Property Graph per Definition 2.1.

    Example:
        >>> g = PropertyGraph()
        >>> g.add_node("u1", "User", {"login": "alice"})
        'u1'
        >>> g.add_node("s1", "UserSession", {"startTime": "12:00"})
        's1'
        >>> g.add_edge("e1", "s1", "u1", "user", {"certainty": 0.9})
        'e1'
        >>> g.label("e1")
        'user'
    """

    __slots__ = (
        "_node_labels",
        "_edge_labels",
        "_endpoints",
        "_properties",
        "_out",
        "_in",
    )

    def __init__(self) -> None:
        self._node_labels: dict[ElementId, str] = {}
        self._edge_labels: dict[ElementId, str] = {}
        self._endpoints: dict[ElementId, tuple[ElementId, ElementId]] = {}
        self._properties: dict[ElementId, dict[str, PropertyValue]] = {}
        # incidence indexes: node -> edge label -> list of edge ids
        self._out: dict[ElementId, dict[str, list[ElementId]]] = {}
        self._in: dict[ElementId, dict[str, list[ElementId]]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_node(
        self,
        node_id: ElementId,
        label: str,
        properties: Mapping[str, object] | None = None,
    ) -> ElementId:
        """Add a node with the given *label* and optional *properties*.

        Returns the node id so construction chains read naturally.
        Raises :class:`GraphError` if the id is already used by a node or an
        edge (V and E must be disjoint and ids unique).
        """
        if node_id in self._node_labels or node_id in self._edge_labels:
            raise GraphError(f"element id already in use: {node_id!r}")
        if not isinstance(label, str):
            raise GraphError(f"labels must be strings, got {label!r}")
        self._node_labels[node_id] = label
        if properties:
            self._properties[node_id] = {
                name: normalize_value(value) for name, value in properties.items()
            }
        return node_id

    def add_edge(
        self,
        edge_id: ElementId,
        source: ElementId,
        target: ElementId,
        label: str,
        properties: Mapping[str, object] | None = None,
    ) -> ElementId:
        """Add an edge from *source* to *target* with the given *label*.

        Both endpoints must already exist as nodes (ρ is total into V × V).
        """
        if edge_id in self._node_labels or edge_id in self._edge_labels:
            raise GraphError(f"element id already in use: {edge_id!r}")
        if source not in self._node_labels:
            raise GraphError(f"edge source is not a node: {source!r}")
        if target not in self._node_labels:
            raise GraphError(f"edge target is not a node: {target!r}")
        if not isinstance(label, str):
            raise GraphError(f"labels must be strings, got {label!r}")
        self._edge_labels[edge_id] = label
        self._endpoints[edge_id] = (source, target)
        self._out.setdefault(source, {}).setdefault(label, []).append(edge_id)
        self._in.setdefault(target, {}).setdefault(label, []).append(edge_id)
        if properties:
            self._properties[edge_id] = {
                name: normalize_value(value) for name, value in properties.items()
            }
        return edge_id

    def set_property(self, element_id: ElementId, name: str, value: object) -> None:
        """Set σ(element, name) = value (normalising the value representation)."""
        self._require_element(element_id)
        self._properties.setdefault(element_id, {})[name] = normalize_value(value)

    def remove_property(self, element_id: ElementId, name: str) -> None:
        """Remove (element, name) from the domain of σ; no-op if absent."""
        props = self._properties.get(element_id)
        if props is not None:
            props.pop(name, None)
            if not props:
                del self._properties[element_id]

    def remove_edge(self, edge_id: ElementId) -> None:
        """Remove an edge and its properties."""
        if edge_id not in self._edge_labels:
            raise GraphError(f"no such edge: {edge_id!r}")
        source, target = self._endpoints.pop(edge_id)
        label = self._edge_labels.pop(edge_id)
        self._out[source][label].remove(edge_id)
        self._in[target][label].remove(edge_id)
        self._properties.pop(edge_id, None)

    def remove_node(self, node_id: ElementId) -> None:
        """Remove a node, its properties, and every incident edge."""
        if node_id not in self._node_labels:
            raise GraphError(f"no such node: {node_id!r}")
        incident = [
            edge
            for edges_by_label in (self._out.get(node_id, {}), self._in.get(node_id, {}))
            for edges in edges_by_label.values()
            for edge in edges
        ]
        for edge in set(incident):
            self.remove_edge(edge)
        del self._node_labels[node_id]
        self._properties.pop(node_id, None)
        self._out.pop(node_id, None)
        self._in.pop(node_id, None)

    # ------------------------------------------------------------------ #
    # the five components of Definition 2.1
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Iterator[ElementId]:
        """Iterate over V."""
        return iter(self._node_labels)

    @property
    def edges(self) -> Iterator[ElementId]:
        """Iterate over E."""
        return iter(self._edge_labels)

    def endpoints(self, edge_id: ElementId) -> tuple[ElementId, ElementId]:
        """ρ(e): the (source, target) pair of an edge."""
        try:
            return self._endpoints[edge_id]
        except KeyError:
            raise GraphError(f"no such edge: {edge_id!r}") from None

    def label(self, element_id: ElementId) -> str:
        """λ(x): the label of a node or edge."""
        label = self._node_labels.get(element_id)
        if label is None:
            label = self._edge_labels.get(element_id)
        if label is None:
            raise GraphError(f"no such element: {element_id!r}")
        return label

    def properties(self, element_id: ElementId) -> Mapping[str, PropertyValue]:
        """All properties of an element as a read-only mapping (may be empty)."""
        self._require_element(element_id)
        return dict(self._properties.get(element_id, {}))

    def property_value(self, element_id: ElementId, name: str) -> PropertyValue | None:
        """σ(element, name), or None when (element, name) ∉ dom(σ)."""
        return self._properties.get(element_id, {}).get(name)

    def has_property(self, element_id: ElementId, name: str) -> bool:
        """True when (element, name) ∈ dom(σ)."""
        return name in self._properties.get(element_id, {})

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    def is_node(self, element_id: ElementId) -> bool:
        return element_id in self._node_labels

    def is_edge(self, element_id: ElementId) -> bool:
        return element_id in self._edge_labels

    @property
    def num_nodes(self) -> int:
        return len(self._node_labels)

    @property
    def num_edges(self) -> int:
        return len(self._edge_labels)

    def out_edges(self, node_id: ElementId, label: str | None = None) -> list[ElementId]:
        """Edges whose source is *node_id*, optionally restricted to one label."""
        by_label = self._out.get(node_id, {})
        if label is not None:
            return list(by_label.get(label, ()))
        return [edge for edges in by_label.values() for edge in edges]

    def in_edges(self, node_id: ElementId, label: str | None = None) -> list[ElementId]:
        """Edges whose target is *node_id*, optionally restricted to one label."""
        by_label = self._in.get(node_id, {})
        if label is not None:
            return list(by_label.get(label, ()))
        return [edge for edges in by_label.values() for edge in edges]

    def out_degree(self, node_id: ElementId, label: str) -> int:
        """Number of outgoing edges with the given label (no list copy)."""
        edges = self._out.get(node_id)
        if not edges:
            return 0
        return len(edges.get(label, ()))

    def in_edge_records(
        self, node_id: ElementId, label: str
    ) -> list[tuple[ElementId, ElementId, ElementId, str, str, str]]:
        """Incoming edges with the given label as :meth:`edge_records`
        tuples (the accessor :class:`~repro.pg.records.GraphRecords` shares,
        so the fused kernel reads DS4's source labels from either)."""
        edges = self._in.get(node_id)
        if not edges:
            return []
        endpoints = self._endpoints
        node_labels = self._node_labels
        target_label = node_labels[node_id]
        records = []
        for edge in edges.get(label, ()):
            source = endpoints[edge][0]
            records.append(
                (edge, source, node_id, label, node_labels[source], target_label)
            )
        return records

    def property_map(self, element_id: ElementId) -> Mapping[str, PropertyValue]:
        """The element's property dict *without* copying (hot-path accessor
        for the validators).  The result must be treated as read-only; use
        :meth:`properties` for a detached copy.  Unlike :meth:`properties`
        this does not verify the element exists -- absent elements simply
        yield an empty mapping."""
        return self._properties.get(element_id, _EMPTY_PROPERTIES)

    def nodes_with_label(self, label: str) -> list[ElementId]:
        """All nodes v with λ(v) = label (linear scan; validators keep their own index)."""
        return [node for node, node_label in self._node_labels.items() if node_label == label]

    def property_items(self) -> Iterator[tuple[ElementId, str, PropertyValue]]:
        """Iterate over dom(σ) as (element, property name, value) triples."""
        for element, props in self._properties.items():
            for name, value in props.items():
                yield element, name, value

    def node_items(self) -> Iterable[tuple[ElementId, str]]:
        """All (node, λ(node)) pairs as a read-only bulk view (one dict
        iteration instead of a :meth:`label` call per node)."""
        return self._node_labels.items()

    def edge_records(
        self,
    ) -> list[tuple[ElementId, ElementId, ElementId, str, str, str]]:
        """All (edge, source, target, λ(edge), λ(source), λ(target)) tuples
        in one bulk pass (the validators' substitute for per-edge
        :meth:`endpoints`/:meth:`label` calls)."""
        endpoints = self._endpoints
        node_labels = self._node_labels
        records = []
        append = records.append
        for edge, label in self._edge_labels.items():
            source, target = endpoints[edge]
            append((edge, source, target, label, node_labels[source], node_labels[target]))
        return records

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def copy(self) -> "PropertyGraph":
        """A deep-enough copy (values are immutable, so sharing them is safe)."""
        clone = PropertyGraph()
        clone._node_labels = dict(self._node_labels)
        clone._edge_labels = dict(self._edge_labels)
        clone._endpoints = dict(self._endpoints)
        clone._properties = {elem: dict(props) for elem, props in self._properties.items()}
        clone._out = {
            node: {label: list(edges) for label, edges in by_label.items()}
            for node, by_label in self._out.items()
        }
        clone._in = {
            node: {label: list(edges) for label, edges in by_label.items()}
            for node, by_label in self._in.items()
        }
        return clone

    def __contains__(self, element_id: object) -> bool:
        return element_id in self._node_labels or element_id in self._edge_labels

    def __len__(self) -> int:
        """Size of the graph: |V| + |E| (the n of the complexity analysis)."""
        return self.num_nodes + self.num_edges

    def __repr__(self) -> str:
        return f"PropertyGraph(nodes={self.num_nodes}, edges={self.num_edges})"

    def _require_element(self, element_id: ElementId) -> None:
        if element_id not in self._node_labels and element_id not in self._edge_labels:
            raise GraphError(f"no such element: {element_id!r}")
