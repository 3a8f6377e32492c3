"""A read-only, records-first view of a Property Graph.

The fused validation kernel (:func:`~repro.validation.parallel.validate_shard`)
never asks a graph for one element's label or endpoints: it walks
pre-resolved *records* and reads four things besides them -- an element's
property map, a node's out-degree per edge label (DS6), the incoming edges
of a node per edge label (DS4), and the ``(source, label)`` /
``(target, label)`` edge groups (WS4/DS1/DS3).  :class:`GraphRecords` is
exactly that and nothing more:

* ``nodes`` -- ``(node, label)`` records in document order;
* ``edges`` -- ``(edge, source, target, edge label, source label, target
  label)`` records in document order;
* the property maps, shared with whatever the view was built from;
* every ``(source, label)`` and ``(target, label)`` group of edge records.

:func:`repro.pg.io.records_from_dict` builds it from a decoded JSON
document in one checked pass per element (the same checks and errors as
:func:`~repro.pg.io.graph_from_dict`) and one grouping pass over the edge
records, so a one-shot validation never builds the mutable
:class:`~repro.pg.model.PropertyGraph` or its incidence indexes.  :meth:`GraphRecords.from_graph` builds the same view over an
existing graph.  A view is also its own single validation shard: it has the
``nodes`` / ``edges`` / ``source_groups`` / ``target_groups`` of a
:class:`~repro.validation.shard.GraphShard` holding the whole graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

from .model import _EMPTY_PROPERTIES

if TYPE_CHECKING:  # pragma: no cover
    from .model import PropertyGraph
    from .values import PropertyValue

ElementId = Hashable

#: ``(edge, source, target, edge label, source label, target label)``.
EdgeRecord = tuple

#: ``(node or edge, edge label) -> edge records``, in edge order.
EdgeGroups = dict


def group_edges(edges: Iterable[EdgeRecord]) -> tuple[EdgeGroups, EdgeGroups]:
    """Group edge records by ``(source, label)`` and by ``(target, label)``,
    each group in edge order, the groups in order of first appearance."""
    by_source: EdgeGroups = {}
    by_target: EdgeGroups = {}
    for record in edges:
        group = by_source.get((record[1], record[3]))
        if group is None:
            by_source[(record[1], record[3])] = [record]
        else:
            group.append(record)
        group = by_target.get((record[2], record[3]))
        if group is None:
            by_target[(record[2], record[3])] = [record]
        else:
            group.append(record)
    return by_source, by_target


class GraphRecords:
    """Node and edge records of a Property Graph, plus what the fused kernel
    reads besides them (see the module docstring).  Read-only: nothing
    here copies the property maps it was given."""

    __slots__ = ("nodes", "edges", "_properties", "_by_source", "_by_target")

    #: A view is shard 0 of a one-shard partition.
    index = 0

    def __init__(
        self,
        nodes: list[tuple[ElementId, str]],
        edges: list[EdgeRecord],
        properties: "Mapping[ElementId, Mapping[str, PropertyValue]]",
    ) -> None:
        self.nodes = nodes
        self.edges = edges
        self._properties = properties
        self._by_source, self._by_target = group_edges(edges)

    @classmethod
    def from_graph(cls, graph: "PropertyGraph") -> "GraphRecords":
        """The view of an existing graph; it shares the graph's property
        maps, so it is only valid until the graph next changes."""
        return cls(list(graph.node_items()), graph.edge_records(), graph._properties)

    # ------------------------------------------------------------------ #
    # what the kernel reads
    # ------------------------------------------------------------------ #

    def property_map(self, element_id: ElementId) -> "Mapping[str, PropertyValue]":
        """The element's properties (empty for unknown elements); read-only."""
        return self._properties.get(element_id, _EMPTY_PROPERTIES)

    def out_degree(self, node_id: ElementId, label: str) -> int:
        """Number of outgoing edges with the given label."""
        group = self._by_source.get((node_id, label))
        return 0 if group is None else len(group)

    def in_edge_records(
        self, node_id: ElementId, label: str
    ) -> "list[EdgeRecord] | tuple[()]":
        """Records of the incoming edges with the given label; read-only."""
        return self._by_target.get((node_id, label), ())

    @property
    def source_groups(self) -> list[tuple[ElementId, str, list[EdgeRecord]]]:
        """``(source, label, records)`` for every group of two or more edges
        (the pairwise rules WS4/DS1 are vacuous on singletons)."""
        return [
            (source, label, group)
            for (source, label), group in self._by_source.items()
            if len(group) > 1
        ]

    @property
    def target_groups(self) -> list[tuple[ElementId, str, list[EdgeRecord]]]:
        """``(target, label, records)`` for every group of two or more edges."""
        return [
            (target, label, group)
            for (target, label), group in self._by_target.items()
            if len(group) > 1
        ]

    # ------------------------------------------------------------------ #
    # what partition_graph and ParallelValidator read
    # ------------------------------------------------------------------ #

    def node_items(self) -> list[tuple[ElementId, str]]:
        return self.nodes

    def edge_records(self) -> list[EdgeRecord]:
        return self.edges

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __len__(self) -> int:
        """|V| + |E|, like :meth:`PropertyGraph.__len__`."""
        return len(self.nodes) + len(self.edges)
