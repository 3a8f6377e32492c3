"""Scope-aware partitioning of a Property Graph into validation shards.

Theorem 1 places schema validation in AC0, so the work parallelises -- but
only if no rule's *scope* spans two workers.  The satisfaction rules fall
into three scope classes:

* **per-element** rules (WS1-WS3, DS2, DS4-DS6, SS1-SS4, EP1) read one node
  or one edge (plus that element's incident edges, which every worker can
  reach because workers share the whole graph);
* **edge-group** rules -- WS4 and DS1 quantify over the edges of one
  (source, label) group, DS3 over one (target, label) group;
* **key-group** rules -- DS7 quantifies over nodes agreeing on a key-value
  signature, which is only known after reading the nodes.

:func:`partition_graph` therefore shards each class independently: nodes and
edges by a *stable* hash of their identifier, edge groups by a hash of their
group key, so a group never straddles two shards.  DS7 is resolved by the
merge step instead (workers emit ``(site, signature, node)`` triples, the
merger groups them), because co-locating equal signatures would require
computing every signature up front -- exactly the work being distributed.

Shards carry pre-resolved *records* -- ``(node, label)`` pairs and
``(edge, source, target, edge label, source label, target label)`` tuples --
so the shard kernel never pays a per-element ``graph.label()`` /
``graph.endpoints()`` call on its hot paths; the single bulk resolution pass
happens here (in :meth:`PropertyGraph.edge_records`).

The hash (:func:`stable_bucket`) is ``zlib.crc32`` over the stringified
identifier, encoded with ``surrogatepass`` so a lone-surrogate id (valid
JSON) still hashes, *not* Python's ``hash()``: the builtin is salted per
process, which would make shard assignment differ between the parent and
spawned pool workers and between runs.  Stability is what makes two
parallel runs byte-identical.

Every element/group lands in exactly one shard and every shard preserves
graph iteration order, so the merged result of validating all shards equals
a sequential run (the differential tests enforce this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from zlib import crc32

from ..pg.records import group_edges
from ..record import Record

if TYPE_CHECKING:  # pragma: no cover
    from ..pg.model import ElementId, PropertyGraph
    from ..pg.records import GraphRecords

#: (node, label).
NodeRecord = tuple
#: (edge, source, target, edge label, source label, target label).
EdgeRecord = tuple


def stable_bucket(element: object, num_buckets: int, group: str = "", label: object = "") -> int:
    """The process-stable bucket of an element id or, with ``group`` "s" or
    "t", of the edges with that source or target and *label* (the WS4/DS1
    and DS3 groups): the one spelling of the keys both routers use."""
    key = f"{group}\x00{element}\x00{label}" if group else str(element)
    return crc32(key.encode("utf-8", "surrogatepass")) % num_buckets


class GraphShard(Record, frozen=False):
    """One worker's share of a Property Graph.

    ``source_groups`` and ``target_groups`` only carry groups with at least
    two edges -- the pairwise rules (WS4/DS1/DS3) are vacuous on singletons.
    """

    index: int
    nodes: list[NodeRecord] = []
    edges: list[EdgeRecord] = []
    #: (source, edge label, edge records) groups for WS4/DS1.
    source_groups: list[tuple["ElementId", str, list[EdgeRecord]]] = []
    #: (target, edge label, edge records) groups for DS3.
    target_groups: list[tuple["ElementId", str, list[EdgeRecord]]] = []

    def __init__(
        self,
        index: int,
        nodes: "list[NodeRecord] | None" = None,
        edges: "list[EdgeRecord] | None" = None,
        source_groups: "list[tuple[ElementId, str, list[EdgeRecord]]] | None" = None,
        target_groups: "list[tuple[ElementId, str, list[EdgeRecord]]] | None" = None,
    ) -> None:
        self.index = index
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.source_groups = [] if source_groups is None else source_groups
        self.target_groups = [] if target_groups is None else target_groups

    def __len__(self) -> int:
        return len(self.nodes) + len(self.edges)


def partition_graph(
    graph: "PropertyGraph | GraphRecords", num_shards: int
) -> list[GraphShard]:
    """Split *graph* into ``num_shards`` scope-respecting shards.

    The assignment depends only on the graph and ``num_shards`` -- never on
    the executor or the worker count actually used -- so a report merged
    from these shards is deterministic.  A one-shard run needs no
    partition: a :class:`~repro.pg.records.GraphRecords` view is its own
    single shard, and that is what
    :class:`~repro.validation.parallel.ParallelValidator` validates when it
    runs on one shard.
    """
    num_shards = max(1, num_shards)
    shards = [GraphShard(index) for index in range(num_shards)]
    edge_records = graph.edge_records()
    node_lists = [shard.nodes for shard in shards]
    for record in graph.node_items():
        node_lists[stable_bucket(record[0], num_shards)].append(record)
    edge_lists = [shard.edges for shard in shards]
    for record in edge_records:
        edge_lists[stable_bucket(record[0], num_shards)].append(record)
    _collect_groups(edge_records, shards, num_shards)
    return shards


def _collect_groups(
    edge_records: list[EdgeRecord],
    shards: list[GraphShard],
    num_shards: int,
) -> None:
    by_source, by_target = group_edges(edge_records)
    for (source, label), group in by_source.items():
        if len(group) < 2:
            continue
        bucket = stable_bucket(source, num_shards, "s", label)
        shards[bucket].source_groups.append((source, label, group))
    for (target, label), group in by_target.items():
        if len(group) < 2:
            continue
        bucket = stable_bucket(target, num_shards, "t", label)
        shards[bucket].target_groups.append((target, label, group))
