"""Columnar, frozen Property Graphs: interned pools and contiguous columns.

:class:`ColumnarGraph` is an immutable backing store for a Property Graph
(Definition 2.1) that replaces the dict-of-dicts layout of
:class:`~repro.pg.model.PropertyGraph` with contiguous arrays:

* **interned string pools** -- every label and property key is interned
  once into a :class:`StringPool`; elements carry dense integer ids, so
  the hot loops compare ints instead of hashing strings;
* **label-sorted row orders** -- nodes are permuted so that equal labels
  form contiguous *runs* (``node_runs``), and edges so that equal
  (source label, edge label) shapes do (``edge_runs``); the fused shard
  kernel resolves its per-label dispatch record once per run instead of
  once per element;
* **CSR incidence** -- outgoing/incoming edges live in one flat array per
  direction with per-node offsets, sorted by edge-label id inside each
  node's slice, so ``out_degree`` is two binary searches and no dict of
  lists exists per node;
* **typed property columns with presence bitmaps** -- each property key
  becomes one :class:`PropertyColumn` in row space; a popcount over the
  bitmap answers "how many nodes of this run carry the property" without
  touching the values, and columns whose value kind provably lies inside
  a scalar domain (``ScalarRegistry.accepts_kind``) let WS1/WS2 pass a
  whole run wholesale.

The class implements the full read API of :class:`PropertyGraph` (same
method names, same error messages), so every validation engine runs on it
unchanged; mutators raise :class:`~repro.errors.GraphError`.  Freeze a
mutable graph with :func:`freeze` (or ``graph.freeze()``), build one
directly from a loader with :class:`ColumnarBuilder`, and get a mutable
copy back with :meth:`ColumnarGraph.thaw`.

Integer columns use the stdlib :mod:`array` module.  The build-time
permutation sorts over more than 1024 keys go through ``np.argsort`` /
``np.lexsort`` when numpy is importable; numpy is imported on that first
large sort, not with this module, so a process that never freezes a big
graph never loads it.  numpy is never required and the stored
representation is identical (and picklable) either way.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import cache
from types import ModuleType
from typing import Any, Iterator, Mapping

from .. import obs
from ..errors import GraphError
from .model import _EMPTY_PROPERTIES, ElementId, PropertyGraph
from .values import PropertyValue, normalize_value

#: Sentinel group-role bits used by the out-of-core loader (re-exported
#: here so the spill format has one authoritative home).
ROLE_ELEMENT = 1
ROLE_SOURCE_GROUP = 2
ROLE_TARGET_GROUP = 4
ROLE_OUT_DEGREE = 8
ROLE_IN_DEGREE = 16


class StringPool:
    """Interned strings with dense ids in first-appearance order."""

    __slots__ = ("_ids", "_strings")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._strings: list[str] = []

    def intern(self, value: str) -> int:
        """The id of *value*, interning it on first sight."""
        found = self._ids.get(value)
        if found is None:
            found = len(self._strings)
            self._ids[value] = found
            self._strings.append(value)
        return found

    def id_of(self, value: str) -> int:
        """The id of *value*, or ``-1`` when it was never interned."""
        return self._ids.get(value, -1)

    def __getitem__(self, index: int) -> str:
        return self._strings[index]

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, value: str) -> bool:
        return value in self._ids

    @property
    def strings(self) -> list[str]:
        """The interned strings, id order (a copy)."""
        return list(self._strings)


class PropertyColumn:
    """One property key's values over a row space, with a presence bitmap.

    ``kind`` is the uniform runtime kind of every stored value --
    ``"int"``, ``"float"``, ``"bool"``, ``"str"`` -- or ``"obj"`` when the
    values are tuples or mixed kinds.  The kind plus the build-time facts
    (``int_min``/``int_max``, ``floats_finite``, ``item_kind``) are what
    lets the columnar kernel accept a whole column against a scalar
    domain without per-value checks (see ``ScalarRegistry.accepts_kind``).
    """

    __slots__ = (
        "kind",
        "count",
        "size",
        "present",
        "values",
        "int_min",
        "int_max",
        "floats_finite",
        "has_empty_tuple",
        "item_kind",
        "item_int_min",
        "item_int_max",
        "item_floats_finite",
    )

    def __init__(self) -> None:
        self.kind = "obj"
        self.count = 0
        self.size = 0
        self.present = b""
        self.values: Any = None
        self.int_min = 0
        self.int_max = 0
        self.floats_finite = True
        self.has_empty_tuple = False
        #: uniform item kind when every value is a tuple: "str"/"bool"/
        #: "int"/"float"/"empty", or None (mixed items or non-tuple values)
        self.item_kind: str | None = None
        self.item_int_min = 0
        self.item_int_max = 0
        self.item_floats_finite = True

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls, pairs: list[tuple[int, PropertyValue]], size: int
    ) -> "PropertyColumn":
        """A column over ``size`` rows holding the given (row, value) pairs."""
        column = cls()
        column.size = size
        column.count = len(pairs)
        bitmap = bytearray((size + 7) >> 3)
        kind = _uniform_kind(pairs)
        column.kind = kind
        if kind == "int":
            values = array("q", bytes(8 * size))
            lo = hi = pairs[0][1] if pairs else 0
            for row, value in pairs:
                bitmap[row >> 3] |= 1 << (row & 7)
                values[row] = value  # type: ignore[call-overload]
                if value < lo:  # type: ignore[operator]
                    lo = value
                if value > hi:  # type: ignore[operator]
                    hi = value
            column.values = values
            column.int_min = int(lo)  # type: ignore[arg-type]
            column.int_max = int(hi)  # type: ignore[arg-type]
        elif kind == "float":
            values = array("d", bytes(8 * size))
            finite = True
            for row, value in pairs:
                bitmap[row >> 3] |= 1 << (row & 7)
                values[row] = value  # type: ignore[call-overload]
                if not (float("-inf") < value < float("inf")):  # type: ignore[operator]
                    finite = False  # NaN or +/-inf
            column.values = values
            column.floats_finite = finite
        elif kind == "bool":
            bits = bytearray((size + 7) >> 3)
            for row, value in pairs:
                bitmap[row >> 3] |= 1 << (row & 7)
                if value:
                    bits[row >> 3] |= 1 << (row & 7)
            column.values = bytes(bits)
        else:  # "str" / "obj": a list with None holes
            cells: list[Any] = [None] * size
            for row, value in pairs:
                bitmap[row >> 3] |= 1 << (row & 7)
                cells[row] = value
            column.values = cells
            if kind == "obj":
                column._inspect_items(pairs)
        column.present = bytes(bitmap)
        return column

    def _inspect_items(self, pairs: list[tuple[int, PropertyValue]]) -> None:
        """Compute the uniform tuple-item kind facts of an object column."""
        item_kinds: set[str] = set()
        lo = hi = 0
        seeded = False
        finite = True
        uniform = True
        for _row, value in pairs:
            if not isinstance(value, tuple):
                # Keep scanning: has_empty_tuple must still be computed so
                # the DS5 empty-list check fires on mixed columns.
                uniform = False
                continue
            if not value:
                self.has_empty_tuple = True
                continue
            if not uniform:
                continue
            for item in value:
                kind = _value_kind(item)
                item_kinds.add(kind)
                if kind == "int":
                    item = int(item)  # type: ignore[arg-type]
                    if not seeded:
                        lo = hi = item
                        seeded = True
                    elif item < lo:
                        lo = item
                    elif item > hi:
                        hi = item
                elif kind == "float" and not (
                    float("-inf") < item < float("inf")  # type: ignore[operator]
                ):
                    finite = False
        if not uniform:
            self.item_kind = None
        elif not item_kinds:
            self.item_kind = "empty"
        elif len(item_kinds) == 1:
            self.item_kind = item_kinds.pop()
            self.item_int_min = lo
            self.item_int_max = hi
            self.item_floats_finite = finite
        else:
            self.item_kind = None

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def has(self, row: int) -> bool:
        return bool(self.present[row >> 3] & (1 << (row & 7)))

    def get(self, row: int) -> PropertyValue:
        """The value at *row* (undefined when :meth:`has` is false)."""
        if self.kind == "bool":
            return bool(self.values[row >> 3] & (1 << (row & 7)))
        value: PropertyValue = self.values[row]
        return value

    def count_range(self, lo: int, hi: int) -> int:
        """Number of present rows in ``[lo, hi)`` (a bitmap popcount)."""
        if lo >= hi:
            return 0
        present = self.present
        first, last = lo >> 3, (hi - 1) >> 3
        tail_bits = ((hi - 1) & 7) + 1
        if first == last:
            mask = ((1 << tail_bits) - 1) & ~((1 << (lo & 7)) - 1)
            return (present[first] & mask).bit_count()
        total = (present[first] >> (lo & 7)).bit_count()
        mid = present[first + 1 : last]
        if mid:
            total += int.from_bytes(mid, "little").bit_count()
        total += (present[last] & ((1 << tail_bits) - 1)).bit_count()
        return total

    def iter_present(self, lo: int, hi: int) -> Iterator[int]:
        """Rows in ``[lo, hi)`` that hold a value (skipping empty bytes)."""
        present = self.present
        row = lo
        while row < hi:
            if not (row & 7) and row + 8 <= hi:
                byte = present[row >> 3]
                if not byte:
                    row += 8
                    continue
            if present[row >> 3] & (1 << (row & 7)):
                yield row
            row += 1

    def iter_absent(self, lo: int, hi: int) -> Iterator[int]:
        """Rows in ``[lo, hi)`` that hold no value (skipping full bytes)."""
        present = self.present
        row = lo
        while row < hi:
            if not (row & 7) and row + 8 <= hi:
                byte = present[row >> 3]
                if byte == 0xFF:
                    row += 8
                    continue
            if not present[row >> 3] & (1 << (row & 7)):
                yield row
            row += 1


def _value_kind(value: object) -> str:
    """The column kind tag of one atomic value (bool before int!)."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    return "obj"


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _uniform_kind(pairs: list[tuple[int, PropertyValue]]) -> str:
    """The storage kind of a column: a uniform atomic kind or ``obj``."""
    kind: str | None = None
    for _row, value in pairs:
        value_kind = _value_kind(value)
        if value_kind == "int" and not (
            _INT64_MIN <= value <= _INT64_MAX  # type: ignore[operator]
        ):
            return "obj"  # arbitrary-precision ints stay boxed
        if kind is None:
            kind = value_kind
        elif kind != value_kind:
            return "obj"
    if kind is None or kind == "obj":
        return "obj"
    return kind


class ColumnarGraph:
    """An immutable, array-backed Property Graph (see the module docstring).

    Instances are produced by :class:`ColumnarBuilder` / :func:`freeze`;
    the constructor builds an empty graph.  The read API is drop-in
    compatible with :class:`~repro.pg.model.PropertyGraph`; mutators raise
    :class:`~repro.errors.GraphError`.
    """

    #: Cheap backend test used by the partitioner and the stats sweep.
    is_columnar = True

    __slots__ = (
        "labels",
        "keys",
        "_node_ids",
        "_node_index",
        "_node_label_ids",
        "_node_row_of",
        "_node_ext_of",
        "_node_runs",
        "_edge_ids",
        "_edge_index",
        "_edge_label_ids",
        "_edge_src",
        "_edge_tgt",
        "_edge_row_of",
        "_edge_ext_of",
        "_edge_runs",
        "_out_starts",
        "_out_labels",
        "_out_edges",
        "_in_starts",
        "_in_labels",
        "_in_edges",
        "_node_columns",
        "_edge_columns",
        "_src_sets",
        "_pair_targets",
        "_run_target_labels",
        "_run_loops",
        "_run_distinct_sources",
        "_source_groups",
        "_target_groups",
    )

    def __init__(self) -> None:
        self.labels = StringPool()
        self.keys = StringPool()
        self._node_ids: list[ElementId] = []
        self._node_index: dict[ElementId, int] = {}
        self._node_label_ids = array("i")
        self._node_row_of = array("i")
        self._node_ext_of = array("i")
        #: (label id, start row, end row) runs, ascending label id.
        self._node_runs: list[tuple[int, int, int]] = []
        self._edge_ids: list[ElementId] = []
        self._edge_index: dict[ElementId, int] = {}
        self._edge_label_ids = array("i")
        self._edge_src = array("i")
        self._edge_tgt = array("i")
        self._edge_row_of = array("i")
        self._edge_ext_of = array("i")
        #: (source label id, edge label id, start row, end row) runs.
        self._edge_runs: list[tuple[int, int, int, int]] = []
        self._out_starts = array("i", (0,))
        self._out_labels = array("i")
        self._out_edges = array("i")
        self._in_starts = array("i", (0,))
        self._in_labels = array("i")
        self._in_edges = array("i")
        self._node_columns: dict[int, PropertyColumn] = {}
        self._edge_columns: dict[int, PropertyColumn] = {}
        # lazy, append-only caches (all derived; safe to drop)
        self._src_sets: dict[int, frozenset[int]] = {}
        self._pair_targets: dict[tuple[int, frozenset[int]], frozenset[int]] = {}
        self._run_target_labels: dict[int, frozenset[int]] = {}
        self._run_loops: dict[int, bool] = {}
        self._run_distinct_sources: dict[int, int] = {}
        self._source_groups: list[tuple[int, int, int, int]] | None = None
        self._target_groups: list[tuple[int, int, int, int]] | None = None

    # ------------------------------------------------------------------ #
    # mutators: frozen
    # ------------------------------------------------------------------ #

    def _frozen(self, operation: str) -> GraphError:
        return GraphError(
            f"graph is frozen: {operation} is not supported on a "
            "ColumnarGraph (thaw() for a mutable copy)"
        )

    def add_node(self, *args: object, **kwargs: object) -> ElementId:
        raise self._frozen("add_node")

    def add_edge(self, *args: object, **kwargs: object) -> ElementId:
        raise self._frozen("add_edge")

    def set_property(self, *args: object, **kwargs: object) -> None:
        raise self._frozen("set_property")

    def remove_property(self, *args: object, **kwargs: object) -> None:
        raise self._frozen("remove_property")

    def remove_edge(self, *args: object, **kwargs: object) -> None:
        raise self._frozen("remove_edge")

    def remove_node(self, *args: object, **kwargs: object) -> None:
        raise self._frozen("remove_node")

    # ------------------------------------------------------------------ #
    # the five components of Definition 2.1 (PropertyGraph-compatible)
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Iterator[ElementId]:
        """Iterate over V (insertion order)."""
        return iter(self._node_ids)

    @property
    def edges(self) -> Iterator[ElementId]:
        """Iterate over E (insertion order)."""
        return iter(self._edge_ids)

    def endpoints(self, edge_id: ElementId) -> tuple[ElementId, ElementId]:
        """ρ(e): the (source, target) pair of an edge."""
        ext = self._edge_index.get(edge_id)
        if ext is None:
            raise GraphError(f"no such edge: {edge_id!r}")
        ids = self._node_ids
        return ids[self._edge_src[ext]], ids[self._edge_tgt[ext]]

    def label(self, element_id: ElementId) -> str:
        """λ(x): the label of a node or edge."""
        ext = self._node_index.get(element_id)
        if ext is not None:
            return self.labels[self._node_label_ids[ext]]
        ext = self._edge_index.get(element_id)
        if ext is not None:
            return self.labels[self._edge_label_ids[ext]]
        raise GraphError(f"no such element: {element_id!r}")

    def properties(self, element_id: ElementId) -> Mapping[str, PropertyValue]:
        """All properties of an element as a detached dict (may be empty)."""
        self._require_element(element_id)
        return dict(self.property_map(element_id))

    def property_value(self, element_id: ElementId, name: str) -> PropertyValue | None:
        """σ(element, name), or None when (element, name) ∉ dom(σ)."""
        key_id = self.keys.id_of(name)
        if key_id < 0:
            return None
        row, columns = self._row_and_columns(element_id)
        if row < 0:
            return None
        column = columns.get(key_id)
        if column is None or not column.has(row):
            return None
        return column.get(row)

    def has_property(self, element_id: ElementId, name: str) -> bool:
        """True when (element, name) ∈ dom(σ)."""
        key_id = self.keys.id_of(name)
        if key_id < 0:
            return False
        row, columns = self._row_and_columns(element_id)
        if row < 0:
            return False
        column = columns.get(key_id)
        return column is not None and column.has(row)

    # ------------------------------------------------------------------ #
    # derived views (PropertyGraph-compatible)
    # ------------------------------------------------------------------ #

    def is_node(self, element_id: ElementId) -> bool:
        return element_id in self._node_index

    def is_edge(self, element_id: ElementId) -> bool:
        return element_id in self._edge_index

    @property
    def num_nodes(self) -> int:
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        return len(self._edge_ids)

    def out_edges(self, node_id: ElementId, label: str | None = None) -> list[ElementId]:
        """Edges whose source is *node_id*, optionally restricted to one label."""
        return self._incident(
            node_id, label, self._out_starts, self._out_labels, self._out_edges
        )

    def in_edges(self, node_id: ElementId, label: str | None = None) -> list[ElementId]:
        """Edges whose target is *node_id*, optionally restricted to one label."""
        return self._incident(
            node_id, label, self._in_starts, self._in_labels, self._in_edges
        )

    def _incident(
        self,
        node_id: ElementId,
        label: str | None,
        starts: "array[int]",
        labels: "array[int]",
        edges: "array[int]",
    ) -> list[ElementId]:
        ext = self._node_index.get(node_id)
        if ext is None:
            return []
        lo, hi = starts[ext], starts[ext + 1]
        if label is not None:
            label_id = self.labels.id_of(label)
            if label_id < 0:
                return []
            lo = bisect_left(labels, label_id, lo, hi)
            hi = bisect_right(labels, label_id, lo, hi)
        ids = self._edge_ids
        return [ids[edges[position]] for position in range(lo, hi)]

    def out_degree(self, node_id: ElementId, label: str) -> int:
        """Number of outgoing edges with the given label (two bisects)."""
        ext = self._node_index.get(node_id)
        if ext is None:
            return 0
        label_id = self.labels.id_of(label)
        if label_id < 0:
            return 0
        lo, hi = self._out_starts[ext], self._out_starts[ext + 1]
        left = bisect_left(self._out_labels, label_id, lo, hi)
        return bisect_right(self._out_labels, label_id, left, hi) - left

    def property_map(self, element_id: ElementId) -> Mapping[str, PropertyValue]:
        """The element's properties as a freshly-built dict (the columnar
        kernel never calls this; the generic engines do)."""
        row, columns = self._row_and_columns(element_id)
        if row < 0:
            return _EMPTY_PROPERTIES
        props: dict[str, PropertyValue] = {}
        keys = self.keys
        for key_id, column in columns.items():
            if column.has(row):
                props[keys[key_id]] = column.get(row)
        return props

    def nodes_with_label(self, label: str) -> list[ElementId]:
        """All nodes v with λ(v) = label, in insertion order."""
        label_id = self.labels.id_of(label)
        if label_id < 0:
            return []
        ids = self._node_ids
        ext_of = self._node_ext_of
        for run_label, start, end in self._node_runs:
            if run_label == label_id:
                return [ids[ext_of[row]] for row in range(start, end)]
        return []

    def property_items(self) -> Iterator[tuple[ElementId, str, PropertyValue]]:
        """Iterate over dom(σ) as (element, property name, value) triples."""
        keys = self.keys
        for ids, row_of, columns in (
            (self._node_ids, self._node_row_of, self._node_columns),
            (self._edge_ids, self._edge_row_of, self._edge_columns),
        ):
            for ext, element in enumerate(ids):
                row = row_of[ext]
                for key_id, column in columns.items():
                    if column.has(row):
                        yield element, keys[key_id], column.get(row)

    def node_items(self) -> list[tuple[ElementId, str]]:
        """All (node, λ(node)) pairs, insertion order."""
        labels = self.labels
        return [
            (node, labels[self._node_label_ids[ext]])
            for ext, node in enumerate(self._node_ids)
        ]

    def edge_records(
        self,
    ) -> list[tuple[ElementId, ElementId, ElementId, str, str, str]]:
        """All (edge, source, target, λ(e), λ(src), λ(tgt)) tuples."""
        labels = self.labels
        node_ids = self._node_ids
        node_labels = self._node_label_ids
        src, tgt = self._edge_src, self._edge_tgt
        records = []
        append = records.append
        for ext, edge in enumerate(self._edge_ids):
            source, target = src[ext], tgt[ext]
            append(
                (
                    edge,
                    node_ids[source],
                    node_ids[target],
                    labels[self._edge_label_ids[ext]],
                    labels[node_labels[source]],
                    labels[node_labels[target]],
                )
            )
        return records

    # ------------------------------------------------------------------ #
    # misc (PropertyGraph-compatible)
    # ------------------------------------------------------------------ #

    def copy(self) -> "ColumnarGraph":
        """Immutable, so a copy is the graph itself."""
        return self

    def thaw(self) -> PropertyGraph:
        """A mutable :class:`PropertyGraph` with identical content."""
        graph = PropertyGraph()
        for node, label in self.node_items():
            graph.add_node(node, label, self.property_map(node) or None)
        for edge, source, target, label, _sl, _tl in self.edge_records():
            graph.add_edge(edge, source, target, label, self.property_map(edge) or None)
        return graph

    def __contains__(self, element_id: object) -> bool:
        return element_id in self._node_index or element_id in self._edge_index

    def __len__(self) -> int:
        """Size of the graph: |V| + |E| (the n of the complexity analysis)."""
        return len(self._node_ids) + len(self._edge_ids)

    def __repr__(self) -> str:
        return (
            f"ColumnarGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"labels={len(self.labels)}, keys={len(self.keys)})"
        )

    def _require_element(self, element_id: ElementId) -> None:
        if element_id not in self._node_index and element_id not in self._edge_index:
            raise GraphError(f"no such element: {element_id!r}")

    def _row_and_columns(
        self, element_id: ElementId
    ) -> tuple[int, dict[int, PropertyColumn]]:
        ext = self._node_index.get(element_id)
        if ext is not None:
            return self._node_row_of[ext], self._node_columns
        ext = self._edge_index.get(element_id)
        if ext is not None:
            return self._edge_row_of[ext], self._edge_columns
        return -1, self._node_columns

    # ------------------------------------------------------------------ #
    # columnar layout: the kernel-facing API
    # ------------------------------------------------------------------ #

    @property
    def node_runs(self) -> list[tuple[int, int, int]]:
        """(label id, start row, end row) runs over the node row space."""
        return self._node_runs

    @property
    def edge_runs(self) -> list[tuple[int, int, int, int]]:
        """(source label id, edge label id, start, end) edge-row runs."""
        return self._edge_runs

    @property
    def node_ext_of(self) -> "array[int]":
        """Node row -> insertion position (read-only)."""
        return self._node_ext_of

    @property
    def edge_ext_of(self) -> "array[int]":
        """Edge row -> insertion position (read-only)."""
        return self._edge_ext_of

    @property
    def edge_src(self) -> "array[int]":
        """Edge insertion position -> source node position (read-only)."""
        return self._edge_src

    @property
    def edge_tgt(self) -> "array[int]":
        """Edge insertion position -> target node position (read-only)."""
        return self._edge_tgt

    @property
    def node_label_ids(self) -> "array[int]":
        """Node insertion position -> label id (read-only)."""
        return self._node_label_ids

    @property
    def node_columns(self) -> dict[int, PropertyColumn]:
        """Node property columns by key id (read-only; row space)."""
        return self._node_columns

    @property
    def edge_columns(self) -> dict[int, PropertyColumn]:
        """Edge property columns by key id (read-only; row space)."""
        return self._edge_columns

    def node_id_at(self, ext: int) -> ElementId:
        return self._node_ids[ext]

    def edge_id_at(self, ext: int) -> ElementId:
        return self._edge_ids[ext]

    @property
    def node_id_list(self) -> list[ElementId]:
        """Node insertion position -> identifier (read-only)."""
        return self._node_ids

    @property
    def edge_id_list(self) -> list[ElementId]:
        """Edge insertion position -> identifier (read-only)."""
        return self._edge_ids

    def out_degree_fast(self, ext: int, label_id: int) -> int:
        """out_degree by node position and label id (no dict probes)."""
        lo, hi = self._out_starts[ext], self._out_starts[ext + 1]
        left = bisect_left(self._out_labels, label_id, lo, hi)
        return bisect_right(self._out_labels, label_id, left, hi) - left

    def sources_with_edge_label(self, label_id: int) -> frozenset[int]:
        """Node positions with >= 1 outgoing edge of *label_id* (cached)."""
        found = self._src_sets.get(label_id)
        if found is None:
            edge_labels = self._edge_label_ids
            src = self._edge_src
            found = frozenset(
                src[ext]
                for ext in range(len(self._edge_ids))
                if edge_labels[ext] == label_id
            )
            self._src_sets[label_id] = found
        return found

    def targets_of_labelled_sources(
        self, edge_label_id: int, source_label_ids: frozenset[int]
    ) -> frozenset[int]:
        """Node positions receiving an *edge_label_id* edge from a source
        whose label is in *source_label_ids* (the DS4 membership set;
        cached per (edge label, allowed set))."""
        key = (edge_label_id, source_label_ids)
        found = self._pair_targets.get(key)
        if found is None:
            edge_labels = self._edge_label_ids
            node_labels = self._node_label_ids
            src, tgt = self._edge_src, self._edge_tgt
            found = frozenset(
                tgt[ext]
                for ext in range(len(self._edge_ids))
                if edge_labels[ext] == edge_label_id
                and node_labels[src[ext]] in source_label_ids
            )
            self._pair_targets[key] = found
        return found

    def run_target_labels(self, run_index: int) -> frozenset[int]:
        """Distinct target label ids of one edge run (cached; lets WS3
        accept a whole run when the set is inside the allowed labels)."""
        found = self._run_target_labels.get(run_index)
        if found is None:
            _sl, _el, start, end = self._edge_runs[run_index]
            ext_of = self._edge_ext_of
            node_labels = self._node_label_ids
            tgt = self._edge_tgt
            found = frozenset(
                node_labels[tgt[ext_of[row]]] for row in range(start, end)
            )
            self._run_target_labels[run_index] = found
        return found

    def run_has_loops(self, run_index: int) -> bool:
        """True when some edge of the run is a self-loop (cached)."""
        found = self._run_loops.get(run_index)
        if found is None:
            _sl, _el, start, end = self._edge_runs[run_index]
            ext_of = self._edge_ext_of
            src, tgt = self._edge_src, self._edge_tgt
            found = any(
                src[ext_of[row]] == tgt[ext_of[row]] for row in range(start, end)
            )
            self._run_loops[run_index] = found
        return found

    def run_distinct_sources(self, run_index: int) -> int:
        """Distinct sources of one edge run (cached; DS6 accepts a whole
        node run when this equals the run's node count)."""
        found = self._run_distinct_sources.get(run_index)
        if found is None:
            _sl, _el, start, end = self._edge_runs[run_index]
            ext_of = self._edge_ext_of
            src = self._edge_src
            found = len({src[ext_of[row]] for row in range(start, end)})
            self._run_distinct_sources[run_index] = found
        return found

    def source_groups(self) -> list[tuple[int, int, int, int]]:
        """(source position, edge label id, start, end) slices into the
        outgoing CSR for every (source, label) group with >= 2 edges --
        the WS4/DS1 scopes, enumerated without hashing (cached)."""
        if self._source_groups is None:
            self._source_groups = _csr_groups(
                self._out_starts, self._out_labels, len(self._node_ids)
            )
        return self._source_groups

    def target_groups(self) -> list[tuple[int, int, int, int]]:
        """(target position, edge label id, start, end) slices into the
        incoming CSR for every (target, label) group with >= 2 edges --
        the DS3 scopes (cached)."""
        if self._target_groups is None:
            self._target_groups = _csr_groups(
                self._in_starts, self._in_labels, len(self._node_ids)
            )
        return self._target_groups

    def out_csr_edges(self) -> "array[int]":
        """The outgoing CSR payload: edge positions (read-only)."""
        return self._out_edges

    def in_csr_edges(self) -> "array[int]":
        """The incoming CSR payload: edge positions (read-only)."""
        return self._in_edges

    def out_csr(self) -> "tuple[array[int], array[int]]":
        """The outgoing CSR index: (row starts, per-slot edge label ids).
        Slot ``i`` of node ``ext`` lives at ``starts[ext] <= i <
        starts[ext + 1]``; slots are sorted by label id, so per-label
        degrees are run lengths (how the stats sweep reads histograms)."""
        return self._out_starts, self._out_labels

    def in_csr(self) -> "tuple[array[int], array[int]]":
        """The incoming CSR index: (row starts, per-slot edge label ids)."""
        return self._in_starts, self._in_labels


def _csr_groups(
    starts: "array[int]", labels: "array[int]", num_nodes: int
) -> list[tuple[int, int, int, int]]:
    groups: list[tuple[int, int, int, int]] = []
    append = groups.append
    for ext in range(num_nodes):
        lo, hi = starts[ext], starts[ext + 1]
        position = lo
        while position < hi:
            label_id = labels[position]
            run_end = position + 1
            while run_end < hi and labels[run_end] == label_id:
                run_end += 1
            if run_end - position >= 2:
                append((ext, label_id, position, run_end))
            position = run_end
    return groups


class ColumnarBuilder:
    """Builds a :class:`ColumnarGraph` directly (the loaders' path).

    Mirrors :class:`PropertyGraph`'s construction contract -- unique ids,
    endpoints must exist before an edge referencing them, string labels,
    legal property values -- with identical error messages, then lays the
    data out in columns in one :meth:`build` step.
    """

    def __init__(self) -> None:
        self._labels = StringPool()
        self._keys = StringPool()
        self._node_ids: list[ElementId] = []
        self._node_index: dict[ElementId, int] = {}
        self._node_label_ids: list[int] = []
        self._edge_ids: list[ElementId] = []
        self._edge_index: dict[ElementId, int] = {}
        self._edge_label_ids: list[int] = []
        self._edge_src: list[int] = []
        self._edge_tgt: list[int] = []
        #: key id -> list of (element position, value)
        self._node_props: dict[int, list[tuple[int, PropertyValue]]] = {}
        self._edge_props: dict[int, list[tuple[int, PropertyValue]]] = {}

    def add_node(
        self,
        node_id: ElementId,
        label: str,
        properties: Mapping[str, object] | None = None,
        *,
        _normalized: bool = False,
    ) -> ElementId:
        """Add a node (same contract and errors as PropertyGraph.add_node)."""
        if node_id in self._node_index or node_id in self._edge_index:
            raise GraphError(f"element id already in use: {node_id!r}")
        if not isinstance(label, str):
            raise GraphError(f"labels must be strings, got {label!r}")
        ext = len(self._node_ids)
        self._node_ids.append(node_id)
        self._node_index[node_id] = ext
        self._node_label_ids.append(self._labels.intern(label))
        if properties:
            self._add_props(self._node_props, ext, properties, _normalized)
        return node_id

    def add_edge(
        self,
        edge_id: ElementId,
        source: ElementId,
        target: ElementId,
        label: str,
        properties: Mapping[str, object] | None = None,
        *,
        _normalized: bool = False,
    ) -> ElementId:
        """Add an edge (same contract and errors as PropertyGraph.add_edge)."""
        if edge_id in self._node_index or edge_id in self._edge_index:
            raise GraphError(f"element id already in use: {edge_id!r}")
        src_ext = self._node_index.get(source)
        if src_ext is None:
            raise GraphError(f"edge source is not a node: {source!r}")
        tgt_ext = self._node_index.get(target)
        if tgt_ext is None:
            raise GraphError(f"edge target is not a node: {target!r}")
        if not isinstance(label, str):
            raise GraphError(f"labels must be strings, got {label!r}")
        ext = len(self._edge_ids)
        self._edge_ids.append(edge_id)
        self._edge_index[edge_id] = ext
        self._edge_label_ids.append(self._labels.intern(label))
        self._edge_src.append(src_ext)
        self._edge_tgt.append(tgt_ext)
        if properties:
            self._add_props(self._edge_props, ext, properties, _normalized)
        return edge_id

    def _add_props(
        self,
        store: dict[int, list[tuple[int, PropertyValue]]],
        ext: int,
        properties: Mapping[str, object],
        normalized: bool,
    ) -> None:
        intern = self._keys.intern
        for name, value in properties.items():
            if not isinstance(name, str):
                raise GraphError(f"property names must be strings, got {name!r}")
            if not normalized:
                value = normalize_value(value)
            store.setdefault(intern(name), []).append((ext, value))  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self._node_ids) + len(self._edge_ids)

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    def build(self) -> ColumnarGraph:
        """Lay the collected elements out as a :class:`ColumnarGraph`."""
        span = obs.span(
            "pg.freeze", nodes=len(self._node_ids), edges=len(self._edge_ids)
        )
        with span:
            graph = self._build()
            obs.gauge("pg.pool.labels", len(graph.labels))
            obs.gauge("pg.pool.keys", len(graph.keys))
        return graph

    def _build(self) -> ColumnarGraph:
        graph = ColumnarGraph()
        graph.labels = self._labels
        graph.keys = self._keys
        num_nodes = len(self._node_ids)
        num_edges = len(self._edge_ids)
        graph._node_ids = self._node_ids
        graph._node_index = self._node_index
        node_labels = self._node_label_ids
        graph._node_label_ids = array("i", node_labels)
        node_order = _stable_order(node_labels)
        graph._node_ext_of = array("i", node_order)
        graph._node_row_of = _inverse(node_order, num_nodes)
        graph._node_runs = _runs1(node_labels, node_order)
        graph._edge_ids = self._edge_ids
        graph._edge_index = self._edge_index
        edge_labels = self._edge_label_ids
        graph._edge_label_ids = array("i", edge_labels)
        graph._edge_src = array("i", self._edge_src)
        graph._edge_tgt = array("i", self._edge_tgt)
        src_labels = [node_labels[src] for src in self._edge_src]
        edge_order = _stable_order2(src_labels, edge_labels)
        graph._edge_ext_of = array("i", edge_order)
        graph._edge_row_of = _inverse(edge_order, num_edges)
        graph._edge_runs = _runs2(src_labels, edge_labels, edge_order)
        graph._out_starts, graph._out_labels, graph._out_edges = _build_csr(
            self._edge_src, edge_labels, num_nodes
        )
        graph._in_starts, graph._in_labels, graph._in_edges = _build_csr(
            self._edge_tgt, edge_labels, num_nodes
        )
        row_of = graph._node_row_of
        graph._node_columns = {
            key_id: PropertyColumn.build(
                [(row_of[ext], value) for ext, value in pairs], num_nodes
            )
            for key_id, pairs in self._node_props.items()
        }
        edge_row_of = graph._edge_row_of
        graph._edge_columns = {
            key_id: PropertyColumn.build(
                [(edge_row_of[ext], value) for ext, value in pairs], num_edges
            )
            for key_id, pairs in self._edge_props.items()
        }
        return graph


# --------------------------------------------------------------------------- #
# layout helpers (numpy-accelerated when importable, never required)
# --------------------------------------------------------------------------- #

#: Sorts over more keys than this go through numpy (docs/PERFORMANCE.md
#: has the measured crossover); smaller ones never import it.
_NUMPY_SORT_MIN = 1024


@cache
def _numpy_module() -> ModuleType | None:
    """numpy, imported on first use; ``None`` when it is not installed."""
    try:  # optional acceleration only -- the pure-python paths are canonical
        import numpy
    except ImportError:  # pragma: no cover - numpy is present in CI
        return None
    return numpy


def _stable_order(keys: list[int]) -> list[int]:
    """Positions sorted by key, ties in position order."""
    np = _numpy_module() if len(keys) > _NUMPY_SORT_MIN else None
    if np is not None:
        order = np.argsort(np.asarray(keys, dtype=np.int64), kind="stable")
        return order.tolist()  # type: ignore[no-any-return]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _stable_order2(primary: list[int], secondary: list[int]) -> list[int]:
    """Positions sorted by (primary, secondary), ties in position order."""
    np = _numpy_module() if len(primary) > _NUMPY_SORT_MIN else None
    if np is not None:
        order = np.lexsort(
            (
                np.asarray(secondary, dtype=np.int64),
                np.asarray(primary, dtype=np.int64),
            )
        )
        return order.tolist()  # type: ignore[no-any-return]
    return sorted(
        range(len(primary)), key=lambda index: (primary[index], secondary[index])
    )


def _inverse(order: list[int], size: int) -> "array[int]":
    inverse = array("i", bytes(4 * size))
    for row, ext in enumerate(order):
        inverse[ext] = row
    return inverse


def _runs1(keys: list[int], order: list[int]) -> list[tuple[int, int, int]]:
    runs: list[tuple[int, int, int]] = []
    size = len(order)
    row = 0
    while row < size:
        key = keys[order[row]]
        start = row
        row += 1
        while row < size and keys[order[row]] == key:
            row += 1
        runs.append((key, start, row))
    return runs


def _runs2(
    primary: list[int], secondary: list[int], order: list[int]
) -> list[tuple[int, int, int, int]]:
    runs: list[tuple[int, int, int, int]] = []
    size = len(order)
    row = 0
    while row < size:
        ext = order[row]
        key = (primary[ext], secondary[ext])
        start = row
        row += 1
        while row < size:
            ext = order[row]
            if (primary[ext], secondary[ext]) != key:
                break
            row += 1
        runs.append((key[0], key[1], start, row))
    return runs


def _build_csr(
    anchors: list[int], edge_labels: list[int], num_nodes: int
) -> tuple["array[int]", "array[int]", "array[int]"]:
    """CSR over *anchors* (per-edge node positions): offsets plus edge
    positions sorted by (anchor, label id, position), with the label ids
    laid out alongside for bisecting inside one node's slice."""
    counts = [0] * (num_nodes + 1)
    for anchor in anchors:
        counts[anchor + 1] += 1
    for position in range(1, num_nodes + 1):
        counts[position] += counts[position - 1]
    order = _stable_order2(anchors, edge_labels)
    labels = array("i", bytes(4 * len(order)))
    payload = array("i", bytes(4 * len(order)))
    for slot, ext in enumerate(order):
        labels[slot] = edge_labels[ext]
        payload[slot] = ext
    return array("i", counts), labels, payload


# --------------------------------------------------------------------------- #
# freezing
# --------------------------------------------------------------------------- #


def freeze(graph: "PropertyGraph | ColumnarGraph") -> ColumnarGraph:
    """The columnar form of *graph* (a no-op for already-frozen graphs)."""
    if isinstance(graph, ColumnarGraph):
        return graph
    builder = ColumnarBuilder()
    property_map = graph.property_map
    for node, label in graph.node_items():
        props = property_map(node)
        builder.add_node(node, label, props if props else None, _normalized=True)
    for edge, source, target, label, _sl, _tl in graph.edge_records():
        props = property_map(edge)
        builder.add_edge(
            edge, source, target, label, props if props else None, _normalized=True
        )
    return builder.build()
