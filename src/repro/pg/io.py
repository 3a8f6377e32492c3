"""JSON serialisation of Property Graphs.

The on-disk format is a small, explicit JSON document::

    {
      "nodes": [{"id": "u1", "label": "User", "properties": {"login": "alice"}}],
      "edges": [{"id": "e1", "source": "s1", "target": "u1",
                 "label": "user", "properties": {"certainty": 0.9}}]
    }

Array-valued properties serialise as JSON arrays.  Because JSON has no
tuple/list distinction and no non-string keys, identifiers round-trip as
strings or numbers only; that covers every workload in this repository.

Loading is hardened: every way a document can be malformed -- truncated or
invalid JSON, a non-object top level, non-array ``nodes``/``edges``,
non-object elements, missing required keys, wrongly-typed ``properties``,
or absurdly deep nesting -- raises a typed
:class:`~repro.errors.GraphLoadError` carrying the source name and, for
JSON syntax errors, the line/column/offset of the problem.  Loaders never
leak ``KeyError``/``TypeError``/``RecursionError`` to callers; the fuzz
suite mutates real documents byte-by-byte to enforce this.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any, Callable, Iterator

from .. import obs
from ..errors import GraphError, GraphLoadError
from .records import GraphRecords
from .values import normalize_value

if TYPE_CHECKING:  # pragma: no cover
    from .model import PropertyGraph


def graph_to_dict(graph: PropertyGraph) -> dict[str, Any]:
    """Encode *graph* as a JSON-serialisable dictionary."""

    def encode_props(element: Any) -> dict[str, Any]:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in graph.properties(element).items()
        }

    return {
        "nodes": [
            {"id": node, "label": graph.label(node), "properties": encode_props(node)}
            for node in graph.nodes
        ],
        "edges": [
            {
                "id": edge,
                "source": graph.endpoints(edge)[0],
                "target": graph.endpoints(edge)[1],
                "label": graph.label(edge),
                "properties": encode_props(edge),
            }
            for edge in graph.edges
        ],
    }


def _element(
    record: Any,
    kind: str,
    index: int,
    required: tuple[str, ...],
    source: str | None,
) -> dict[str, Any]:
    """Check one node/edge record's shape; raise with element context."""
    where = f"{kind}[{index}]"
    if not isinstance(record, dict):
        raise GraphLoadError(
            f"{where} must be an object, got {type(record).__name__}",
            source=source,
        )
    for key in required:
        if key not in record:
            raise GraphLoadError(
                f"{where} is missing required key {key!r}", source=source
            )
    properties = record.get("properties")
    if properties is not None and not isinstance(properties, dict):
        raise GraphLoadError(
            f"{where}.properties must be an object, "
            f"got {type(properties).__name__}",
            source=source,
        )
    return record


def _sections(data: Any, source: str | None) -> tuple[list, list]:
    """The document's ``nodes`` and ``edges`` arrays, shape-checked."""
    if not isinstance(data, dict):
        raise GraphLoadError(
            f"graph document must be a JSON object, got {type(data).__name__}",
            source=source,
        )
    nodes = data.get("nodes", [])
    edges = data.get("edges", [])
    if not isinstance(nodes, list):
        raise GraphLoadError(
            f'"nodes" must be an array, got {type(nodes).__name__}', source=source
        )
    if not isinstance(edges, list):
        raise GraphLoadError(
            f'"edges" must be an array, got {type(edges).__name__}', source=source
        )
    return nodes, edges


def graph_from_dict(data: Any, source: str | None = None) -> PropertyGraph:
    """Decode a dictionary produced by :func:`graph_to_dict`.

    *source* names the document (a file path, ``"<stdin>"``, ...) in error
    messages.  Shape problems raise :class:`~repro.errors.GraphLoadError`;
    structural problems (duplicate ids, dangling endpoints) keep raising
    the narrower :class:`~repro.errors.GraphError` subtypes.
    """
    from .model import PropertyGraph

    nodes, edges = _sections(data, source)
    graph = PropertyGraph()
    try:
        for index, node in enumerate(nodes):
            record = _element(node, "nodes", index, ("id", "label"), source)
            graph.add_node(
                record["id"], record["label"], record.get("properties") or None
            )
        for index, edge in enumerate(edges):
            record = _element(
                edge, "edges", index, ("id", "source", "target", "label"), source
            )
            graph.add_edge(
                record["id"],
                record["source"],
                record["target"],
                record["label"],
                record.get("properties") or None,
            )
    except (TypeError, ValueError) as bad:
        # unhashable ids, tuple-hostile property values, ...
        raise GraphLoadError(
            f"malformed graph element: {bad}", source=source
        ) from bad
    return graph


#: Exact types of the property values :func:`normalize_value` returns
#: unchanged; a property map holding only these is used as decoded.
_PLAIN_VALUES = frozenset((str, int, float, bool))


def _plain_properties(properties: dict[str, Any]) -> dict[str, Any]:
    """*properties* normalised as :meth:`PropertyGraph.add_node` does, but
    without a copy when every value is already normalised."""
    for value in properties.values():
        if value.__class__ not in _PLAIN_VALUES:
            return {name: normalize_value(value) for name, value in properties.items()}
    return properties


def records_from_dict(data: Any, source: str | None = None) -> GraphRecords:
    """Decode a :func:`graph_to_dict` document straight into a
    :class:`~repro.pg.records.GraphRecords` view, in one pass per element.

    Every element is checked as :func:`graph_from_dict` checks it -- shape,
    duplicate ids, dangling endpoints, label types, property values, in the
    same order -- and a malformed document raises the same exception with
    the same message.  Property maps whose values are already normalised
    are shared with *data*, not copied: the caller hands the document over.
    """
    nodes, edges = _sections(data, source)
    node_labels: dict[Any, str] = {}
    edge_ids: dict[Any, None] = {}
    properties: dict[Any, dict[str, Any]] = {}
    node_records = []
    edge_records = []
    try:
        for index, node in enumerate(nodes):
            # plain, well-formed elements skip the _element call; anything
            # else goes through it, which raises or accepts as it always has
            if node.__class__ is not dict or "id" not in node or "label" not in node:
                _element(node, "nodes", index, ("id", "label"), source)
            props = node.get("properties")
            if props is not None and props.__class__ is not dict:
                _element(node, "nodes", index, ("id", "label"), source)
            node_id = node["id"]
            label = node["label"]
            if node_id in node_labels:
                raise GraphError(f"element id already in use: {node_id!r}")
            if not isinstance(label, str):
                raise GraphError(f"labels must be strings, got {label!r}")
            node_labels[node_id] = label
            node_records.append((node_id, label))
            if props:
                properties[node_id] = _plain_properties(props)
        edge_keys = ("id", "source", "target", "label")
        for index, edge in enumerate(edges):
            if (
                edge.__class__ is not dict
                or "id" not in edge
                or "source" not in edge
                or "target" not in edge
                or "label" not in edge
            ):
                _element(edge, "edges", index, edge_keys, source)
            props = edge.get("properties")
            if props is not None and props.__class__ is not dict:
                _element(edge, "edges", index, edge_keys, source)
            edge_id = edge["id"]
            edge_source = edge["source"]
            edge_target = edge["target"]
            label = edge["label"]
            if edge_id in node_labels or edge_id in edge_ids:
                raise GraphError(f"element id already in use: {edge_id!r}")
            source_label = node_labels.get(edge_source)
            if source_label is None:
                raise GraphError(f"edge source is not a node: {edge_source!r}")
            target_label = node_labels.get(edge_target)
            if target_label is None:
                raise GraphError(f"edge target is not a node: {edge_target!r}")
            if not isinstance(label, str):
                raise GraphError(f"labels must be strings, got {label!r}")
            edge_ids[edge_id] = None
            edge_records.append(
                (edge_id, edge_source, edge_target, label, source_label, target_label)
            )
            if props:
                properties[edge_id] = _plain_properties(props)
    except (TypeError, ValueError) as bad:
        # unhashable ids, tuple-hostile property values, ...
        raise GraphLoadError(
            f"malformed graph element: {bad}", source=source
        ) from bad
    return GraphRecords(node_records, edge_records, properties)


def _decode(text: str, source: str | None) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as bad:
        raise GraphLoadError(
            f"invalid JSON: {bad.msg}",
            source=source,
            line=bad.lineno,
            column=bad.colno,
            offset=bad.pos,
        ) from None
    except RecursionError:
        raise GraphLoadError(
            "JSON document is nested too deeply", source=source
        ) from None


def dump_graph(graph: PropertyGraph, fp: IO[str], indent: int | None = 2) -> None:
    """Write *graph* as JSON to an open text file."""
    json.dump(graph_to_dict(graph), fp, indent=indent)


def dumps_graph(graph: PropertyGraph, indent: int | None = 2) -> str:
    """Return *graph* as a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent)


def _load(
    fp: IO[str],
    source: str | None,
    build: "Callable[[Any, str | None], PropertyGraph | GraphRecords]",
    stage: str,
) -> "PropertyGraph | GraphRecords":
    """Read, decode and *build* one document under a ``pg.load`` span with
    ``pg.decode`` and *stage* children."""
    if source is None:
        source = getattr(fp, "name", None)
    try:
        text = fp.read()
    except UnicodeDecodeError as bad:
        raise GraphLoadError(
            f"graph document is not valid text: {bad.reason}",
            source=source,
            offset=bad.start,
        ) from None
    span = obs.span("pg.load", bytes=len(text))
    with span:
        with obs.span("pg.decode"):
            data = _decode(text, source)
        with obs.span(stage):
            graph = build(data, source)
        span.set(nodes=graph.num_nodes, edges=graph.num_edges)
    return graph


def load_graph(fp: IO[str], source: str | None = None) -> PropertyGraph:
    """Read a graph from an open JSON text file."""
    return _load(fp, source, graph_from_dict, "pg.build")  # type: ignore[return-value]


def load_records(fp: IO[str], source: str | None = None) -> GraphRecords:
    """Read an open JSON text file straight into a
    :class:`~repro.pg.records.GraphRecords` view (see
    :func:`records_from_dict`)."""
    return _load(fp, source, records_from_dict, "pg.records")  # type: ignore[return-value]


def loads_graph(text: str, source: str | None = None) -> PropertyGraph:
    """Read a graph from a JSON string."""
    return graph_from_dict(_decode(text, source), source)


# --------------------------------------------------------------------------- #
# JSON Lines: the streamable on-disk format
# --------------------------------------------------------------------------- #
#
# One JSON object per line, nodes before the edges that reference them::
#
#     {"type": "node", "id": "u1", "label": "User", "properties": {...}}
#     {"type": "edge", "id": "e1", "source": "s1", "target": "u1",
#      "label": "user", "properties": {...}}
#
# Unlike the single-document format above, a JSONL graph never has to be
# parsed whole: :func:`iter_graph_jsonl` yields one checked record at a
# time, which is what the out-of-core validator
# (:mod:`repro.validation.stream`) chunks over.  Every malformed line
# raises :class:`~repro.errors.GraphLoadError` carrying the 1-based line,
# the column within that line, and the absolute character offset.

_JSONL_TYPES = ("node", "edge")
_JSONL_REQUIRED: dict[str, tuple[str, ...]] = {
    "node": ("id", "label"),
    "edge": ("id", "source", "target", "label"),
}


def dump_graph_jsonl(graph: PropertyGraph, fp: IO[str]) -> None:
    """Write *graph* in JSON Lines form (nodes first, then edges)."""

    def encode_props(element: Any) -> dict[str, Any]:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in graph.properties(element).items()
        }

    for node in graph.nodes:
        record: dict[str, Any] = {"type": "node", "id": node, "label": graph.label(node)}
        props = encode_props(node)
        if props:
            record["properties"] = props
        fp.write(json.dumps(record, separators=(",", ":")) + "\n")
    for edge in graph.edges:
        source, target = graph.endpoints(edge)
        record = {
            "type": "edge",
            "id": edge,
            "source": source,
            "target": target,
            "label": graph.label(edge),
        }
        props = encode_props(edge)
        if props:
            record["properties"] = props
        fp.write(json.dumps(record, separators=(",", ":")) + "\n")


def check_jsonl_record(
    record: Any, line: int, source: str | None
) -> dict[str, Any]:
    """Check the shape of one decoded JSONL record (see the format note)."""
    if not isinstance(record, dict):
        raise GraphLoadError(
            f"record must be an object, got {type(record).__name__}",
            source=source,
            line=line,
            column=1,
        )
    kind = record.get("type")
    if kind not in _JSONL_TYPES:
        if "type" in record:
            problem = f'record "type" must be "node" or "edge", got {kind!r}'
        else:
            problem = "record is missing required key 'type'"
        raise GraphLoadError(problem, source=source, line=line, column=1)
    for key in _JSONL_REQUIRED[kind]:
        if key not in record:
            raise GraphLoadError(
                f"{kind} record is missing required key {key!r}",
                source=source,
                line=line,
                column=1,
            )
    properties = record.get("properties")
    if properties is not None and not isinstance(properties, dict):
        raise GraphLoadError(
            f"{kind} record properties must be an object, "
            f"got {type(properties).__name__}",
            source=source,
            line=line,
            column=1,
        )
    return record


def iter_graph_jsonl(
    fp: IO[str], source: str | None = None
) -> "Iterator[tuple[int, dict[str, Any]]]":
    """Yield ``(line_number, record)`` pairs from a JSONL graph stream.

    Lines are decoded and shape-checked one at a time -- the whole point of
    the format: memory stays bounded by one line.  Blank lines are skipped.
    Malformed lines raise :class:`~repro.errors.GraphLoadError` pinpointing
    the line, column and absolute character offset of the problem.
    """
    if source is None:
        source = getattr(fp, "name", None)
    offset = 0
    line_number = 0
    while True:
        try:
            text = fp.readline()
        except UnicodeDecodeError as bad:
            raise GraphLoadError(
                f"graph document is not valid text: {bad.reason}",
                source=source,
                offset=bad.start,
            ) from None
        if not text:
            return
        line_number += 1
        if text.strip():
            try:
                record = json.loads(text)
            except json.JSONDecodeError as bad:
                raise GraphLoadError(
                    f"invalid JSON: {bad.msg}",
                    source=source,
                    line=line_number,
                    column=bad.colno,
                    offset=offset + bad.pos,
                ) from None
            except RecursionError:
                raise GraphLoadError(
                    "JSON record is nested too deeply",
                    source=source,
                    line=line_number,
                    column=1,
                    offset=offset,
                ) from None
            yield line_number, check_jsonl_record(record, line_number, source)
        offset += len(text)


def load_graph_jsonl(fp: IO[str], source: str | None = None) -> PropertyGraph:
    """Read a JSONL graph stream into a :class:`PropertyGraph`.

    Structural errors (duplicate ids, dangling endpoints, illegal values)
    are re-raised as :class:`~repro.errors.GraphLoadError` tagged with the
    offending line.
    """
    from .model import PropertyGraph

    if source is None:
        source = getattr(fp, "name", None)
    graph = PropertyGraph()
    span = obs.span("pg.load_jsonl")
    with span:
        records = 0
        for line_number, record in iter_graph_jsonl(fp, source):
            records += 1
            try:
                if record["type"] == "node":
                    graph.add_node(
                        record["id"], record["label"], record.get("properties") or None
                    )
                else:
                    graph.add_edge(
                        record["id"],
                        record["source"],
                        record["target"],
                        record["label"],
                        record.get("properties") or None,
                    )
            except GraphLoadError:
                raise
            except (GraphError, TypeError, ValueError) as bad:
                raise GraphLoadError(
                    f"malformed graph element: {bad}",
                    source=source,
                    line=line_number,
                    column=1,
                ) from bad
        span.set(records=records)
    return graph
