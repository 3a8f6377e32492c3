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
from typing import IO, TYPE_CHECKING, Any, Callable

from .. import obs
from ..errors import GraphError, GraphLoadError
from ..jsonlines import Shape, check_shape
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


#: The element shapes of a graph document; a message names an element by
#: its place in the document (``nodes[3]``).
_NODE = Shape({None: ("id", "label")}, "node", properties="{}.properties")
_EDGE = Shape(
    {None: ("id", "source", "target", "label")}, "edge", properties="{}.properties"
)


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
            record = check_shape(node, _NODE, source, noun=f"nodes[{index}]")
            graph.add_node(
                record["id"], record["label"], record.get("properties") or None
            )
        for index, edge in enumerate(edges):
            record = check_shape(edge, _EDGE, source, noun=f"edges[{index}]")
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
            # plain, well-formed elements skip the check_shape call; anything
            # else goes through it, which raises or accepts as it always has
            if node.__class__ is not dict or "id" not in node or "label" not in node:
                check_shape(node, _NODE, source, noun=f"nodes[{index}]")
            props = node.get("properties")
            if props is not None and props.__class__ is not dict:
                check_shape(node, _NODE, source, noun=f"nodes[{index}]")
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
        for index, edge in enumerate(edges):
            if (
                edge.__class__ is not dict
                or "id" not in edge
                or "source" not in edge
                or "target" not in edge
                or "label" not in edge
            ):
                check_shape(edge, _EDGE, source, noun=f"edges[{index}]")
            props = edge.get("properties")
            if props is not None and props.__class__ is not dict:
                check_shape(edge, _EDGE, source, noun=f"edges[{index}]")
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


def dump_graph_jsonl(graph: PropertyGraph, fp: IO[str]) -> None:
    """Write *graph* in JSON Lines form: nodes first, then edges, each a
    :func:`graph_to_dict` element tagged with its ``type`` and without an
    empty ``properties`` (the format and its reader: :mod:`repro.pg.jsonl`)."""
    data = graph_to_dict(graph)
    for kind, elements in (("node", data["nodes"]), ("edge", data["edges"])):
        for element in elements:
            record = {"type": kind, **element}
            if not record["properties"]:
                del record["properties"]
            fp.write(json.dumps(record, separators=(",", ":")) + "\n")
