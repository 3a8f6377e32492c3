"""JSON Lines graphs: the streamable on-disk format.

One JSON object per line, nodes before the edges that reference them::

    {"type": "node", "id": "u1", "label": "User", "properties": {...}}
    {"type": "edge", "id": "e1", "source": "s1", "target": "u1",
     "label": "user", "properties": {...}}

Unlike the single-document format (:mod:`repro.pg.io`, which also holds
the writer, :func:`~repro.pg.io.dump_graph_jsonl`), a JSONL graph never has
to be parsed whole: :func:`iter_graph_jsonl` yields one checked record at
a time, which is what the out-of-core validator
(:mod:`repro.validation.stream`) chunks over.  Lines are read by
:func:`repro.jsonlines.read_json_lines`, strictly: every malformed line,
a torn final one included, raises :class:`~repro.errors.GraphLoadError`
carrying the 1-based line, the column within that line, and the absolute
offset -- in bytes for a file opened in binary, in characters for a text
stream.
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING, Any, Iterator

from .. import obs
from ..errors import GraphError, GraphLoadError
from ..jsonlines import Shape, check_shape, read_json_lines

if TYPE_CHECKING:  # pragma: no cover
    from .model import PropertyGraph

#: The record shape of a graph line.
_GRAPH_LINE = Shape(
    {"node": ("id", "label"), "edge": ("id", "source", "target", "label")},
    "record",
    element="{} record",
    key="type",
    choices='"node" or "edge"',
)


def iter_graph_jsonl(
    fp: IO[bytes] | IO[str], source: str | None = None
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line_number, record)`` pairs from a JSONL graph stream.

    Lines are decoded and shape-checked one at a time -- the whole point of
    the format: memory stays bounded by one line.  Blank lines are skipped.
    """
    if source is None:
        source = getattr(fp, "name", None)
    for line, _end, record in read_json_lines(fp, source):
        yield line, check_shape(record, _GRAPH_LINE, source, line)


def load_graph_jsonl(
    fp: IO[bytes] | IO[str], source: str | None = None
) -> PropertyGraph:
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
            except (GraphError, TypeError, ValueError) as bad:
                raise GraphLoadError(
                    f"malformed graph element: {bad}",
                    source=source,
                    line=line_number,
                ) from bad
        span.set(records=records)
    return graph
