"""Out-of-core validation: chunked streaming over JSONL graph files.

The in-memory engines assume the whole Property Graph fits in RAM.  This
module removes that assumption for graphs stored in the JSON Lines format
(:mod:`repro.pg.jsonl`): :class:`StreamValidator` validates a JSONL file in
bounded memory by cutting it into *chunks* along the same scope boundaries
the parallel engine's partitioner uses (:mod:`repro.validation.shard`), so
no satisfaction rule ever has to see two chunks at once.

**Phase A -- route.**  One streaming pass over the file assigns every
element to a chunk by the partitioner's stable crc32 hash and appends it to
that chunk's spill file (a temporary JSONL of compact rows).  An edge is
spilled to every chunk whose rules need it, tagged with a *role bitmask*:

* ``ELEMENT`` -- the chunk hashed from the edge id runs the per-element
  rules (WS2/WS3/SS3/SS4/DS2/EP1) and owns the edge's properties;
* ``SOURCE_GROUP`` / ``TARGET_GROUP`` -- the chunks hashed from the
  ``(source, label)`` / ``(target, label)`` group keys run WS4/DS1 and DS3,
  exactly mirroring ``partition_graph``'s group placement;
* ``OUT_DEGREE`` / ``IN_DEGREE`` -- the chunks owning the source / target
  node need the edge incident so DS6's ``out_degree`` and DS4's incoming
  scan see the node's full neighbourhood.

The only whole-graph state phase A keeps resident is the node directory --
one interned label id per node id, O(|V|) ints -- needed to resolve
endpoint labels and to materialise ghost endpoint nodes.  Property values
never stay resident; they live in the spill rows of the one chunk that
needs them.

**Phase B -- validate.**  Chunks are rebuilt one at a time as small
dict-backed :class:`~repro.pg.model.PropertyGraph` instances (assigned
elements plus label-only ghost endpoints) with an explicit
:class:`~repro.validation.shard.GraphShard` listing exactly the records
each rule class should check.  The fused kernel
(:func:`~repro.validation.parallel.validate_shard`) runs unchanged, and the
chunk results merge through
:func:`~repro.validation.parallel.merge_shard_results` -- the *same* merge
the parallel engine uses, which is what makes a streamed report
byte-identical to an in-memory run of any engine or worker count.

**Budgets.**  A :class:`~repro.resilience.Budget` is charged per chunk
(site ``"validation.stream"``) before the chunk is validated; exhaustion
mid-stream yields a partial report (``complete=False``) built from the
chunks that finished, or raises under ``on_budget="error"`` -- the PR 3
contract, unchanged.

**Observability.**  The run is wrapped in a ``validation.stream`` span with
``validation.stream.route`` / ``validation.stream.chunk`` children;
counters ``stream.chunks`` / ``stream.nodes`` / ``stream.edges`` and
gauges ``stream.peak_resident`` (the largest chunk graph ever alive,
|V|+|E|) and ``stream.pool.labels`` record the memory-bounding claim the
E15 benchmark asserts.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import IO, TYPE_CHECKING, Any

from .. import obs
from ..errors import BudgetExhaustedError, GraphError, GraphLoadError, check_on_budget
from ..pg.jsonl import iter_graph_jsonl
from ..pg.model import PropertyGraph
from .parallel import ShardResult, merge_shard_results, validate_shard
from .plan import ValidationPlan, compile_plan
from .shard import GraphShard, stable_bucket
from .violations import ValidationReport, rules_for_mode

if TYPE_CHECKING:  # pragma: no cover
    from ..errors import BudgetReason
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema

#: Role bits of a spilled edge row: which rule classes its chunk runs on it.
ROLE_ELEMENT = 1
ROLE_SOURCE_GROUP = 2
ROLE_TARGET_GROUP = 4
ROLE_OUT_DEGREE = 8
ROLE_IN_DEGREE = 16

#: Spill files stay manageable: more chunks than this and the per-chunk
#: constant costs (open files, graph rebuilds) start to dominate.
_MAX_CHUNKS = 1024


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

    def __getitem__(self, index: int) -> str:
        return self._strings[index]

    def __len__(self) -> int:
        return len(self._strings)


class StreamValidator:
    """Validate a JSONL graph file chunk by chunk in bounded memory."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        chunk_elements: int = 65536,
        plan: ValidationPlan | None = None,
        budget: "Budget | None" = None,
        on_budget: str = "unknown",
    ) -> None:
        if chunk_elements < 1:
            raise ValueError(f"chunk_elements must be positive, got {chunk_elements}")
        check_on_budget(on_budget)
        self.schema = schema
        self.plan = plan if plan is not None else compile_plan(schema)
        self.chunk_elements = chunk_elements
        self.budget = budget
        self.on_budget = on_budget
        #: Peak ``|V| + |E|`` of any chunk graph of the last run.
        self.peak_resident = 0

    def validate(
        self,
        path: "str | os.PathLike[str]",
        mode: str = "strong",
        budget: "Budget | None" = None,
    ) -> ValidationReport:
        """Stream-validate the JSONL graph at *path*."""
        path = os.fspath(path)
        rules = rules_for_mode(mode)
        if budget is None and self.budget is not None:
            budget = self.budget.renew()
        self.peak_resident = 0
        span = obs.span("validation.stream", engine="stream", mode=mode)
        with span:
            # the chunk count must be known before routing; counting lines
            # needs no decoding (the route pass decodes and checks them)
            with open(path, "rb") as fp:
                total = sum(1 for line in fp if line.strip())
            num_chunks = min(
                _MAX_CHUNKS, max(1, -(-total // self.chunk_elements))
            )
            span.set(elements=total, chunks=num_chunks)
            obs.count("stream.chunks", num_chunks)
            interruption: "BudgetReason | None" = None
            results: "list[ShardResult | None]" = [None] * num_chunks
            with tempfile.TemporaryDirectory(prefix="pgschema-stream-") as tmp:
                labels, node_labels = self._route(path, tmp, num_chunks)
                obs.gauge("stream.pool.labels", len(labels))
                try:
                    for index in range(num_chunks):
                        results[index] = self._validate_chunk(
                            os.path.join(tmp, f"chunk{index}.jsonl"),
                            index,
                            path,
                            labels,
                            node_labels,
                            rules,
                            budget,
                        )
                except BudgetExhaustedError as stop:
                    if self.on_budget == "error":
                        raise
                    interruption = stop.reason
            obs.gauge("stream.peak_resident", self.peak_resident)
            return merge_shard_results(self.plan, results, mode, rules, interruption)

    # ------------------------------------------------------------------ #
    # phase A: route records into per-chunk spill files
    # ------------------------------------------------------------------ #

    def _route(
        self, path: str, tmp: str, num_chunks: int
    ) -> tuple[StringPool, dict[Any, int]]:
        """Spill every record to its chunk(s); return the label pool and the
        resident node directory (node id -> label id)."""
        labels = StringPool()
        node_labels: dict[Any, int] = {}
        nodes = edges = 0
        with obs.span("validation.stream.route", chunks=num_chunks):
            writers: list[IO[str]] = []
            try:
                writers = [
                    open(os.path.join(tmp, f"chunk{index}.jsonl"), "w")
                    for index in range(num_chunks)
                ]
                with open(path, "rb") as fp:
                    for line, record in iter_graph_jsonl(fp, path):
                        if record["type"] == "node":
                            nodes += 1
                            node_id = record["id"]
                            label_id = labels.intern(record["label"])
                            if node_id not in node_labels:
                                node_labels[node_id] = label_id
                            chunk = stable_bucket(node_id, num_chunks)
                            writers[chunk].write(
                                json.dumps(
                                    [
                                        0,
                                        line,
                                        node_id,
                                        label_id,
                                        record.get("properties") or 0,
                                    ],
                                    separators=(",", ":"),
                                )
                                + "\n"
                            )
                        else:
                            edges += 1
                            edge_id = record["id"]
                            source = record["source"]
                            target = record["target"]
                            label = record["label"]
                            label_id = labels.intern(label)
                            destinations: dict[int, int] = {}
                            get = destinations.get
                            chunk = stable_bucket(edge_id, num_chunks)
                            destinations[chunk] = get(chunk, 0) | ROLE_ELEMENT
                            chunk = stable_bucket(source, num_chunks, "s", label)
                            destinations[chunk] = get(chunk, 0) | ROLE_SOURCE_GROUP
                            chunk = stable_bucket(target, num_chunks, "t", label)
                            destinations[chunk] = get(chunk, 0) | ROLE_TARGET_GROUP
                            chunk = stable_bucket(source, num_chunks)
                            destinations[chunk] = get(chunk, 0) | ROLE_OUT_DEGREE
                            chunk = stable_bucket(target, num_chunks)
                            destinations[chunk] = get(chunk, 0) | ROLE_IN_DEGREE
                            for chunk, roles in destinations.items():
                                row: list[Any] = [
                                    1,
                                    line,
                                    roles,
                                    edge_id,
                                    source,
                                    target,
                                    label_id,
                                ]
                                if roles & ROLE_ELEMENT:
                                    row.append(record.get("properties") or 0)
                                writers[chunk].write(
                                    json.dumps(row, separators=(",", ":")) + "\n"
                                )
            finally:
                for writer in writers:
                    writer.close()
        obs.count("stream.nodes", nodes)
        obs.count("stream.edges", edges)
        return labels, node_labels

    # ------------------------------------------------------------------ #
    # phase B: rebuild one chunk and run the fused kernel over it
    # ------------------------------------------------------------------ #

    def _validate_chunk(
        self,
        spill_path: str,
        index: int,
        source_name: str,
        labels: StringPool,
        node_labels: "dict[Any, int]",
        rules: tuple[str, ...],
        budget: "Budget | None",
    ) -> ShardResult:
        graph = PropertyGraph()
        shard = GraphShard(index)
        by_source: dict[tuple, list] = {}
        by_target: dict[tuple, list] = {}

        def ensure_endpoint(endpoint: Any, end: str, line: int) -> str:
            """Materialise a (possibly ghost) endpoint node; return its label."""
            label_id = node_labels.get(endpoint)
            if label_id is None:
                raise GraphLoadError(
                    f"edge {end} is not a node: {endpoint!r}",
                    source=source_name,
                    line=line,
                )
            label = labels[label_id]
            if endpoint not in graph:
                graph.add_node(endpoint, label)
            return label

        with open(spill_path, "r", encoding="utf-8") as fp:
            for text in fp:
                row = json.loads(text)
                line = row[1]
                try:
                    if row[0] == 0:
                        _tag, _line, node_id, label_id, props = row
                        label = labels[label_id]
                        graph.add_node(node_id, label, props or None)
                        shard.nodes.append((node_id, label))
                        continue
                    roles = row[2]
                    edge_id, edge_source, edge_target = row[3], row[4], row[5]
                    label = labels[row[6]]
                    props = row[7] if roles & ROLE_ELEMENT else 0
                    source_label = ensure_endpoint(edge_source, "source", line)
                    target_label = ensure_endpoint(edge_target, "target", line)
                    graph.add_edge(
                        edge_id, edge_source, edge_target, label, props or None
                    )
                except GraphLoadError:
                    raise
                except (GraphError, TypeError, ValueError) as bad:
                    raise GraphLoadError(
                        f"malformed graph element: {bad}",
                        source=source_name,
                        line=line,
                    ) from bad
                record = (
                    edge_id,
                    edge_source,
                    edge_target,
                    label,
                    source_label,
                    target_label,
                )
                if roles & ROLE_ELEMENT:
                    shard.edges.append(record)
                if roles & ROLE_SOURCE_GROUP:
                    by_source.setdefault((edge_source, label), []).append(record)
                if roles & ROLE_TARGET_GROUP:
                    by_target.setdefault((edge_target, label), []).append(record)
        for (group_source, label), group in by_source.items():
            if len(group) >= 2:
                shard.source_groups.append((group_source, label, group))
        for (group_target, label), group in by_target.items():
            if len(group) >= 2:
                shard.target_groups.append((group_target, label, group))
        resident = len(graph)
        if resident > self.peak_resident:
            self.peak_resident = resident
        if budget is not None:
            budget.charge_nodes(
                len(shard.nodes) + len(shard.edges), site="validation.stream"
            )
        with obs.span(
            "validation.stream.chunk", chunk=index, elements=resident
        ):
            return validate_shard(self.plan, graph, shard, rules, budget)


def validate_jsonl(
    schema: "GraphQLSchema",
    path: "str | os.PathLike[str]",
    mode: str = "strong",
    chunk_elements: int = 65536,
    budget: "Budget | None" = None,
    on_budget: str = "unknown",
) -> ValidationReport:
    """One-shot convenience wrapper around :class:`StreamValidator`."""
    return StreamValidator(
        schema,
        chunk_elements=chunk_elements,
        budget=budget,
        on_budget=on_budget,
    ).validate(path, mode=mode)
