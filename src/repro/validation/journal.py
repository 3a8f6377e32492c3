"""The CDC mutation journal: an ordered, versioned JSONL stream of graph
mutations.

A journal is the durable write-ahead form of a living Property Graph: one
JSON object per line, applied in order.  The first line is a *header*
pinning the format and version; every later line is one mutation event::

    {"format": "pgschema-mutation-journal", "version": 1}
    {"op": "add_node", "id": "u1", "label": "User", "properties": {...}}
    {"op": "add_edge", "id": "e1", "source": "s1", "target": "u1",
     "label": "user", "properties": {...}}
    {"op": "set_property", "id": "u1", "name": "login", "value": "alice"}
    {"op": "remove_property", "id": "u1", "name": "login"}
    {"op": "remove_edge", "id": "e1"}
    {"op": "remove_node", "id": "u1"}
    {"op": "set_schema", "sdl": "type User { ... }"}
    {"op": "commit"}

``commit`` lines are batch-commit markers: the CDC consumer
(:mod:`repro.validation.cdc`) applies events transactionally per commit,
emits violation appear/disappear deltas at each marker, and checkpoints
only at marker boundaries -- which is what makes byte-offset resume exact.
``set_schema`` events put schema evolution in the same ordered stream, the
Bonifati-et-al. framing: graph mutations and schema changes are one
history.

Reading goes through the one JSON-lines reader,
:func:`repro.jsonlines.read_json_lines`, which graph files and the perf
store share.  The journal is read in *binary*, so offsets count bytes and
are seekable, and strictly: every way a line can be malformed -- invalid
UTF-8, truncated JSON (a torn final line included), a non-object record,
an unknown ``op``, missing required keys, wrongly-typed ``properties`` --
raises a typed :class:`~repro.errors.GraphLoadError` carrying the source
name and the 1-based line, column and absolute byte offset of the problem.
A resumed read (``start_offset > 0``) continues mid-file from a checkpoint
without re-scanning the prefix.
"""

from __future__ import annotations

import json
import os
from types import TracebackType
from typing import IO, Any, Iterator, Mapping, Sequence

from ..errors import GraphLoadError
from ..jsonlines import Shape, check_shape, read_json_lines
from ..record import Record

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "JournalWriter",
    "MutationEvent",
    "MutationJournal",
    "check_journal_record",
]

JOURNAL_FORMAT = "pgschema-mutation-journal"
JOURNAL_VERSION = 1

#: op -> required keys beyond "op".
_EVENT_KEYS: dict[str, tuple[str, ...]] = {
    "add_node": ("id", "label"),
    "remove_node": ("id",),
    "add_edge": ("id", "source", "target", "label"),
    "remove_edge": ("id",),
    "set_property": ("id", "name", "value"),
    "remove_property": ("id", "name"),
    "commit": (),
    "set_schema": ("sdl",),
}

#: The record shape of a journal event.
_EVENT = Shape(
    _EVENT_KEYS,
    "journal record",
    element="{} event",
    key="op",
    choices=f"one of {sorted(_EVENT_KEYS)}",
    with_properties=frozenset({"add_node", "add_edge"}),
)


class MutationEvent(Record):
    """One decoded, shape-checked journal event.

    Attributes:
        op: The operation kind (a key of the event vocabulary).
        record: The full decoded JSON record (including ``op``).
        seq: 1-based event sequence number within the journal (the header
            line does not count).
        line: 1-based line number in the journal file.
        end_offset: Absolute byte offset just *past* this event's line --
            the exact resume point for a checkpoint taken after it.
    """

    op: str
    record: Mapping[str, Any]
    seq: int
    line: int
    end_offset: int

    def __init__(
        self, op: str, record: Mapping[str, Any], seq: int, line: int, end_offset: int
    ) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "end_offset", end_offset)

    @property
    def is_commit(self) -> bool:
        return self.op == "commit"


def check_journal_record(
    record: Any, line: int, source: str | None
) -> dict[str, Any]:
    """Shape-check one decoded journal record; raise with line context."""
    checked = check_shape(record, _EVENT, source, line)
    if checked["op"] == "set_schema" and not isinstance(checked["sdl"], str):
        raise GraphLoadError(
            "set_schema event sdl must be a string, "
            f"got {type(checked['sdl']).__name__}",
            source=source,
            line=line,
        )
    return checked


def _check_header(record: Any, line: int, source: str | None) -> None:
    if not isinstance(record, dict):
        problem = "journal must start with a header object"
    elif (declared := record.get("format")) != JOURNAL_FORMAT:
        problem = f"journal header format must be {JOURNAL_FORMAT!r}, got {declared!r}"
    elif not isinstance(version := record.get("version"), int) or version < 1:
        problem = f"journal header version must be a positive integer, got {version!r}"
    elif version > JOURNAL_VERSION:
        problem = (
            f"journal version {version} is newer than the supported "
            f"version {JOURNAL_VERSION}"
        )
    else:
        return
    raise GraphLoadError(problem, source=source, line=line)


class MutationJournal:
    """A mutation journal on disk: byte-exact reads, append-only writes."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = os.fspath(path)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def read(
        self,
        start_offset: int = 0,
        start_seq: int = 0,
        start_line: int = 0,
    ) -> Iterator[MutationEvent]:
        """Yield shape-checked events, resuming from a byte offset.

        ``start_offset == 0`` reads from the beginning and *requires* the
        version header as the first non-blank line.  A positive offset must
        be an event boundary previously reported in
        :attr:`MutationEvent.end_offset` (checkpoints store exactly that);
        ``start_seq``/``start_line`` restore the numbering so later error
        spans and checkpoints stay absolute.
        """
        with open(self.path, "rb") as fp:
            if start_offset:
                fp.seek(start_offset)
            seq = start_seq
            saw_header = start_offset > 0
            lines = read_json_lines(fp, self.path, (start_offset, start_line))
            for line, end_offset, record in lines:
                if not saw_header:
                    _check_header(record, line, self.path)
                    saw_header = True
                    continue
                checked = check_journal_record(record, line, self.path)
                seq += 1
                yield MutationEvent(checked["op"], checked, seq, line, end_offset)

    def size(self) -> int:
        """Current journal size in bytes (for lag gauges)."""
        return os.path.getsize(self.path)

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def writer(self, append: bool = False) -> "JournalWriter":
        """Open a :class:`JournalWriter`; a fresh file gets the header."""
        return JournalWriter(self.path, append=append)

    def write_events(self, events: Sequence[Mapping[str, Any]]) -> int:
        """Write a whole event stream (header included); return the count."""
        with self.writer() as writer:
            for event in events:
                writer.event(event)
            return writer.events_written


class JournalWriter:
    """Append shape-checked events to a journal file.

    Usable as a context manager; :meth:`sync` flushes and fsyncs so a
    producer can make the stream durable at commit boundaries.
    """

    def __init__(self, path: str, append: bool = False) -> None:
        self.path = path
        self.events_written = 0
        exists = append and os.path.exists(path) and os.path.getsize(path) > 0
        self._fp: IO[bytes] = open(path, "ab" if exists else "wb")
        if not exists:
            self._write_record(
                {"format": JOURNAL_FORMAT, "version": JOURNAL_VERSION}
            )

    def _write_record(self, record: Mapping[str, Any]) -> None:
        payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
        self._fp.write(payload.encode("utf-8") + b"\n")

    def event(self, record: Mapping[str, Any]) -> None:
        """Append one event (shape-checked before it hits the disk)."""
        # json encodes tuples as arrays: the record is written as checked
        self._write_record(check_journal_record(dict(record), 0, self.path))
        self.events_written += 1

    def commit(self) -> None:
        """Append a batch-commit marker."""
        self.event({"op": "commit"})

    def sync(self) -> None:
        """Flush and fsync (durability at a commit boundary)."""
        self._fp.flush()
        os.fsync(self._fp.fileno())

    def close(self) -> None:
        if not self._fp.closed:
            self._fp.flush()
            self._fp.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
