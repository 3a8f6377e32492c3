"""The one JSON-lines reader and the one record shape check.

Three formats are JSON lines, one JSON value per line: graph files
(:mod:`repro.pg.jsonl`), the CDC mutation journal
(:mod:`repro.validation.journal`) and the perf store's ``profiles.jsonl``
(:mod:`repro.perf.store`).  All three read through :func:`read_json_lines`,
so a line is decoded, numbered and located the same way whichever format
it belongs to, and every malformed line -- invalid UTF-8, invalid JSON,
JSON nested too deeply -- raises :class:`~repro.errors.GraphLoadError`
with the source name and the line's 1-based number, column and absolute
offset.

Offsets count the stream's own unit: bytes when the lines are ``bytes``
(a file opened in binary, as every file reader here opens its input, so
an offset is a ``seek`` target), characters when they are ``str`` (a text
stream such as ``io.StringIO``); the error message names the unit,
``(byte N)`` or ``(char N)``.  Columns count characters within the line.

A final line without its newline is *torn*.  Graph files and the journal
are strict: a torn line is decoded like any other, so a truncated record
raises.  The perf store is tolerant: an interrupted append can leave a
torn line behind, and ``skip_torn_tail=True`` skips it.

:func:`check_shape` is the one structural check of decoded records --
graph-document elements, graph lines and journal events alike -- driven
by each format's :class:`Shape` table.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, Mapping

from .errors import GraphLoadError
from .record import Record

__all__ = ["Shape", "check_shape", "read_json_lines"]


def read_json_lines(
    lines: Iterable[bytes | str],
    source: str | None,
    resume: tuple[int, int] = (0, 0),
    skip_torn_tail: bool = False,
) -> Iterator[tuple[int, int, Any]]:
    """Yield ``(line_number, end_offset, value)`` for each non-blank line.

    *resume* is the ``(offset, line_number)`` the first of *lines* follows
    -- an ``end_offset`` and line number reported earlier -- so a read
    resumed mid-file keeps absolute line numbers and offsets.
    ``end_offset`` is the offset just past the line: the resume point of
    a reader that stops after it.
    """
    offset, number = resume
    loads = json.loads
    for raw in lines:
        number += 1
        start = offset
        offset += len(raw)
        if skip_torn_tail and raw[-1:] not in (b"\n", "\n"):
            return
        if isinstance(raw, bytes):
            unit = "byte"
            try:
                text = raw.decode()
            except UnicodeDecodeError as bad:
                raise GraphLoadError(
                    f"line is not valid UTF-8: {bad.reason}",
                    source=source,
                    line=number,
                    column=len(raw[: bad.start].decode()) + 1,
                    offset=start + bad.start,
                    unit=unit,
                ) from None
        else:
            unit = "char"
            text = raw
        if not text.strip():
            continue
        try:
            value = loads(text)
        except json.JSONDecodeError as bad:
            position = bad.pos
            if isinstance(raw, bytes):
                position = len(text[:position].encode())
            raise GraphLoadError(
                f"invalid JSON: {bad.msg}",
                source=source,
                line=number,
                column=bad.colno,
                offset=start + position,
                unit=unit,
            ) from None
        except RecursionError:
            raise GraphLoadError(
                "JSON record is nested too deeply",
                source=source,
                line=number,
                offset=start,
                unit=unit,
            ) from None
        yield number, offset, value


class Shape(Record):
    """One format's record vocabulary for :func:`check_shape`.

    ``required`` maps each record kind to the keys its records must carry.
    ``key`` is the discriminator whose value is a record's kind; a format
    without one has the single kind ``None``.  Messages call a record
    ``noun`` until its kind is known, then ``element.format(kind)`` (the
    noun itself when there is no discriminator); ``choices`` says which
    values ``key`` may take.  The ``properties`` of a record, named
    ``properties.format(element)``, must be an object, checked for the
    kinds in ``with_properties`` (every kind when None).
    """

    required: Mapping[str | None, tuple[str, ...]]
    noun: str
    element: str = "{}"
    properties: str = "{} properties"
    key: str | None = None
    choices: str = ""
    with_properties: frozenset[str] | None = None


def check_shape(
    record: Any,
    shape: Shape,
    source: str | None,
    line: int | None = None,
    noun: str | None = None,
) -> dict[str, Any]:
    """Return *record* if it has *shape*; else raise ``GraphLoadError``.

    The record must be an object, carry the discriminator with a known
    value, carry its kind's required keys, and hold an object (or null)
    under ``properties``.  *noun* overrides ``shape.noun`` (a document
    element's ``nodes[3]``); a *line* puts the error at column 1 of it.
    """
    noun = noun or shape.noun
    if not isinstance(record, dict):
        problem = f"{noun} must be an object, got {type(record).__name__}"
        raise GraphLoadError(problem, source=source, line=line)
    key = shape.key
    kind = None if key is None else record.get(key)
    required = shape.required
    if key is not None and not (isinstance(kind, str) and kind in required):
        if key in record:
            problem = f'{noun} "{key}" must be {shape.choices}, got {kind!r}'
        else:
            problem = f"{noun} is missing required key {key!r}"
        raise GraphLoadError(problem, source=source, line=line)
    for name in required[kind]:
        if name not in record:
            problem = f"{_element(shape, kind, noun)} is missing required key {name!r}"
            raise GraphLoadError(problem, source=source, line=line)
    if shape.with_properties is None or kind in shape.with_properties:
        properties = record.get("properties")
        if properties is not None and not isinstance(properties, dict):
            problem = (
                f"{shape.properties.format(_element(shape, kind, noun))} "
                f"must be an object, got {type(properties).__name__}"
            )
            raise GraphLoadError(problem, source=source, line=line)
    return record


def _element(shape: Shape, kind: str | None, noun: str) -> str:
    return noun if shape.key is None else shape.element.format(kind)
