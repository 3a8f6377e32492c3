"""Crash-resumable CDC validation: consume a mutation journal, keep the
violation set current, survive being killed at any point.

:class:`CDCConsumer` drives an :class:`IncrementalValidator` from an
ordered :class:`~repro.validation.journal.MutationJournal`.  Events are
applied *transactionally per commit marker*; at each marker the consumer
diffs the violation set against the previous commit and emits
deterministic :class:`ViolationEvent` APPEARED/DISAPPEARED deltas -- the
PG-Schema framing that violation *transitions*, not end states, are the
operational contract for a living graph.  ``set_schema`` events route
through :func:`repro.evolution.diff_schemas`: when the change set is
scope-local (no subtype/union/interface/enum surgery) the validator is
*migrated* -- only scopes under the labels the diff names are rechecked
(:func:`~repro.validation.incremental.migrated_validator`); anything
structural falls back to a full rebuild.

Durability is the headline.  Every ``checkpoint_every`` commits the
consumer writes an atomic checkpoint into ``checkpoint_dir`` (through
:func:`~repro.resilience.durable.atomic_write`) holding the journal byte
offset / sequence / line, the commit counter, the serialized graph, the
current schema SDL, the violation store, the emitted-events byte offset,
and a SHA-256 digest over the whole payload.  Recovery walks a ladder:

1. newest checkpoint whose digest verifies *and* whose violation store
   matches a validator rebuilt from its own graph (scope-state check);
2. the previous checkpoint, on corruption/truncation;
3. cold replay from offset 0.

The events log is truncated back to the checkpointed offset before the
journal suffix replays, so a crashed-and-resumed run produces an events
file and final report *byte-identical* to an uninterrupted run -- the
property the crash tests enforce with fault-injected kills at the
``cdc.apply`` / ``cdc.checkpoint`` / ``cdc.recover`` sites (all under
``PGSCHEMA_FAULTS``).  Transient apply faults are retried with
exponential backoff *before* any mutation lands; budget exhaustion
surfaces as a typed UNKNOWN/partial report frozen at the last completed
commit boundary.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Any

from .. import obs
from ..errors import BudgetExhaustedError, GraphLoadError, ReproError
from ..evolution import SchemaDiff, diff_schemas
from ..pg.io import graph_from_dict, graph_to_dict
from ..pg.model import PropertyGraph
from ..resilience import faults
from ..resilience.durable import atomic_write
from ..schema.build import parse_schema
from ..schema.printer import print_schema
from .incremental import IncrementalValidator, migrated_validator
from .journal import MutationEvent, MutationJournal
from .sites import labels_below
from .violations import ValidationReport, Violation

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CDCConsumer",
    "CDCResult",
    "ViolationEvent",
]

CHECKPOINT_FORMAT = "pgschema-cdc-checkpoint"
CHECKPOINT_VERSION = 1

#: How many committed checkpoints to keep (newest + its fallback).
_KEEP_CHECKPOINTS = 2

APPEARED = "appeared"
DISAPPEARED = "disappeared"


@dataclass(frozen=True)
class ViolationEvent:
    """One violation transition observed at a commit boundary.

    Attributes:
        kind: ``"appeared"`` or ``"disappeared"``.
        commit: 1-based index of the commit whose application caused it.
        rule: The satisfaction rule id (``"WS1"`` ... ``"SS4"``).
        location: The schema location imposing the constraint.
        elements: The witnessing graph elements.
        detail: The violation's human-readable detail (for DISAPPEARED,
            the detail the violation carried while it existed).
    """

    kind: str
    commit: int
    rule: str
    location: str
    elements: tuple
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "event": self.kind,
            "commit": self.commit,
            "rule": self.rule,
            "location": self.location,
            "elements": list(self.elements),
            "detail": self.detail,
        }

    def __str__(self) -> str:
        sign = "+" if self.kind == APPEARED else "-"
        where = f" [{self.location}]" if self.location else ""
        subject = ", ".join(str(element) for element in self.elements)
        return f"{sign}{self.rule}{where} ({subject}) @commit {self.commit}"


@dataclass
class CDCResult:
    """The outcome of one :meth:`CDCConsumer.run`."""

    report: ValidationReport
    events: list[ViolationEvent]
    commits: int
    events_applied: int
    recovered_from: str | None
    checkpoints_written: int
    retries: int

    @property
    def conforms(self) -> bool:
        return self.report.conforms


# One encoder each for the checkpoint/events bytes and the violation-state
# sort key (``json.dumps`` with any option builds a new one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_SORT_KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def _violation_state(report: ValidationReport) -> list[list[Any]]:
    """Canonical JSON-friendly form of a report's violation multiset."""
    entries = [
        [violation.rule, violation.location, list(violation.elements), violation.detail]
        for violation in report.violations
    ]
    entries.sort(key=_SORT_KEY_ENCODER.encode)
    return entries


def _digest(payload: dict[str, Any]) -> str:
    return hashlib.sha256(_ENCODER.encode(payload).encode("utf-8")).hexdigest()


def _checkpoint_blob(payload: dict[str, Any]) -> bytes:
    """The checkpoint file: *payload* plus its :func:`_digest`, each member
    encoded once and joined twice (without, then with the digest)."""
    members = {key: _ENCODER.encode(value) for key, value in payload.items()}

    def document() -> str:
        return "{" + ",".join(
            f"{_ENCODER.encode(key)}:{members[key]}" for key in sorted(members)
        ) + "}"

    digest = hashlib.sha256(document().encode("utf-8")).hexdigest()
    members["digest"] = _ENCODER.encode(digest)
    return document().encode("utf-8")


def _event_sort_key(key: tuple) -> tuple[str, str, list[str]]:
    rule, location, elements = key
    return (str(rule), str(location), [str(element) for element in elements])


def _affected_labels(
    old: "GraphQLSchema", new: "GraphQLSchema", diff: SchemaDiff
) -> frozenset[str] | None:
    """The labels whose scopes a schema change can touch, or None.

    Returns None (→ full rebuild) whenever the change alters the subtype
    relation or a value domain out from under unchanged declarations:
    interface/union membership, enum value sets, custom scalar sets, or
    any change the diff locates at a union/interface/enum/scalar.  For
    the remaining (object-type-local) changes the affected labels are the
    labels below each named type in *both* schemas, plus -- for
    relationship fields -- the labels below the field's target family
    (the DS4 target side lives in the target node's scope).
    """
    if set(old.interface_types) != set(new.interface_types):
        return None
    if set(old.union_types) != set(new.union_types):
        return None
    for union_name in old.union_types:
        if old.union(union_name) != new.union(union_name):
            return None
    for interface_name in old.interface_types:
        if old.implementation(interface_name) != new.implementation(interface_name):
            return None
    if old.scalars.custom_names != new.scalars.custom_names:
        return None
    for name in old.scalars.custom_names:
        if old.scalars.is_enum(name) != new.scalars.is_enum(name):
            return None
        if old.scalars.is_enum(name) and (
            old.scalars.enum_values(name) != new.scalars.enum_values(name)
        ):
            return None

    affected: set[str] = set()

    def add_type(type_name: str) -> None:
        affected.update(labels_below(old, type_name))
        affected.update(labels_below(new, type_name))

    for change in diff.changes:
        location = change.location
        if location.startswith(("union ", "interface ", "enum ", "scalar ")):
            return None
        if location.startswith("type "):
            add_type(location[len("type "):])
            continue
        head, _, rest = location.partition(".")
        field_name = rest.split("(", 1)[0]
        if not head or not field_name:
            return None
        add_type(head)
        for schema in (old, new):
            ref = schema.type_f(head, field_name)
            if ref is not None and not schema.is_scalar_type(ref.base):
                affected.update(labels_below(schema, ref.base))
    return frozenset(affected)


class CDCConsumer:
    """Applies a mutation journal to a validated graph, resumably.

    Args:
        schema: The initial schema (``set_schema`` events may replace it).
        journal: The mutation journal (path or :class:`MutationJournal`).
        base_graph: Optional starting graph (copied; the original is not
            mutated).  Defaults to an empty graph.
        checkpoint_dir: Where to write checkpoints; None disables both
            checkpointing and resume.
        checkpoint_every: Commits between checkpoints.
        events_path: Optional JSONL file receiving every
            :class:`ViolationEvent` (the byte-identical-stream surface).
        budget: Optional :class:`~repro.resilience.Budget` template;
            charged ``len(commit)`` nodes + a deadline check per commit,
            *before* the commit applies, so exhaustion always leaves the
            consumer at a commit boundary.
        on_budget: ``"unknown"`` (partial report) or ``"error"`` (raise).
        retry_attempts: Extra attempts for transient apply failures.
        retry_base_delay: Backoff base (doubles per retry).
    """

    def __init__(
        self,
        schema: "GraphQLSchema",
        journal: "MutationJournal | str | os.PathLike[str]",
        *,
        base_graph: "PropertyGraph | None" = None,
        checkpoint_dir: "str | os.PathLike[str] | None" = None,
        checkpoint_every: int = 16,
        events_path: "str | os.PathLike[str] | None" = None,
        budget: "Budget | None" = None,
        on_budget: str = "unknown",
        retry_attempts: int = 2,
        retry_base_delay: float = 0.05,
    ) -> None:
        if on_budget not in ("unknown", "error"):
            raise ValueError(f"on_budget must be 'unknown' or 'error', got {on_budget!r}")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self._initial_schema = schema
        self._journal = (
            journal if isinstance(journal, MutationJournal) else MutationJournal(journal)
        )
        self._base_graph_dict = (
            graph_to_dict(base_graph) if base_graph is not None else None
        )
        self._checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self._events_path = os.fspath(events_path) if events_path is not None else None
        self.budget = budget
        self.on_budget = on_budget
        self.retry_attempts = retry_attempts
        self.retry_base_delay = retry_base_delay
        if self._checkpoint_dir is not None:
            os.makedirs(self._checkpoint_dir, exist_ok=True)
        # consume-time state (set by _start)
        self._validator: IncrementalValidator | None = None
        self._schema: "GraphQLSchema" = schema
        self._schema_sdl = ""
        self._offset = 0
        self._seq = 0
        self._line = 0
        self._commit_index = 0
        self._events_offset = 0
        self._events_fp: IO[bytes] | None = None
        self._last_violations: dict[tuple, Violation] = {}
        self._budget: "Budget | None" = None
        self._commits_since_checkpoint = 0
        self._checkpoints_written = 0
        self._retries = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run(self, resume: bool = False) -> CDCResult:
        """Consume the journal (optionally resuming) and return the result."""
        started = time.perf_counter()
        with obs.span("cdc.run", journal=self._journal.path, resume=resume):
            recovered_from = self._start(resume)
            try:
                result = self._consume(recovered_from)
            finally:
                self._close_events()
        elapsed = time.perf_counter() - started
        if elapsed > 0 and result.events_applied:
            obs.gauge("cdc.events_per_second", result.events_applied / elapsed)
        return result

    # ------------------------------------------------------------------ #
    # start / recovery ladder
    # ------------------------------------------------------------------ #

    def _base_graph(self) -> PropertyGraph:
        if self._base_graph_dict is None:
            return PropertyGraph()
        return graph_from_dict(self._base_graph_dict)

    def _cold_state(self) -> None:
        self._schema = self._initial_schema
        self._schema_sdl = print_schema(self._schema)
        self._validator = IncrementalValidator(self._schema, self._base_graph())
        self._offset = 0
        self._seq = 0
        self._line = 0
        self._commit_index = 0
        self._events_offset = 0
        self._last_violations = self._current_violations()

    def _start(self, resume: bool) -> str | None:
        self._budget = self.budget.renew() if self.budget is not None else None
        self._commits_since_checkpoint = 0
        self._checkpoints_written = 0
        self._retries = 0
        recovered_from: str | None = None
        if resume and self._checkpoint_dir is not None:
            recovered_from = self._recover()
        else:
            if self._checkpoint_dir is not None:
                # a fresh run invalidates checkpoints of any previous run
                self._clear_checkpoints()
            self._cold_state()
        self._open_events()
        return recovered_from

    def _recover(self) -> str:
        faults.fault_point("cdc.recover", stage="start")
        with obs.span("cdc.recover"):
            for path in self._checkpoint_candidates():
                state = self._load_checkpoint(path)
                if state is None:
                    obs.count("cdc.recover.rejected")
                    continue
                self._schema = state["schema"]
                self._schema_sdl = state["schema_sdl"]
                self._validator = state["validator"]
                self._offset = state["offset"]
                self._seq = state["seq"]
                self._line = state["line"]
                self._commit_index = state["commit"]
                self._events_offset = state["events_offset"]
                self._last_violations = self._current_violations()
                obs.instant("cdc.recovered", source=os.path.basename(path))
                return f"checkpoint:{os.path.basename(path)}"
            # recovery ladder bottom: cold replay from offset 0
            self._cold_state()
            obs.instant("cdc.recovered", source="cold")
            return "cold"

    def _checkpoint_candidates(self, names: list[str] | None = None) -> list[str]:
        """Checkpoint paths, newest first, among *names* (default: listed now)."""
        assert self._checkpoint_dir is not None
        if names is None:
            try:
                names = os.listdir(self._checkpoint_dir)
            except OSError:
                return []
        return [
            os.path.join(self._checkpoint_dir, name)
            for name in sorted(names, reverse=True)
            if name.startswith("ckpt-") and name.endswith(".json")
        ]

    def _load_checkpoint(self, path: str) -> dict[str, Any] | None:
        """Decode and *verify* one checkpoint; None means try the next rung."""
        try:
            with open(path, "rb") as fp:
                payload = json.load(fp)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != CHECKPOINT_FORMAT:
            return None
        if payload.get("version") != CHECKPOINT_VERSION:
            return None
        stored_digest = payload.pop("digest", None)
        if stored_digest != _digest(payload):
            return None
        try:
            graph = graph_from_dict(payload["graph"])
            schema = parse_schema(payload["schema_sdl"])
            validator = IncrementalValidator(schema, graph)
        except (ReproError, KeyError, TypeError, ValueError):
            return None
        # scope-state digest: the stored violation store must match a
        # validator rebuilt from the checkpointed graph, or the checkpoint
        # is internally inconsistent (e.g. torn by a partial write that
        # still hashed correctly -- impossible for sha256, but cheap to
        # guard; mostly this catches hand-edited checkpoints)
        if _violation_state(validator.report()) != payload.get("violations"):
            return None
        offset = payload.get("offset")
        seq = payload.get("seq")
        line = payload.get("line")
        commit = payload.get("commit")
        events_offset = payload.get("events_offset")
        values = (offset, seq, line, commit, events_offset)
        if not all(isinstance(value, int) and value >= 0 for value in values):
            return None
        if offset > self._journal_size():
            return None  # checkpoint is ahead of the (truncated?) journal
        if self._events_path is not None:
            try:
                emitted = os.path.getsize(self._events_path)
            except OSError:
                emitted = 0
            if emitted < events_offset:
                return None  # events log lost bytes the checkpoint relies on
        return {
            "schema": schema,
            "schema_sdl": payload["schema_sdl"],
            "validator": validator,
            "offset": offset,
            "seq": seq,
            "line": line,
            "commit": commit,
            "events_offset": events_offset,
        }

    def _journal_size(self) -> int:
        try:
            return self._journal.size()
        except OSError:
            return 0

    def _clear_checkpoints(self) -> None:
        for path in self._checkpoint_candidates():
            try:
                os.remove(path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # events log
    # ------------------------------------------------------------------ #

    def _open_events(self) -> None:
        if self._events_path is None:
            return
        exists = os.path.exists(self._events_path)
        fp = open(self._events_path, "r+b" if exists else "w+b")
        # drop any events emitted after the recovery point so the replayed
        # suffix regenerates them -- this is what makes the stream exact
        fp.truncate(self._events_offset)
        fp.seek(self._events_offset)
        self._events_fp = fp

    def _close_events(self) -> None:
        if self._events_fp is not None:
            self._events_fp.flush()
            self._events_fp.close()
            self._events_fp = None

    def _write_events(self, events: list[ViolationEvent]) -> None:
        if self._events_fp is None:
            self._events_offset += sum(
                len(_ENCODER.encode(event.to_json())) + 1 for event in events
            )
            return
        for event in events:
            blob = (_ENCODER.encode(event.to_json()) + "\n").encode("utf-8")
            self._events_fp.write(blob)
            self._events_offset += len(blob)

    # ------------------------------------------------------------------ #
    # the consume loop
    # ------------------------------------------------------------------ #

    def _consume(self, recovered_from: str | None) -> CDCResult:
        assert self._validator is not None
        journal_size = self._journal_size()
        pending: list[MutationEvent] = []
        all_events: list[ViolationEvent] = []
        events_applied = 0
        commits = 0
        interruption: object | None = None
        try:
            for event in self._journal.read(self._offset, self._seq, self._line):
                if event.is_commit:
                    all_events.extend(self._commit(pending, event, journal_size))
                    events_applied += len(pending)
                    commits += 1
                    pending = []
                else:
                    pending.append(event)
            if pending:
                # a journal ending without a marker: apply the tail as one
                # implicit final commit (identically on resume, since the
                # resume point is always a marker boundary)
                all_events.extend(self._commit(pending, None, journal_size))
                events_applied += len(pending)
                commits += 1
                pending = []
        except BudgetExhaustedError as exhausted:
            if self.on_budget == "error":
                raise
            interruption = exhausted.reason
            obs.instant("cdc.budget_exhausted", site=exhausted.reason.site)
        if self._checkpoint_dir is not None and self._commits_since_checkpoint:
            self._write_checkpoint()
            self._commits_since_checkpoint = 0
        report = self._validator.report()
        if interruption is not None:
            report.complete = False
            report.interruption = interruption
        return CDCResult(
            report=report,
            events=all_events,
            commits=commits,
            events_applied=events_applied,
            recovered_from=recovered_from,
            checkpoints_written=self._checkpoints_written,
            retries=self._retries,
        )

    def _commit(
        self,
        pending: list[MutationEvent],
        marker: MutationEvent | None,
        journal_size: int,
    ) -> list[ViolationEvent]:
        commit_index = self._commit_index + 1
        if self._budget is not None:
            # charge *before* mutating so exhaustion is a clean boundary
            if pending:
                self._budget.charge_nodes(len(pending), site="cdc.apply")
            self._budget.check_deadline(site="cdc.apply")
        self._apply_with_retry(pending, commit_index)
        boundary = marker if marker is not None else pending[-1]
        self._offset = boundary.end_offset
        self._seq = boundary.seq
        self._line = boundary.line
        self._commit_index = commit_index
        events = self._emit_transitions(commit_index)
        self._write_events(events)
        obs.count("cdc.commits")
        obs.count("cdc.events", len(pending))
        if events:
            obs.count("cdc.violation_events", len(events))
        obs.gauge("cdc.lag", max(0, journal_size - self._offset))
        self._commits_since_checkpoint += 1
        if (
            self._checkpoint_dir is not None
            and self._commits_since_checkpoint >= self.checkpoint_every
        ):
            self._write_checkpoint()
            self._commits_since_checkpoint = 0
        return events

    def _apply_with_retry(self, pending: list[MutationEvent], commit_index: int) -> None:
        attempt = 0
        while True:
            try:
                # the fault point sits *before* any mutation: an injected
                # transient failure retries against untouched state
                faults.fault_point("cdc.apply", commit=commit_index, attempt=attempt)
                with obs.span("cdc.apply", commit=commit_index, events=len(pending)):
                    for event in pending:
                        self._apply_event(event)
                return
            except ReproError:
                raise  # permanent: the journal cannot apply to this graph
            except Exception:
                if attempt >= self.retry_attempts:
                    raise
                attempt += 1
                self._retries += 1
                obs.count("cdc.apply.retries")
                obs.instant("cdc.retry", commit=commit_index, attempt=attempt)
                delay = self.retry_base_delay * (2 ** (attempt - 1))
                if delay > 0:
                    time.sleep(delay)

    def _apply_event(self, event: MutationEvent) -> None:
        assert self._validator is not None
        record = event.record
        op = event.op
        try:
            if op == "add_node":
                self._validator.add_node(
                    record["id"], record["label"], record.get("properties")
                )
            elif op == "remove_node":
                self._validator.remove_node(record["id"])
            elif op == "add_edge":
                self._validator.add_edge(
                    record["id"],
                    record["source"],
                    record["target"],
                    record["label"],
                    record.get("properties"),
                )
            elif op == "remove_edge":
                self._validator.remove_edge(record["id"])
            elif op == "set_property":
                self._validator.set_property(
                    record["id"], record["name"], record["value"]
                )
            elif op == "remove_property":
                self._validator.remove_property(record["id"], record["name"])
            elif op == "set_schema":
                self._apply_schema_change(record["sdl"])
            else:  # pragma: no cover - the journal shape-check forbids this
                raise GraphLoadError(
                    f"unknown journal op {op!r}",
                    source=self._journal.path,
                    line=event.line,
                    column=1,
                )
        except GraphLoadError:
            raise
        except (ReproError, TypeError, ValueError) as bad:
            raise GraphLoadError(
                f"cannot apply {op} event: {bad}",
                source=self._journal.path,
                line=event.line,
                column=1,
            ) from bad

    # ------------------------------------------------------------------ #
    # schema-change events
    # ------------------------------------------------------------------ #

    def _apply_schema_change(self, sdl: str) -> None:
        assert self._validator is not None
        new_schema = parse_schema(sdl)
        with obs.span("cdc.schema_change"):
            diff = diff_schemas(self._schema, new_schema)
            obs.count("cdc.schema_changes")
            affected = _affected_labels(self._schema, new_schema, diff)
            if affected is None:
                # structural change (subtyping / value domains): rebuild
                self._validator = IncrementalValidator(
                    new_schema, self._validator.graph
                )
                obs.count("cdc.schema_rebuilds")
            elif affected or diff.changes:
                self._validator, rechecked = migrated_validator(
                    self._validator, new_schema, affected
                )
                obs.count("cdc.schema_migrations")
                obs.count("cdc.schema_rechecked_scopes", rechecked)
            # an empty diff with identical structure: keep the validator
            self._schema = new_schema
            self._schema_sdl = print_schema(new_schema)

    # ------------------------------------------------------------------ #
    # violation transitions
    # ------------------------------------------------------------------ #

    def _current_violations(self) -> dict[tuple, Violation]:
        assert self._validator is not None
        current: dict[tuple, Violation] = {}
        for violation in self._validator.report().violations:
            key = violation.key()
            kept = current.get(key)
            # order-independent representative when identities collide
            if kept is None or violation.detail < kept.detail:
                current[key] = violation
        return current

    def _emit_transitions(self, commit_index: int) -> list[ViolationEvent]:
        current = self._current_violations()
        previous = self._last_violations
        events: list[ViolationEvent] = []
        for key in sorted(set(current) - set(previous), key=_event_sort_key):
            rule, location, elements = key
            events.append(
                ViolationEvent(
                    APPEARED, commit_index, rule, location, elements,
                    current[key].detail,
                )
            )
        for key in sorted(set(previous) - set(current), key=_event_sort_key):
            rule, location, elements = key
            events.append(
                ViolationEvent(
                    DISAPPEARED, commit_index, rule, location, elements,
                    previous[key].detail,
                )
            )
        self._last_violations = current
        return events

    # ------------------------------------------------------------------ #
    # checkpoints
    # ------------------------------------------------------------------ #

    def _write_checkpoint(self) -> None:
        assert self._validator is not None and self._checkpoint_dir is not None
        faults.fault_point(
            "cdc.checkpoint", commit=self._commit_index, phase="begin"
        )
        with obs.span("cdc.checkpoint", commit=self._commit_index):
            if self._events_fp is not None:
                # the checkpoint pins the events-log length: make those
                # bytes durable before anything references them
                self._events_fp.flush()
                os.fsync(self._events_fp.fileno())
            payload: dict[str, Any] = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "journal": os.path.basename(self._journal.path),
                "offset": self._offset,
                "seq": self._seq,
                "line": self._line,
                "commit": self._commit_index,
                "events_offset": self._events_offset,
                "schema_sdl": self._schema_sdl,
                "graph": graph_to_dict(self._validator.graph),
                "violations": _violation_state(self._validator.report()),
            }
            blob = _checkpoint_blob(payload)
            final = os.path.join(
                self._checkpoint_dir, f"ckpt-{self._commit_index:010d}.json"
            )
            # a crash before the rename leaves only the tmp file, which
            # recovery ignores -- the previous checkpoint still wins
            atomic_write(final, blob, "cdc.checkpoint", commit=self._commit_index)
            self._checkpoints_written += 1
            obs.gauge("cdc.checkpoint_bytes", len(blob))
            obs.count("cdc.checkpoints")
            self._prune_checkpoints(keep=final)

    def _prune_checkpoints(self, keep: str) -> None:
        assert self._checkpoint_dir is not None
        names = os.listdir(self._checkpoint_dir)
        for stale in self._checkpoint_candidates(names)[_KEEP_CHECKPOINTS:]:
            try:
                os.remove(stale)
            except OSError:
                pass
        for name in names:
            if name.endswith(".json.tmp"):
                stale = os.path.join(self._checkpoint_dir, name)
                if stale != keep + ".tmp":
                    try:
                        os.remove(stale)
                    except OSError:
                        pass
