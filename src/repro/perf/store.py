"""The per-commit profile store: one append-only JSONL file.

A *profile* is one scenario's measurement batch: the commit it was recorded
at, the run number (one ``pgschema perf record`` invocation == one run),
the per-repeat wall-clock samples, an environment fingerprint, and -- when
the scenario ran under a metrics observation -- the obs registry snapshot,
so a regression is attributable to internal signals (plan-cache misses,
tableau expansions, shard sizes), not just wall clock.

Layout under the store root (default ``.perf/``)::

    .perf/profiles.jsonl   append-only, one profile object per line

Every summary (:meth:`ProfileStore.summary`, :meth:`ProfileStore.last_run`)
is derived from the records on each read, so there is no second file to
fall out of step with the data.  Lines are read by :func:`repro.jsonlines.read_json_lines`, the reader graph files and the
CDC journal share, in binary (offsets count bytes).  A final line without
its newline is torn -- the only state an interrupted append can leave --
and the store reads with ``skip_torn_tail=True``, so it is ignored; the
next append truncates it away.  This is not the CDC journal's posture: the
journal is strict and raises :class:`~repro.errors.GraphLoadError` on a
truncated line.  Every other bad line -- invalid UTF-8 or JSON, JSON
nested too deeply, a record that breaks the schema -- raises
:class:`PerfStoreError` naming ``profiles.jsonl:<line>``.

Every profile is schema-pinned: :data:`PROFILE_SCHEMA` is validated on
append *and* on read through the same mini JSON-schema checker the
metrics/trace exporters use, and the golden copy is checked in at
``docs/schemas/perf_profile.schema.json`` (a test asserts the two stay
byte-for-byte in sync).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import GraphLoadError, ReproError
from ..jsonlines import read_json_lines

__all__ = [
    "PROFILE_FORMAT",
    "PROFILE_SCHEMA",
    "PROFILE_VERSION",
    "PerfStoreError",
    "Profile",
    "ProfileStore",
    "environment_fingerprint",
]

PROFILE_FORMAT = "pgschema-perf-profile"
PROFILE_VERSION = 1


class PerfStoreError(ReproError):
    """A profile store that cannot be read or written (corrupt line,
    schema-violating record, unwritable root)."""

    code = "E_PERF"


#: The runtime copy of ``docs/schemas/perf_profile.schema.json``.  The
#: store validates every record against it on append and on read; the
#: checked-in golden file must match byte-for-byte (pinned by a test and
#: checkable via ``python -m repro.obs check``).
PROFILE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "format",
        "version",
        "commit",
        "run",
        "scenario",
        "family",
        "quick",
        "env",
        "samples",
        "stats",
    ],
    "properties": {
        "format": {"type": "string", "enum": [PROFILE_FORMAT]},
        "version": {"type": "integer", "minimum": 1},
        "commit": {"type": "string"},
        "run": {"type": "integer", "minimum": 1},
        "scenario": {"type": "string"},
        "family": {"type": "string"},
        "quick": {"type": "boolean"},
        "env": {
            "type": "object",
            "required": [
                "digest",
                "python",
                "implementation",
                "platform",
                "machine",
                "cpu_count",
            ],
            "properties": {
                "digest": {"type": "string"},
                "python": {"type": "string"},
                "implementation": {"type": "string"},
                "platform": {"type": "string"},
                "machine": {"type": "string"},
                "cpu_count": {"type": "integer", "minimum": 1},
            },
        },
        "samples": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
        },
        "stats": {
            "type": "object",
            "required": ["median", "mean", "min", "max"],
            "properties": {
                "median": {"type": "number", "minimum": 0},
                "mean": {"type": "number", "minimum": 0},
                "min": {"type": "number", "minimum": 0},
                "max": {"type": "number", "minimum": 0},
            },
        },
        "metrics": {"type": ["object", "null"]},
        "meta": {"type": "object"},
    },
}


def environment_fingerprint() -> dict[str, Any]:
    """Where a profile was measured: interpreter, platform, CPU budget.

    Timings are only comparable within one fingerprint, so the ``digest``
    (a stable hash of the other fields) keys every cross-run comparison.
    The same fingerprint is stamped into each ``BENCH_*.json`` artifact by
    the benchmark collector.
    """
    info: dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return {**info, "digest": digest}


@dataclass(frozen=True)
class Profile:
    """One scenario's recorded measurement batch."""

    commit: str
    run: int
    scenario: str
    family: str
    samples: tuple[float, ...]
    env: dict[str, Any] = field(default_factory=environment_fingerprint)
    quick: bool = False
    metrics: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.samples:
            raise PerfStoreError(
                f"profile {self.scenario!r}@{self.commit!r} has no samples"
            )

    @property
    def median(self) -> float:
        return float(statistics.median(self.samples))

    @property
    def best(self) -> float:
        return min(self.samples)

    def to_json(self) -> dict[str, Any]:
        return {
            "format": PROFILE_FORMAT,
            "version": PROFILE_VERSION,
            "commit": self.commit,
            "run": self.run,
            "scenario": self.scenario,
            "family": self.family,
            "quick": self.quick,
            "env": dict(self.env),
            "samples": list(self.samples),
            "stats": {
                "median": self.median,
                "mean": sum(self.samples) / len(self.samples),
                "min": min(self.samples),
                "max": max(self.samples),
            },
            "metrics": self.metrics,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Profile":
        problems = _check_profile(payload)
        if problems:
            raise PerfStoreError(
                "profile record violates the pinned schema: "
                + "; ".join(problems[:3])
            )
        return cls(
            commit=payload["commit"],
            run=payload["run"],
            scenario=payload["scenario"],
            family=payload["family"],
            samples=tuple(float(s) for s in payload["samples"]),
            env=dict(payload["env"]),
            quick=payload["quick"],
            metrics=payload.get("metrics"),
            meta=dict(payload.get("meta", {})),
        )


def _check_profile(payload: Any) -> list[str]:
    # imported lazily: obs.export imports nothing from perf, so this is the
    # dependency direction that keeps the layering acyclic
    from ..obs.export import check_schema

    return check_schema(payload, PROFILE_SCHEMA)


class ProfileStore:
    """Append-only, schema-pinned store of :class:`Profile` records."""

    DATA_NAME = "profiles.jsonl"

    def __init__(self, root: str) -> None:
        self.root = root

    @property
    def data_path(self) -> str:
        return os.path.join(self.root, self.DATA_NAME)

    def exists(self) -> bool:
        return os.path.exists(self.data_path)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def profiles(self) -> list[Profile]:
        """Every valid record, in append order.

        A torn final line (interrupted append) is silently ignored; any
        other bad line raises :class:`PerfStoreError` with the line number.
        """
        if not self.exists():
            return []
        with open(self.data_path, "rb") as fp:
            try:
                lines = list(read_json_lines(fp, None, skip_torn_tail=True))
            except GraphLoadError as bad:
                raise PerfStoreError(
                    f"{self.data_path}:{bad.line}: corrupt profile record: {bad}"
                ) from None
        records: list[Profile] = []
        for number, _end, payload in lines:
            try:
                records.append(Profile.from_json(payload))
            except PerfStoreError as bad:
                raise PerfStoreError(f"{self.data_path}:{number}: {bad}") from None
        return records

    def runs(self) -> dict[int, list[Profile]]:
        """Profiles grouped by run number, in run order."""
        grouped: dict[int, list[Profile]] = {}
        for profile in self.profiles():
            grouped.setdefault(profile.run, []).append(profile)
        return dict(sorted(grouped.items()))

    def last_run(self) -> int:
        return max((p.run for p in self.profiles()), default=0)

    def commits(self) -> list[str]:
        """Distinct commits in first-recorded order."""
        return list(dict.fromkeys(p.commit for p in self.profiles()))

    def scenarios(self) -> list[str]:
        return sorted({p.scenario for p in self.profiles()})

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def append(self, profiles: list[Profile]) -> None:
        """Append a batch of profiles durably (flushed and fsynced).

        Records are validated against :data:`PROFILE_SCHEMA` before any
        byte is written, so a malformed profile can never reach the data
        file.
        """
        if not profiles:
            return
        payloads = [profile.to_json() for profile in profiles]
        for payload in payloads:
            problems = _check_profile(payload)
            if problems:
                raise PerfStoreError(
                    "refusing to append a schema-violating profile: "
                    + "; ".join(problems[:3])
                )
        os.makedirs(self.root, exist_ok=True)
        self._drop_torn_tail()
        with open(self.data_path, "a", encoding="utf-8") as fp:
            for payload in payloads:
                fp.write(json.dumps(payload, sort_keys=True) + "\n")
            fp.flush()
            os.fsync(fp.fileno())

    def _drop_torn_tail(self) -> None:
        """Truncate a torn final line (interrupted append) before writing.

        Readers already skip the fragment; dropping it keeps the data file
        clean so the fragment can never end up mid-file after new appends.
        """
        try:
            fp = open(self.data_path, "rb+")
        except FileNotFoundError:
            return
        with fp:
            data = fp.read()
            if data and not data.endswith(b"\n"):
                fp.truncate(data.rfind(b"\n") + 1)

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #

    def summary(self) -> dict[str, Any]:
        """The health view surfaced by ``pgschema stats --json`` and
        the service's ``/v1/stats`` (see :func:`repro.perf.perf_summary`
        for the variant that adds the newest verdicts)."""
        profiles = self.profiles()
        return {
            "store": self.root,
            "profiles": len(profiles),
            "runs": max((p.run for p in profiles), default=0),
            "scenarios": len({p.scenario for p in profiles}),
            "commits": len({p.commit for p in profiles}),
            "last_commit": profiles[-1].commit if profiles else None,
        }

    def __iter__(self) -> Iterator[Profile]:
        return iter(self.profiles())

    def __len__(self) -> int:
        return len(self.profiles())
