"""The versioned, multi-tenant schema registry behind ``pgschema serve``.

A *record* is one registered schema version: the SDL text, the parsed
:class:`~repro.schema.model.GraphQLSchema`, and -- the point of a
long-lived service -- the process-resident state the one-shot CLI pays to
rebuild on every invocation, built eagerly at registration:

* the compiled :class:`~repro.validation.plan.ValidationPlan`
  (``record.plan is compile_plan(record.schema)``);
* the schema's :class:`~repro.satisfiability.cache.SatCache`
  (``record.sat_cache is sat_cache_for(record.schema)``), handed to every
  :class:`~repro.satisfiability.SatisfiabilityChecker` built for the
  record.

Both live in the memo of the record's own schema object, so they are
never evicted and never shared: every registration parses its own schema,
and tenants share nothing but the process.  Names are scoped ``(tenant,
name, version)``; a lookup always carries the tenant, so tenant A cannot
address -- or warm -- tenant B's state.

Persistence goes through :func:`~repro.resilience.durable.atomic_write`,
like CDC checkpoints: each version is one
``<root>/<tenant>/<name>/<version>.graphql`` file written to a ``.tmp``
sibling, fsynced, then atomically renamed into place, so a crash mid-write
can never leave a half-registered version.  A version is published only
after its file is durable, so a failed write burns no version number.
Restart recovery is a directory walk: every persisted version is
re-parsed and re-compiled, so a restarted daemon comes back warm with the
same version numbers.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass, field

from .. import obs
from ..errors import ServiceError
from ..resilience.durable import atomic_write
from ..satisfiability.cache import SatCache, sat_cache_for
from ..schema import parse_schema
from ..schema.model import GraphQLSchema
from ..validation.plan import ValidationPlan, compile_plan

__all__ = ["SchemaRecord", "SchemaRegistry"]

#: Tenants and schema names become path segments on disk, so they are
#: restricted to a safe token shape (no separators, no dotfiles).
_TOKEN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _check_token(kind: str, value: str) -> str:
    if not _TOKEN.match(value) or ".." in value:
        raise ServiceError(
            f"invalid {kind} {value!r}: expected a name matching "
            "[A-Za-z0-9][A-Za-z0-9._-]* (max 64 chars)"
        )
    return value


@dataclass
class SchemaRecord:
    """One registered schema version with its warm state."""

    tenant: str
    name: str
    version: int
    sdl: str
    schema: GraphQLSchema
    plan: ValidationPlan
    sat_cache: SatCache
    registered_at: float = field(default_factory=time.monotonic)

    def describe(self) -> dict[str, object]:
        """The JSON shape the service returns for registry lookups."""
        return {
            "tenant": self.tenant,
            "name": self.name,
            "version": self.version,
            "object_types": len(self.schema.object_types),
        }


class SchemaRegistry:
    """Versioned schemas per tenant, with optional on-disk persistence.

    Thread-safe: one lock guards the record map and the version counters
    (registration is rare; lookups copy nothing and hold the lock only for
    a dict hit).
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = root
        self._lock = threading.Lock()
        #: (tenant, name) -> {version -> record}, insertion-ordered
        self._records: dict[tuple[str, str], dict[int, SchemaRecord]] = {}
        #: per-tenant counters feeding the /v1/stats payload
        self._tenant_stats: dict[str, dict[str, int]] = {}
        if root is not None:
            self._open_root(root)
            self._reload()

    # ------------------------------------------------------------------ #
    # registration and lookup
    # ------------------------------------------------------------------ #

    def register(self, tenant: str, name: str, sdl: str) -> SchemaRecord:
        """Parse, compile and store *sdl* as the next version of *name*.

        Parsing/consistency failures raise their usual typed errors
        (``E_SYNTAX``/``E_SCHEMA``/``E_CONSISTENCY``) before anything is
        stored -- a bad upload never burns a version number.
        """
        _check_token("tenant", tenant)
        _check_token("schema name", name)
        with obs.span("service.register", tenant=tenant, schema=name):
            schema = parse_schema(sdl, check=True)
            # compile eagerly: registration pays the cold cost once so every
            # later validate against this version is a warm hit
            plan = compile_plan(schema)
            sat_cache = sat_cache_for(schema)
        with self._lock:
            versions = self._records.get((tenant, name), {})
            version = max(versions, default=0) + 1
            record = SchemaRecord(
                tenant=tenant,
                name=name,
                version=version,
                sdl=sdl,
                schema=schema,
                plan=plan,
                sat_cache=sat_cache,
            )
            if self.root is not None:
                # published only once durable: a failed write leaves no
                # version behind that a restart would forget and reuse
                self._persist(record)
            versions[version] = record
            self._records[(tenant, name)] = versions
            stats = self._tenant_counters(tenant)
            stats["schemas_registered"] += 1
            stats["cold_compiles"] += 1
        obs.count("service.registrations")
        return record

    def get(
        self, tenant: str, name: str, version: int | None = None
    ) -> SchemaRecord:
        """The record for ``(tenant, name, version)`` (latest by default).

        Raises :class:`~repro.errors.ServiceError` for unknown coordinates;
        the HTTP layer maps that to 404.  Every hit counts as a warm plan
        hit for the tenant -- the record's plan *is* the cache.
        """
        with self._lock:
            versions = self._records.get((tenant, name))
            if not versions:
                raise ServiceError(
                    f"unknown schema {name!r} for tenant {tenant!r}"
                )
            if version is None:
                version = max(versions)
            record = versions.get(version)
            if record is None:
                raise ServiceError(
                    f"unknown version {version} of schema {name!r} "
                    f"for tenant {tenant!r} (have {sorted(versions)})"
                )
            self._tenant_counters(tenant)["warm_plan_hits"] += 1
        return record

    def list(self, tenant: str) -> list[dict[str, object]]:
        """Every (name, versions) pair registered by *tenant* -- and only
        by *tenant*: the scoped key is the isolation boundary."""
        with self._lock:
            return [
                {"name": name, "versions": sorted(versions)}
                for (owner, name), versions in sorted(self._records.items())
                if owner == tenant
            ]

    def tenant_stats(self) -> dict[str, dict[str, int]]:
        """Per-tenant counters (registrations, warm plan hits, compiles)."""
        with self._lock:
            return {
                tenant: dict(counters)
                for tenant, counters in sorted(self._tenant_stats.items())
            }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(versions) for versions in self._records.values())

    def _tenant_counters(self, tenant: str) -> dict[str, int]:
        return self._tenant_stats.setdefault(
            tenant,
            {"schemas_registered": 0, "cold_compiles": 0, "warm_plan_hits": 0},
        )

    # ------------------------------------------------------------------ #
    # persistence (every version file through atomic_write)
    # ------------------------------------------------------------------ #

    def _open_root(self, root: str) -> None:
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as error:
            raise ServiceError(f"cannot open registry directory: {error}") from error
        if not os.path.isdir(root):
            raise ServiceError(f"registry path is not a directory: {root!r}")

    def _persist(self, record: SchemaRecord) -> None:
        assert self.root is not None
        directory = os.path.join(self.root, record.tenant, record.name)
        try:
            os.makedirs(directory, exist_ok=True)
            atomic_write(
                os.path.join(directory, f"{record.version}.graphql"),
                record.sdl.encode("utf-8"),
                "registry.persist",
                tenant=record.tenant,
                schema=record.name,
                version=record.version,
            )
        except OSError as error:
            raise ServiceError(f"cannot persist schema version: {error}") from error

    def _reload(self) -> None:
        """Rebuild every persisted record (restart recovery).

        ``.tmp`` leftovers from a crashed write are skipped --
        :func:`~repro.resilience.durable.atomic_write` guarantees a
        ``.graphql`` file is always a complete document.
        """
        assert self.root is not None
        loaded = 0
        for tenant in sorted(self._listdir(self.root)):
            tenant_dir = os.path.join(self.root, tenant)
            if not os.path.isdir(tenant_dir) or not _TOKEN.match(tenant):
                continue
            for name in sorted(self._listdir(tenant_dir)):
                schema_dir = os.path.join(tenant_dir, name)
                if not os.path.isdir(schema_dir) or not _TOKEN.match(name):
                    continue
                for filename in sorted(self._listdir(schema_dir)):
                    stem, ext = os.path.splitext(filename)
                    if ext != ".graphql" or not stem.isdigit():
                        continue
                    path = os.path.join(schema_dir, filename)
                    with open(path, encoding="utf-8") as handle:
                        sdl = handle.read()
                    schema = parse_schema(sdl, check=True)
                    record = SchemaRecord(
                        tenant=tenant,
                        name=name,
                        version=int(stem),
                        sdl=sdl,
                        schema=schema,
                        plan=compile_plan(schema),
                        sat_cache=sat_cache_for(schema),
                    )
                    self._records.setdefault((tenant, name), {})[
                        record.version
                    ] = record
                    self._tenant_counters(tenant)["cold_compiles"] += 1
                    loaded += 1
        if loaded:
            obs.count("service.reloaded_schemas", loaded)

    @staticmethod
    def _listdir(path: str) -> list[str]:
        try:
            return os.listdir(path)
        except OSError as error:
            raise ServiceError(f"cannot read registry directory: {error}") from error
