"""The ``pgschema serve`` daemon: stdlib-only asyncio JSON-over-HTTP.

One :class:`ValidationService` owns a :class:`~repro.service.registry.SchemaRegistry`
(versioned, per-tenant, optionally persisted) and a
:class:`~repro.service.batching.BatchingValidator` (coalescing, admission
control, deadlines).  The HTTP layer is a minimal HTTP/1.1 implementation
on ``asyncio.start_server`` -- request line, headers, ``Content-Length``
body, keep-alive -- because the repo's no-new-dependencies rule applies to
the service too.

API (all bodies JSON; see ``docs/SERVICE.md`` for the full reference):

=======  ==============================  ==========================================
method   path                            action
=======  ==============================  ==========================================
POST     ``/v1/schemas``                 register ``{tenant, name, sdl}``
GET      ``/v1/schemas/<tenant>``        list the tenant's schemas/versions
POST     ``/v1/validate``                ``{tenant, name, version?, mode?, graph,
                                         deadline?}`` -> validation report
POST     ``/v1/lint``                    ``{tenant, name, version?}`` -> findings
POST     ``/v1/sat``                     ``{tenant, name, version?}`` -> verdicts
GET      ``/v1/stats``                   metrics snapshot + service counters
GET      ``/v1/healthz``                 liveness probe
=======  ==============================  ==========================================

Status semantics (never wrong answers):

* **200** -- complete result;
* **202** -- *typed partial*: the per-request deadline tripped, the body is
  a report with ``complete: false`` and a structured ``interruption``;
* **400/404** -- typed input errors (``error.code`` carries the ``E_*``
  taxonomy code);
* **503** -- admission queue full (``E_OVERLOAD``): shed, not queued into
  a deadline miss.

:class:`ServiceThread` hosts a service on a background thread with its own
event loop -- the harness the lifecycle tests and ``bench_e17`` share.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Awaitable, Callable

from .. import obs
from ..errors import (
    GraphError,
    OverloadedError,
    ReproError,
    SchemaError,
    SDLSyntaxError,
    ServiceError,
)
from ..obs.export import attach_cache_stats, metrics_payload
from ..pg.io import records_from_dict
from ..validation.violations import ValidationReport, rules_for_mode
from .batching import BatchingValidator
from .registry import SchemaRecord, SchemaRegistry

__all__ = ["ServiceThread", "ValidationService", "report_payload"]

_MAX_BODY = 256 * 1024 * 1024  # typed refusal instead of OOM on absurd uploads


def report_payload(report: ValidationReport) -> dict[str, Any]:
    """The canonical JSON shape of a validation report.

    Deterministic by construction (the merge path canonically sorts
    violations), so serializing with ``sort_keys=True`` gives the
    byte-identical-responses guarantee the differential tests assert.
    """
    interruption: dict[str, Any] | None = None
    if report.interruption is not None:
        reason = report.interruption
        interruption = {
            "dimension": getattr(reason, "dimension", None),
            "limit": getattr(reason, "limit", None),
            "used": getattr(reason, "used", None),
            "site": getattr(reason, "site", None),
        }
    return {
        "mode": report.mode,
        "verdict": report.verdict,
        "complete": report.complete,
        "interruption": interruption,
        "rules_checked": list(report.rules_checked),
        "summary": report.summary(),
        "violations": [
            {
                "rule": violation.rule,
                "location": violation.location,
                "elements": [str(element) for element in violation.elements],
                "detail": violation.detail,
            }
            for violation in report.violations
        ],
    }


class _HttpError(Exception):
    """An error with a fixed HTTP status (routing/body problems)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _status_for(error: ReproError) -> int:
    """Map the typed error taxonomy onto HTTP statuses."""
    if isinstance(error, OverloadedError):
        return 503
    if isinstance(error, ServiceError):
        # registry lookups raise ServiceError for unknown coordinates
        return 404 if "unknown" in str(error) else 400
    if isinstance(error, (SchemaError, SDLSyntaxError, GraphError)):
        return 400
    return 400


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ValidationService:
    """The daemon: registry + batcher behind a JSON-over-HTTP front."""

    def __init__(
        self,
        registry_dir: str | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8351,
        max_queue: int = 256,
        max_batch: int = 32,
        jobs: int | None = None,
        deadline: float | None = None,
        perf_store: str = ".perf",
    ) -> None:
        self.host = host
        self.port = port
        self.perf_store = perf_store
        self.registry = SchemaRegistry(registry_dir)
        self.batcher = BatchingValidator(
            jobs=jobs,
            max_queue=max_queue,
            max_batch=max_batch,
            deadline=deadline,
        )
        self._server: asyncio.Server | None = None
        self.address: tuple[str, int] | None = None
        #: connection handlers, and the writers of those reading a request
        self._handlers: set[asyncio.Task[None]] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port).

        A bind failure (port in use, bad address) raises
        :class:`~repro.errors.ServiceError` -- the CLI renders it as
        ``error[E_SERVICE]`` and exits 2, per the uniform taxonomy.
        """
        self._ensure_metrics()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
        except OSError as error:
            self.batcher.close()
            raise ServiceError(
                f"cannot bind {self.host}:{self.port}: {error}"
            ) from error
        sockname = self._server.sockets[0].getsockname()
        self.address = (str(sockname[0]), int(sockname[1]))
        obs.count("service.started")
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() must run first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, answer the requests already
        read, close the connections still reading one (their reads end at
        EOF, not in a logged ``CancelledError``), drain in-flight batches."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            for writer in self._idle:
                writer.close()
            await self._server.wait_closed()
            self._server = None
        if self._handlers:
            await asyncio.wait(self._handlers)
        # the batcher drain blocks on worker threads; keep it off the loop
        await asyncio.get_running_loop().run_in_executor(None, self.batcher.close)

    def _ensure_metrics(self) -> None:
        """Make sure a metrics registry is installed for the daemon's
        lifetime (reusing whatever the CLI ``--metrics`` flag installed, so
        one registry feeds both the snapshot file and ``/v1/stats``)."""
        active = obs.active()
        if active is not None and active.registry is not None:
            return
        obs.install(
            active.tracer if active is not None else None, obs.MetricsRegistry()
        )

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            while not self._closing:
                self._idle.add(writer)
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, _ = request_line.decode("latin-1").split()
                except ValueError:
                    await self._respond(
                        writer,
                        400,
                        {"error": {"code": "E_SERVICE", "message": "malformed request line"}},
                    )
                    break
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0:
                    await self._respond(
                        writer,
                        400,
                        {"error": {"code": "E_SERVICE", "message": "malformed Content-Length"}},
                    )
                    break
                if length > _MAX_BODY:
                    await self._respond(
                        writer,
                        413,
                        {"error": {"code": "E_SERVICE", "message": "request body too large"}},
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                self._idle.discard(writer)
                if self._closing:
                    break  # stop() closed this connection while it was read
                status, payload = await self._dispatch(method, target, body)
                await self._respond(writer, status, payload)
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._handlers.discard(task)
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        path = target.partition("?")[0].rstrip("/")
        try:
            handler = self._route(method, path)
            return await handler(path, body)
        except _HttpError as error:
            return error.status, {
                "error": {"code": error.code, "message": str(error)}
            }
        except ReproError as error:
            return _status_for(error), {
                "error": {"code": error.code, "message": str(error)}
            }
        except Exception as error:  # noqa: BLE001 - fail closed, typed
            obs.count("service.internal_errors")
            return 500, {
                "error": {"code": "E_SERVICE", "message": f"internal error: {error}"}
            }

    def _route(
        self, method: str, path: str
    ) -> Callable[[str, bytes], Awaitable[tuple[int, dict[str, Any]]]]:
        if path == "/v1/healthz" and method == "GET":
            return self._handle_healthz
        if path == "/v1/stats" and method == "GET":
            return self._handle_stats
        if path == "/v1/schemas" and method == "POST":
            return self._handle_register
        if path.startswith("/v1/schemas/") and method == "GET":
            return self._handle_list
        if path == "/v1/validate" and method == "POST":
            return self._handle_validate
        if path == "/v1/lint" and method == "POST":
            return self._handle_lint
        if path == "/v1/sat" and method == "POST":
            return self._handle_sat
        if path.startswith("/v1/"):
            raise _HttpError(405, "E_SERVICE", f"{method} not supported for {path}")
        raise _HttpError(404, "E_SERVICE", f"no such endpoint: {path}")

    @staticmethod
    def _body_json(body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, "E_SERVICE", f"request body is not JSON: {error}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "E_SERVICE", "request body must be a JSON object")
        return payload

    @staticmethod
    def _field(payload: dict[str, Any], key: str) -> str:
        value = payload.get(key)
        if not isinstance(value, str) or not value:
            raise _HttpError(400, "E_SERVICE", f"missing or non-string field {key!r}")
        return value

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    async def _handle_healthz(
        self, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        return 200, {"status": "ok", "schemas": len(self.registry)}

    async def _handle_register(
        self, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        payload = self._body_json(body)
        tenant = self._field(payload, "tenant")
        name = self._field(payload, "name")
        sdl = self._field(payload, "sdl")
        loop = asyncio.get_running_loop()
        # parse + plan compile are CPU work: keep them off the event loop
        record = await loop.run_in_executor(
            None, self.registry.register, tenant, name, sdl
        )
        return 200, record.describe()

    async def _handle_list(
        self, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        tenant = path[len("/v1/schemas/") :]
        if "/" in tenant or not tenant:
            raise _HttpError(404, "E_SERVICE", f"no such endpoint: {path}")
        return 200, {"tenant": tenant, "schemas": self.registry.list(tenant)}

    def _record_for(self, payload: dict[str, Any]) -> SchemaRecord:
        tenant = self._field(payload, "tenant")
        name = self._field(payload, "name")
        version = payload.get("version")
        if version is not None and not isinstance(version, int):
            raise _HttpError(400, "E_SERVICE", "field 'version' must be an integer")
        return self.registry.get(tenant, name, version)

    async def _handle_validate(
        self, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        payload = self._body_json(body)
        record = self._record_for(payload)
        mode = payload.get("mode", "strong")
        if not isinstance(mode, str):
            raise _HttpError(400, "E_SERVICE", "field 'mode' must be a string")
        try:
            rules_for_mode(mode)
        except ValueError as error:
            raise _HttpError(400, "E_SERVICE", str(error))
        graph_doc = payload.get("graph")
        if not isinstance(graph_doc, dict):
            raise _HttpError(400, "E_SERVICE", "missing or non-object field 'graph'")
        deadline = payload.get("deadline")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise _HttpError(400, "E_SERVICE", "field 'deadline' must be a number")
        # one checked pass per element, straight into the records view the
        # batcher validates as one shard; malformed documents raise the
        # typed GraphError / GraphLoadError that map to HTTP 400
        graph = records_from_dict(graph_doc)
        future = self.batcher.submit(
            record,
            graph,
            mode=mode,
            deadline=float(deadline) if deadline is not None else None,
        )
        report = await asyncio.wrap_future(future)
        return (200 if report.complete else 202), report_payload(report)

    async def _handle_lint(
        self, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        from ..lint import lint_schema

        payload = self._body_json(body)
        record = self._record_for(payload)
        loop = asyncio.get_running_loop()
        findings = await loop.run_in_executor(None, lint_schema, record.schema)
        return 200, {
            "tenant": record.tenant,
            "name": record.name,
            "version": record.version,
            "findings": [finding.to_json() for finding in findings],
        }

    async def _handle_sat(
        self, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        from ..satisfiability import SatisfiabilityChecker

        payload = self._body_json(body)
        record = self._record_for(payload)
        loop = asyncio.get_running_loop()

        def check() -> dict[str, Any]:
            # the record's SatCache (its schema's own) keeps repeat sweeps
            # warm; no other record's schema shares it.  No jobs: open units
            # run inline in this thread, and the daemon never forks for sat
            checker = SatisfiabilityChecker(
                record.schema, cache=record.sat_cache
            )
            report = checker.check_schema(find_witnesses=False)
            result = report.to_json()
            assert isinstance(result, dict)
            return result

        report_json = await loop.run_in_executor(None, check)
        return 200, {
            "tenant": record.tenant,
            "name": record.name,
            "version": record.version,
            "report": report_json,
        }

    async def _handle_stats(
        self, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        active = obs.active()
        registry = (
            active.registry if active is not None and active.registry is not None
            else obs.MetricsRegistry()
        )
        for key, value in self.batcher.stats().items():
            registry.gauge(f"service.{key}", value)
        attach_cache_stats(registry)
        payload = metrics_payload(registry)
        payload["service"] = {
            "schemas": len(self.registry),
            "batching": self.batcher.stats(),
            "tenants": self.registry.tenant_stats(),
        }
        from ..perf import ProfileStore, perf_summary

        payload["perf"] = perf_summary(ProfileStore(self.perf_store))
        return 200, payload


class ServiceThread:
    """Host a :class:`ValidationService` on a background thread.

    The thread runs its own event loop; :meth:`start` blocks until the
    server is bound (``port=0`` picks an ephemeral port) and returns the
    address.  Used by the lifecycle tests, the CI service-smoke job and
    ``bench_e17`` -- everything that needs a live daemon in-process.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.service = ValidationService(**kwargs)
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="pgschema-serve", daemon=True
        )

    def start(self) -> tuple[str, int]:
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error
        assert self.service.address is not None
        return self.service.address

    def stop(self) -> None:
        """Graceful shutdown; joins the server thread."""
        if self._loop is not None and not self._stopped.is_set():
            self._loop.call_soon_threadsafe(self._stop_event_set)
        self._thread.join()

    def _stop_event_set(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.service.start()
        except BaseException as error:  # noqa: BLE001 - reported to start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            assert self._stop_event is not None
            await self._stop_event.wait()
        finally:
            await self.service.stop()
            self._stopped.set()
