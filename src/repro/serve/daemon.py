"""The HTTP/1.1 front end of ``repro serve`` (stdlib asyncio only).

Routes (all payloads are versioned ``repro-api/1`` envelopes)::

    POST /v1/run      submit a RunRequest        -> 202 JobStatus
    POST /v1/suite    submit a SuiteRequest      -> 202 JobStatus
    POST /v1/sweep    submit a SweepRequest      -> 202 JobStatus
    GET  /v1/jobs/<id>  poll one job             -> 200 JobStatus
    GET  /v1/jobs       list all jobs            -> 200 {jobs: [...]}
    GET  /v1/metrics    scheduler counters       -> 200 MetricsSnapshot
    GET  /v1/healthz    liveness probe           -> 200 {ok: true, ...}
    POST /v1/shutdown   graceful drain + exit    -> 202 {draining: true}
    GET  /v1/traces/<fp>  fetch a trace blob     -> 200 octet-stream
    PUT  /v1/traces/<fp>  store a trace blob     -> 200 {stored: bool}

When the daemon fronts a distributed-sweep coordinator
(:class:`repro.dist.Coordinator`) instead of — or alongside — a
scheduler, four more routes serve the pull-based worker protocol::

    POST /v1/dist/lease   {worker_id}                 -> 200 LeaseGrant
    POST /v1/dist/renew   {worker_id, lease_id}       -> 200 {ok, ttl, stolen}
    POST /v1/dist/report  {worker_id, lease_id, cell, run} -> 200 {accepted,..}
    GET  /v1/dist/status  coordinator progress        -> 200 {...}

Submission metadata that is *not* part of the request schema travels in
headers: ``X-Repro-Priority`` (int, higher runs first) and
``X-Repro-Client`` (rate-limit bucket key; defaults to the peer
address).  Failures map onto statuses through the scheduler exception
types: malformed payload 400, unknown job 404, rate limit 429 (with
``Retry-After``), queue full / draining 503.

SIGTERM and SIGINT trigger the same graceful drain as
``POST /v1/shutdown``: in-flight and already-queued jobs finish, new
submissions get 503, then the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Dict, Optional, Tuple

from ..core.requests import RequestError, parse_request_json
from .protocol import ErrorInfo
from .scheduler import Scheduler, SchedulerError, UnknownJob

_MAX_BODY = 16 * 1024 * 1024
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class Daemon:
    """One asyncio server bound to a :class:`Scheduler`, a distributed
    coordinator, or both (``repro sweep --workers`` runs a
    coordinator-only daemon; ``repro serve`` a scheduler-only one)."""

    def __init__(self, scheduler: Optional[Scheduler],
                 host: str = "127.0.0.1", port: int = 8642, *,
                 coordinator=None) -> None:
        self.scheduler = scheduler
        self.coordinator = coordinator
        self.host = host
        self.port = port          # 0 = ephemeral; real port set by start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.scheduler is not None:
            self.scheduler.start()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not request_line or not request_line.strip():
                    break
                try:
                    method, path, headers, body = await self._read_request(
                        reader, request_line)
                except _HttpError as exc:
                    await self._respond_error(writer, exc)
                    break
                keep_alive = (headers.get("connection", "").lower()
                              != "close")
                try:
                    status, payload, extra = self._route(
                        method, path, headers, body, writer)
                except _HttpError as exc:
                    await self._respond_error(writer, exc)
                    if exc.status in (400, 413):
                        break
                    continue
                await self._respond(writer, status, payload, extra,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            request_line: bytes
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                raise _HttpError(400, "truncated headers")
            line = line.strip()
            if not line:
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _need_scheduler(self) -> Scheduler:
        if self.scheduler is None:
            raise _HttpError(
                503, "this daemon fronts a sweep coordinator, not a "
                     "job scheduler")
        return self.scheduler

    def _trace_store(self):
        store = None
        if self.scheduler is not None:
            store = self.scheduler.store
        elif self.coordinator is not None:
            store = self.coordinator.store
        if store is None:
            raise _HttpError(503, "no trace store on this daemon")
        return store

    def _route(self, method: str, path: str, headers: Dict[str, str],
               body: bytes, writer: asyncio.StreamWriter
               ) -> Tuple[int, object, Dict[str, str]]:
        if path in ("/v1/run", "/v1/suite", "/v1/sweep"):
            if method != "POST":
                raise _HttpError(405, f"{path} takes POST")
            self._need_scheduler()
            return self._submit(path.rsplit("/", 1)[1], headers, body,
                                writer)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise _HttpError(405, f"{path} takes GET")
            job_id = path[len("/v1/jobs/"):]
            try:
                job = self._need_scheduler().get(job_id)
            except UnknownJob as exc:
                raise _HttpError(404, str(exc)) from None
            return 200, job.status().to_payload(), {}
        if path == "/v1/jobs":
            if method != "GET":
                raise _HttpError(405, f"{path} takes GET")
            return 200, {"jobs": [job.status().to_payload()
                                  for job in self._need_scheduler().jobs()]
                         }, {}
        if path == "/v1/metrics":
            if method != "GET":
                raise _HttpError(405, f"{path} takes GET")
            return 200, self._need_scheduler().metrics().to_payload(), {}
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, f"{path} takes GET")
            return 200, self._healthz(), {}
        if path.startswith("/v1/traces/"):
            return self._traces(method, path[len("/v1/traces/"):], body)
        if path.startswith("/v1/dist/"):
            return self._dist(method, path[len("/v1/dist/"):], body)
        if path == "/v1/shutdown":
            if method != "POST":
                raise _HttpError(405, f"{path} takes POST")
            self.request_shutdown()
            return 202, {"draining": True}, {}
        raise _HttpError(404, f"no route {method} {path}")

    def _healthz(self) -> Dict[str, object]:
        role = []
        draining = False
        if self.scheduler is not None:
            role.append("scheduler")
            draining = self.scheduler.draining
        if self.coordinator is not None:
            role.append("coordinator")
        return {"ok": True, "draining": draining,
                "role": "+".join(role) or "idle"}

    # -- trace-blob sync (workers warm their stores over HTTP) -----------------

    def _traces(self, method: str, fingerprint: str, body: bytes
                ) -> Tuple[int, object, Dict[str, str]]:
        if not fingerprint or "/" in fingerprint:
            raise _HttpError(400, "bad trace fingerprint")
        store = self._trace_store()
        if method == "GET":
            blob = store.read_blob(fingerprint)
            if blob is None:
                raise _HttpError(404, f"no trace {fingerprint}")
            return 200, blob, {}
        if method == "PUT":
            # write_blob parses before writing, so a corrupt transfer is
            # refused instead of poisoning the store.
            return 200, {"stored": store.write_blob(fingerprint, body)}, {}
        raise _HttpError(405, "/v1/traces/<fp> takes GET or PUT")

    # -- distributed-sweep worker protocol -------------------------------------

    def _dist(self, method: str, action: str, body: bytes
              ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        if self.coordinator is None:
            raise _HttpError(404, "this daemon is not a sweep coordinator")
        if action == "status":
            if method != "GET":
                raise _HttpError(405, "/v1/dist/status takes GET")
            return 200, self.coordinator.status(), {}
        if action not in ("lease", "renew", "report"):
            raise _HttpError(404, f"no dist action {action!r}")
        if method != "POST":
            raise _HttpError(405, f"/v1/dist/{action} takes POST")
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            raise _HttpError(400, "body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        worker_id = str(payload.get("worker_id", "")) or "anonymous"
        try:
            if action == "lease":
                return 200, self.coordinator.lease(worker_id).to_payload(), {}
            lease_id = str(payload.get("lease_id", ""))
            if action == "renew":
                return 200, self.coordinator.renew(worker_id, lease_id), {}
            cell = payload.get("cell")
            run = payload.get("run")
            if not isinstance(cell, str) or not isinstance(run, dict):
                raise _HttpError(
                    400, "report needs 'cell' (string) and 'run' (object)")
            return 200, self.coordinator.report(worker_id, lease_id,
                                                cell, run), {}
        except _HttpError:
            raise
        except Exception as exc:  # noqa: BLE001 - protocol errors -> 400
            raise _HttpError(400, f"{type(exc).__name__}: {exc}") from None

    def _submit(self, expect_kind: str, headers: Dict[str, str],
                body: bytes, writer: asyncio.StreamWriter
                ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        try:
            request = parse_request_json(body, expect_kind=expect_kind)
        except RequestError as exc:
            raise _HttpError(400, str(exc)) from None
        priority = 0
        if "x-repro-priority" in headers:
            try:
                priority = int(headers["x-repro-priority"])
            except ValueError:
                raise _HttpError(400, "X-Repro-Priority must be an integer"
                                 ) from None
        client = headers.get("x-repro-client", "")
        if not client:
            peer = writer.get_extra_info("peername")
            client = peer[0] if peer else "unknown"
        try:
            job = self.scheduler.submit(request, client=client,
                                        priority=priority)
        except SchedulerError as exc:
            extra = {}
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                extra["Retry-After"] = f"{max(retry_after, 0.001):.3f}"
            raise _HttpError(exc.status, str(exc), extra) from None
        return 202, job.status().to_payload(), {}

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: object,
                       extra: Optional[Dict[str, str]] = None, *,
                       keep_alive: bool = True) -> None:
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            content_type = "application/octet-stream"
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        reason = _REASONS.get(status, "")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _respond_error(self, writer: asyncio.StreamWriter,
                             exc: _HttpError) -> None:
        await self._respond(
            writer, exc.status,
            ErrorInfo(status=exc.status, message=str(exc)).to_payload(),
            exc.headers, keep_alive=False)


async def _serve(scheduler: Scheduler, host: str, port: int,
                 log) -> int:
    daemon = Daemon(scheduler, host, port)
    await daemon.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, daemon.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    # Parsable by scripts scraping an ephemeral port; keep the format.
    print(f"repro-serve listening on http://{host}:{daemon.port}",
          flush=True)
    store = scheduler.store
    log(f"trace store: {store.directory}" if store is not None
        else "no trace store: run cells execute")
    await daemon.wait_shutdown()
    log("draining: rejecting new jobs, finishing accepted work")
    await daemon.close()
    drained = await asyncio.get_running_loop().run_in_executor(
        None, scheduler.stop)
    log("drained" if drained else "drain timed out")
    return 0 if drained else 1


def serve_main(args) -> int:
    """Entry point of ``repro serve`` (takes the parsed CLI namespace)."""
    log = ((lambda message: None) if args.quiet
           else (lambda message: print(message, file=sys.stderr)))
    scheduler = Scheduler(
        trace_dir=args.trace_dir,
        cache_dir=args.cache_dir,
        job_timeout=args.job_timeout,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        max_queue=args.max_queue,
        log=log,
    )
    try:
        return asyncio.run(_serve(scheduler, args.host, args.port, log))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        scheduler.stop()
        return 0


__all__ = ["Daemon", "serve_main"]
