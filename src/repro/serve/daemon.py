"""The HTTP/1.1 front end of ``repro serve`` (stdlib ``http.server``,
one thread per connection).

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
``Retry-After``), queue full / draining 503.  Every error, malformed
HTTP the stdlib parser refuses included, gets an
:class:`~repro.serve.protocol.ErrorInfo` JSON body and closes the
connection.

SIGTERM, SIGINT and ``POST /v1/shutdown`` start the same drain: the
listener keeps answering (new submissions get 503, job polls 200) until
in-flight and queued jobs finish; then it closes and the process exits 0.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..core.requests import RequestError, parse_request_json
from .protocol import ErrorInfo
from .scheduler import Scheduler, SchedulerError, UnknownJob

_MAX_BODY = 16 * 1024 * 1024


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _allow(method: str, path: str, want: str) -> None:
    if method != want:
        raise _HttpError(405, f"{path} takes {want}")


class Daemon:
    """One HTTP server bound to a :class:`Scheduler`, a distributed
    coordinator, or both (``repro sweep --workers`` runs a
    coordinator-only daemon; ``repro serve`` a scheduler-only one)."""

    def __init__(self, scheduler: Optional[Scheduler],
                 host: str = "127.0.0.1", port: int = 8642, *,
                 coordinator=None) -> None:
        self.scheduler = scheduler
        self.coordinator = coordinator
        self.host = host
        self.port = port          # 0 = ephemeral; real port set by bind()
        #: set by ``POST /v1/shutdown`` (and by ``serve_main``'s signals).
        self.shutdown_requested = threading.Event()
        self._server: Optional[_Server] = None
        self._serving = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Bind, start the scheduler, and serve on a background thread."""
        self.bind()
        self.serve()

    def bind(self) -> None:
        """Listen on the port; connections queue until :meth:`serve`.
        Starts no thread, so a caller may fork in between."""
        self._server = _Server((self.host, self.port), self)
        self.port = self._server.server_address[1]

    def serve(self) -> None:
        """Start the scheduler and answer on a background thread."""
        if self.scheduler is not None:
            self.scheduler.start()
        self._serving = True
        # The poll interval bounds how long close() waits for the loop.
        threading.Thread(target=self._server.serve_forever,
                         kwargs={"poll_interval": 0.01},
                         name="repro-serve-http", daemon=True).start()

    def close(self) -> None:
        """Stop serving (when serving) and release the port."""
        if self._server is not None:
            if self._serving:
                self._server.shutdown()  # waits for serve_forever to return
            self._server.server_close()
            self._server = None
            self._serving = False

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

    def _route(self, method: str, path: str, headers, body: bytes,
               peer: str) -> Tuple[int, object, Dict[str, str]]:
        if path in ("/v1/run", "/v1/suite", "/v1/sweep"):
            _allow(method, path, "POST")
            self._need_scheduler()
            return self._submit(path.rsplit("/", 1)[1], headers, body,
                                peer)
        if path.startswith("/v1/jobs/"):
            _allow(method, path, "GET")
            job_id = path[len("/v1/jobs/"):]
            try:
                job = self._need_scheduler().get(job_id)
            except UnknownJob as exc:
                raise _HttpError(404, str(exc)) from None
            return 200, job.status().to_payload(), {}
        if path == "/v1/jobs":
            _allow(method, path, "GET")
            return 200, {"jobs": [job.status().to_payload()
                                  for job in self._need_scheduler().jobs()]
                         }, {}
        if path == "/v1/metrics":
            _allow(method, path, "GET")
            return 200, self._need_scheduler().metrics().to_payload(), {}
        if path == "/v1/healthz":
            _allow(method, path, "GET")
            return 200, self._healthz(), {}
        if path.startswith("/v1/traces/"):
            return self._traces(method, path[len("/v1/traces/"):], body)
        if path.startswith("/v1/dist/"):
            return self._dist(method, path[len("/v1/dist/"):], body)
        if path == "/v1/shutdown":
            _allow(method, path, "POST")
            self.shutdown_requested.set()
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
            _allow(method, "/v1/dist/status", "GET")
            return 200, self.coordinator.status(), {}
        if action not in ("lease", "renew", "report"):
            raise _HttpError(404, f"no dist action {action!r}")
        _allow(method, f"/v1/dist/{action}", "POST")
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

    def _submit(self, expect_kind: str, headers, body: bytes, peer: str
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
        client = headers.get("x-repro-client", "") or peer
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


class _Handler(BaseHTTPRequestHandler):
    """One request: read the body, route it, write the reply."""

    protocol_version = "HTTP/1.1"

    def __getattr__(self, name: str):
        # Every method reaches the router, which answers 405 for a
        # method its route does not take.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def _dispatch(self) -> None:
        try:
            status, payload, extra = self.server.daemon._route(
                self.command, self.path, self.headers, self._read_body(),
                self.client_address[0])
        except _HttpError as exc:
            self.send_error(exc.status, str(exc), headers=exc.headers)
            return
        except Exception as exc:  # noqa: BLE001 - a bug answers 500
            traceback.print_exc()
            self.send_error(500, f"{type(exc).__name__}: {exc}")
            return
        self._reply(status, payload, extra)

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length", "0").strip()
        if not length.isdecimal():
            raise _HttpError(400, f"bad Content-Length {length!r}")
        if int(length) > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        body = self.rfile.read(int(length))
        if len(body) < int(length):
            raise _HttpError(400, "body shorter than its Content-Length")
        return body

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None,
                   headers: Optional[Dict[str, str]] = None) -> None:
        """Every error, the stdlib parser's included, as an ErrorInfo
        JSON body on a connection that is then closed."""
        self.close_connection = True
        message = message or explain or self.responses.get(code, ("",))[0]
        self._reply(code, ErrorInfo(status=code, message=message).to_payload(),
                    headers or {})

    def _reply(self, status: int, payload: object,
               headers: Dict[str, str]) -> None:
        binary = isinstance(payload, (bytes, bytearray))
        body = (bytes(payload) if binary
                else json.dumps(payload, sort_keys=True).encode())
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream"
                         if binary else "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # the daemon logs drain events, not requests


class _Server(ThreadingHTTPServer):
    def __init__(self, address: Tuple[str, int], daemon: Daemon) -> None:
        self.daemon = daemon
        super().__init__(address, _Handler)

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


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
    daemon = Daemon(scheduler, args.host, args.port)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: daemon.shutdown_requested.set())
    daemon.start()
    # Parsable by scripts scraping an ephemeral port; keep the format.
    print(f"repro-serve listening on {daemon.url}", flush=True)
    store = scheduler.store
    log(f"trace store: {store.directory}" if store is not None
        else "no trace store: run cells execute")
    daemon.shutdown_requested.wait()
    log("draining: rejecting new jobs, finishing accepted work")
    drained = scheduler.stop()   # the listener keeps answering meanwhile
    daemon.close()
    log("drained" if drained else "drain timed out")
    return 0 if drained else 1


__all__ = ["Daemon", "serve_main"]
