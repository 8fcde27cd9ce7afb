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

A distributed sweep uses a daemon as a worker through ``/v1/run``
(:class:`repro.dist.DaemonBackend`); its coordinator never listens on a
port.  ``/v1/traces`` moves a trace between the daemon's store and the
coordinator's: the backend pushes the coordinator's trace before a
cell, at most once per fingerprint, and pulls the daemon's after a
capture.

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
from ..obs.host import span
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
    """One HTTP server bound to a :class:`Scheduler`."""

    def __init__(self, scheduler: Scheduler,
                 host: str = "127.0.0.1", port: int = 8642) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port          # 0 = ephemeral; real port set by start()
        #: set by ``POST /v1/shutdown`` (and by ``serve_main``'s signals).
        self.shutdown_requested = threading.Event()
        self._server: Optional[_Server] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Bind, start the scheduler, and serve on a background thread."""
        self._server = _Server((self.host, self.port), self)
        self.port = self._server.server_address[1]
        self.scheduler.start()
        # The poll interval bounds how long close() waits for the loop.
        threading.Thread(target=self._server.serve_forever,
                         kwargs={"poll_interval": 0.01},
                         name="repro-serve-http", daemon=True).start()

    def close(self) -> None:
        """Stop serving and release the port."""
        if self._server is not None:
            self._server.shutdown()  # waits for serve_forever to return
            self._server.server_close()
            self._server = None

    def _route(self, method: str, path: str, headers, body: bytes,
               peer: str) -> Tuple[int, object, Dict[str, str]]:
        if path in ("/v1/run", "/v1/suite", "/v1/sweep"):
            _allow(method, path, "POST")
            return self._submit(path.rsplit("/", 1)[1], headers, body,
                                peer)
        if path.startswith("/v1/jobs/"):
            _allow(method, path, "GET")
            job_id = path[len("/v1/jobs/"):]
            try:
                job = self.scheduler.get(job_id)
            except UnknownJob as exc:
                raise _HttpError(404, str(exc)) from None
            return 200, job.status().to_payload(), {}
        if path == "/v1/jobs":
            _allow(method, path, "GET")
            return 200, {"jobs": [job.status().to_payload()
                                  for job in self.scheduler.jobs()]
                         }, {}
        if path == "/v1/metrics":
            _allow(method, path, "GET")
            return 200, self.scheduler.metrics().to_payload(), {}
        if path == "/v1/healthz":
            _allow(method, path, "GET")
            return 200, {"ok": True, "draining": self.scheduler.draining,
                         "role": "scheduler"}, {}
        if path.startswith("/v1/traces/"):
            return self._traces(method, path[len("/v1/traces/"):], body)
        if path == "/v1/shutdown":
            _allow(method, path, "POST")   # _dispatch sets the event
            return 202, {"draining": True}, {}
        raise _HttpError(404, f"no route {method} {path}")

    # -- trace-blob sync (for a dist sweep's daemon-backed worker) ---------

    def _traces(self, method: str, fingerprint: str, body: bytes
                ) -> Tuple[int, object, Dict[str, str]]:
        if not fingerprint or "/" in fingerprint:
            raise _HttpError(400, "bad trace fingerprint")
        store = self.scheduler.store
        if store is None:
            raise _HttpError(503, "no trace store on this daemon")
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
        with span("http.request", method=self.command,
                  path=self.path) as attrs:
            try:
                status, payload, extra = self.server.daemon._route(
                    self.command, self.path, self.headers, self._read_body(),
                    self.client_address[0])
            except _HttpError as exc:
                attrs["status"] = exc.status
                self.send_error(exc.status, str(exc), headers=exc.headers)
                return
            except Exception as exc:  # noqa: BLE001 - a bug answers 500
                attrs["status"] = 500
                traceback.print_exc()
                self.send_error(500, f"{type(exc).__name__}: {exc}")
                return
            attrs["status"] = status
            self._reply(status, payload, extra)
            if self.path == "/v1/shutdown":
                # After the reply: the drain may end the process.
                self.server.daemon.shutdown_requested.set()

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
    # Any thread may take SIGTERM (one in fork or pthread_create does, if
    # it comes meanwhile), but only this one runs the Python handler, and
    # only between bytecodes: a wait without a timeout would miss it.
    while not daemon.shutdown_requested.wait(0.1):
        pass
    log("draining: rejecting new jobs, finishing accepted work")
    drained = scheduler.stop()   # the listener keeps answering meanwhile
    daemon.close()
    log("drained" if drained else "drain timed out")
    return 0 if drained else 1


__all__ = ["Daemon", "serve_main"]
