"""Blocking convenience client for a ``repro serve`` daemon.

Symmetric with the daemon: both ends frame HTTP/1.1 with
:mod:`repro.serve.wire` (a request leaves in one write, a reply is read
through the connection's one buffered reader), requests go out as
:meth:`to_json` of the shared request objects, and responses come back
through :func:`repro.serve.protocol.parse_response`, so a schema change
breaks loudly on both ends at the same version gate.  A reply that
breaks the framing (cut short, no ``Content-Length``) raises
:class:`ConnectionError`.

Each calling thread keeps one HTTP/1.1 connection to the daemon and
reuses it until a reply carries ``Connection: close`` (every error
reply does), the idle socket reads EOF (the daemon closed it), or a call
fails; a failed call drops the connection and raises, and the next call
opens a new one.  A connection made before a ``fork`` is never used by
the child.  :meth:`DaemonClient.close` ends the calling thread's.
:meth:`DaemonClient.wait` long-polls, so it learns that a job finished
when the daemon does, in one request.

A 429 (rate-limited) reply is retried with bounded exponential backoff:
the daemon's ``Retry-After`` hint is the floor, ``backoff * 2**attempt``
(capped) the curve, plus a little jitter so a herd of workers doesn't
re-synchronize.  ``max_retries=0`` restores raise-on-429.

    from repro.core import Session
    from repro.serve import DaemonClient

    client = DaemonClient("127.0.0.1", 8642)
    job = client.submit(Session().build_run_request("bitonic", "gcn3"))
    status = client.wait(job.job_id)
    print(status.result["total"]["cycles"])
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import socket
import threading
import time
from typing import Callable, Dict, Optional, Tuple, Union

from ..common.errors import ReproError
from ..core.requests import AnyRequest
from . import wire
from .protocol import ErrorInfo, JobStatus, MetricsSnapshot, parse_response


class DaemonError(ReproError):
    """A non-2xx daemon reply (carries the HTTP status and, when the
    daemon sent one, the parsed :class:`ErrorInfo`)."""

    def __init__(self, status: int, message: str,
                 info: Optional[ErrorInfo] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.info = info
        self.retry_after = retry_after


class DaemonClient:
    """One daemon endpoint, over one connection per calling thread (see
    the module doc), so any number of threads may share a client.

    :param max_retries: how many times a 429 is retried before the
        :class:`DaemonError` propagates (0 = never retry).
    :param backoff: base of the exponential backoff curve, seconds.
    :param sleep: injectable sleeper (tests pass a recorder).
    """

    #: backoff delays never exceed this many seconds per attempt.
    BACKOFF_CAP = 5.0

    def __init__(self, host: str = "127.0.0.1", port: int = 8642, *,
                 client_id: str = "", timeout: float = 60.0,
                 max_retries: int = 3, backoff: float = 0.25,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._sleep = sleep
        self._jitter = random.Random()
        self._local = threading.local()

    def close(self) -> None:
        """End the calling thread's connection; a later call opens a new
        one."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    def _connection(self) -> "_Connection":
        """The calling thread's connection, made anew when there is none,
        when it was made in another process (before a fork: the child
        closes only its copy of the socket), or when its idle socket is
        readable — the daemon closed it, or sent bytes nobody asked for."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and (self._local.pid != os.getpid()
                                 or _readable(conn.sock)):
            self.close()
            conn = None
        if conn is None:
            conn = _Connection(self.host, self.port, self.timeout)
            self._local.conn, self._local.pid = conn, os.getpid()
        return conn

    # -- HTTP ------------------------------------------------------------------

    def _call(self, method: str, path: str,
              body: Optional[Union[str, bytes]] = None,
              headers: Optional[Dict[str, str]] = None, *,
              raw: bool = False):
        """One request with bounded-backoff retry on 429."""
        attempt = 0
        while True:
            try:
                return self._call_once(method, path, body, headers, raw=raw)
            except DaemonError as exc:
                if exc.status != 429 or attempt >= self.max_retries:
                    raise
                delay = min(self.BACKOFF_CAP,
                            max(exc.retry_after or 0.0,
                                self.backoff * (2 ** attempt)))
                delay += self._jitter.uniform(0.0, self.backoff / 2)
                self._sleep(delay)
                attempt += 1

    def _call_once(self, method: str, path: str,
                   body: Optional[Union[str, bytes]] = None,
                   headers: Optional[Dict[str, str]] = None, *,
                   raw: bool = False):
        body = body.encode() if isinstance(body, str) else body or b""
        fields = {"Host": f"{self.host}:{self.port}",
                  "Content-Type": "application/json"}
        if body or method != "GET":
            fields["Content-Length"] = str(len(body))
        if self.client_id:
            fields["X-Repro-Client"] = self.client_id
        fields.update(headers or {})
        request = wire.frame(f"{method} {path} HTTP/1.1", fields, body)
        conn = self._connection()
        try:
            status, reply, data = conn.exchange(request)
        except BaseException:
            # The exchange may have stopped anywhere in the request or
            # the reply: the connection is in no state to reuse.
            self.close()
            raise
        if "close" in reply.get("connection", "").lower():
            self.close()           # every error reply carries it
        if status >= 400:
            try:
                payload = json.loads(data) if data else {}
            except ValueError:
                payload = {}
            info = None
            if isinstance(payload, dict) and payload.get("kind") == "error":
                info = ErrorInfo.from_payload(payload)
            retry_after = reply.get("retry-after")
            raise DaemonError(
                status,
                info.message if info else data.decode(errors="replace"),
                info=info,
                retry_after=(float(retry_after)
                             if retry_after is not None else None))
        if raw:
            return data
        try:
            payload = json.loads(data) if data else {}
        except ValueError:
            payload = {}
        if not isinstance(payload, dict):
            raise DaemonError(status, "non-object response")
        return payload

    # -- API -------------------------------------------------------------------

    def submit(self, request: AnyRequest, *,
               priority: int = 0) -> JobStatus:
        """POST one request object; returns the accepted job's status."""
        headers = {}
        if priority:
            headers["X-Repro-Priority"] = str(priority)
        payload = self._call("POST", f"/v1/{request.kind}",
                             body=request.to_json(), headers=headers)
        return JobStatus.from_payload(payload)

    def job(self, job_id: str) -> JobStatus:
        return JobStatus.from_payload(self._call("GET", f"/v1/jobs/{job_id}"))

    def jobs(self) -> list:
        payload = self._call("GET", "/v1/jobs")
        return [JobStatus.from_payload(entry)
                for entry in payload.get("jobs", ())]

    def wait(self, job_id: str, timeout: float = 300.0) -> JobStatus:
        """The job's status once it reaches a terminal state: long polls
        (``GET /v1/jobs/<id>?wait=<s>``, each held by the daemon until
        the job finishes, for at most half the socket timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            hold = (min(remaining, self.timeout / 2) if self.timeout
                    else remaining)
            status = JobStatus.from_payload(self._call(
                "GET", f"/v1/jobs/{job_id}?wait={hold:.3f}"))
            if status.finished:
                return status
            if time.monotonic() >= deadline:
                raise DaemonError(408, f"job {job_id} still {status.state} "
                                       f"after {timeout:g}s")

    def metrics(self) -> MetricsSnapshot:
        response = parse_response(self._call("GET", "/v1/metrics"))
        assert isinstance(response, MetricsSnapshot)
        return response

    def healthz(self) -> Dict[str, object]:
        """Liveness probe; raises :class:`DaemonError` when unhealthy."""
        return self._call("GET", "/v1/healthz")

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit (same path as SIGTERM)."""
        self._call("POST", "/v1/shutdown")

    # -- trace-blob sync -------------------------------------------------------

    def get_trace(self, fingerprint: str) -> Optional[bytes]:
        """Fetch one functional trace blob (None when the daemon has no
        trace for that fingerprint)."""
        try:
            return self._call("GET", f"/v1/traces/{fingerprint}", raw=True)
        except DaemonError as exc:
            if exc.status == 404:
                return None
            raise

    def put_trace(self, fingerprint: str, blob: bytes) -> bool:
        """Upload one trace blob; False when the daemon refused it
        (corrupt blob) or has no store."""
        payload = self._call(
            "PUT", f"/v1/traces/{fingerprint}", body=blob,
            headers={"Content-Type": "application/octet-stream"})
        return bool(payload.get("stored"))


_STATUS_LINE = re.compile(r"HTTP/1\.[01] (\d{3})( |$)")


class _Connection:
    """One socket to the daemon and the one buffered reader over it."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def exchange(self, request: bytes) -> Tuple[int, Dict[str, str], bytes]:
        """Send one framed request; the reply's status, headers and body.
        A reply that breaks the framing raises :class:`ConnectionError`."""
        self.sock.sendall(request)
        try:
            start, headers = wire.read_head(self.rfile) or ("", {})
            status = _STATUS_LINE.match(start)
            if status is None or "content-length" not in headers:
                raise ConnectionError(f"no reply head with a Content-Length "
                                      f"(start line {start[:80]!r})")
            body = wire.read_body(self.rfile, wire.content_length(headers))
        except wire.WireError as exc:
            raise ConnectionError(f"malformed reply: {exc}") from None
        return int(status.group(1)), headers, body

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _readable(sock) -> bool:
    """Whether an idle socket has something to read (EOF included)."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


__all__ = ["DaemonClient", "DaemonError"]
