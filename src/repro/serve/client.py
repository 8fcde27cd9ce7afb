"""Blocking convenience client for a ``repro serve`` daemon.

Pure ``http.client`` — no new dependencies — and symmetric with the
daemon: requests go out as :meth:`to_json` of the shared request
objects, responses come back through
:func:`repro.serve.protocol.parse_response`, so a schema change breaks
loudly on both ends at the same version gate.

Each calling thread keeps one HTTP/1.1 connection to the daemon and
reuses it until a reply carries ``Connection: close`` (every error
reply does), the idle socket reads EOF (the daemon closed it), or a call
fails; a failed call drops the connection and raises, and the next call
opens a new one.  A connection made before a ``fork`` is never used by
the child.  :meth:`DaemonClient.close` ends the calling thread's.

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

import http.client
import json
import os
import random
import select
import threading
import time
from typing import Callable, Dict, Optional, Union

from ..common.errors import ReproError
from ..core.requests import AnyRequest
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

    def _connection(self) -> http.client.HTTPConnection:
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
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
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
        conn = self._connection()
        try:
            all_headers = {"Content-Type": "application/json"}
            if self.client_id:
                all_headers["X-Repro-Client"] = self.client_id
            all_headers.update(headers or {})
            conn.request(method, path, body=body, headers=all_headers)
            response = conn.getresponse()
            data = response.read()
            if response.status >= 400:
                try:
                    payload = json.loads(data) if data else {}
                except ValueError:
                    payload = {}
                info = None
                if isinstance(payload, dict) and payload.get("kind") == "error":
                    info = ErrorInfo.from_payload(payload)
                retry_after = response.headers.get("Retry-After")
                raise DaemonError(
                    response.status,
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
                raise DaemonError(response.status, "non-object response")
            return payload
        except BaseException:
            # An error reply has closed the socket already (it carries
            # ``Connection: close``); anything else may have left it
            # mid-exchange.
            self.close()
            raise

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

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05) -> JobStatus:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status.finished:
                return status
            if time.monotonic() >= deadline:
                raise DaemonError(408, f"job {job_id} still {status.state} "
                                       f"after {timeout:g}s")
            time.sleep(poll)

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


def _readable(sock) -> bool:
    """Whether an idle socket has something to read (EOF included)."""
    if sock is None:       # closed after a ``Connection: close`` reply
        return False
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


__all__ = ["DaemonClient", "DaemonError"]
