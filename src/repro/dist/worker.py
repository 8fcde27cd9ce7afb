"""Pull-based sweep workers.

A worker is a loop around three verbs against a coordinator — lease,
report, renew — with the actual simulation delegated to a *backend*:

* :class:`EmbeddedBackend` runs cells in this process through
  :func:`~repro.harness.parallel.run_cell` — the call the serve
  scheduler makes for a run cell — against one resident trace store, so
  a worker a :class:`~repro.dist.DistSweep` forks (or runs inline) gets
  the daemon's store sharing and job timeout (a forked child per cell)
  without a daemon's queue.
* :class:`DaemonBackend` forwards each cell to a ``repro serve`` daemon
  through :class:`~repro.serve.DaemonClient` (``/v1/run`` and
  ``/v1/traces``) — an already-warm daemon becomes a sweep worker
  without restarting anything.  The serve layer is imported only when
  such a worker is built.

The transport is whatever answers ``lease``/``renew``/``report``/
``get_trace``/``put_trace``: :class:`PipeTransport` sends pickled frames
over the socketpair of a worker :class:`~repro.dist.DistSweep` forks,
and a :class:`~repro.dist.Coordinator` in the same process is its own
transport (the inline and daemon-backed workers, the unit tests).
:func:`build_worker` builds every worker.

Trace sync: a granted shard names its functional trace fingerprint.
When the coordinator already holds that trace
(``grant.trace_available``) the worker pulls the blob into its backend
before simulating, so every cell replays; after the shard, a freshly
captured trace is pushed back so re-leases and thieves replay instead
of recapturing.  A local worker (forked by, or running inside, the
coordinator's process) pushes nothing back: its store is the
coordinator's own directory.
"""

from __future__ import annotations

import threading
import time
from functools import partialmethod
from typing import Callable, Dict, Optional, Set
from urllib.parse import urlsplit

from ..common.errors import ReproError
from ..core.requests import LeaseGrant, RunRequest
from ..harness.cache import resolve_trace_store
from ..harness.parallel import (Job, _failed_run, recv_frame, run_cell,
                                send_frame)

#: transient transport failures tolerated back to back before a worker
#: abandons its shard (the lease then expires and the work requeues).
TRANSPORT_RETRIES = 3


def _parse_url(url: str):
    """(host, port) from 'http://host:port', 'host:port', or 'host'."""
    if "//" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    if not parts.hostname:
        raise ReproError(f"bad daemon URL {url!r}")
    return parts.hostname, parts.port or 8642


# -- transport ----------------------------------------------------------------


class PipeTransport:
    """The coordinator of the parent process over this end of a
    socketpair: ``(verb, args)`` out, ``(ok, value)`` back, one pair at a
    time (the renew thread shares the pipe).  A coordinator error comes
    back as a :class:`ReproError`, as it does from an in-process
    coordinator; EOF, a truncated frame or a timeout closes the pipe, and
    every later call raises OSError."""

    def __init__(self, sock, timeout: float = 60.0) -> None:
        sock.settimeout(timeout)
        self.sock = sock
        self._lock = threading.Lock()

    def _call(self, verb: str, *args):
        with self._lock:
            try:
                send_frame(self.sock, (verb, args))
                ok, value = recv_frame(self.sock)
            except OSError:
                self.sock.close()
                raise
        if not ok:
            raise ReproError(value)
        return value

    lease = partialmethod(_call, "lease")
    renew = partialmethod(_call, "renew")
    report = partialmethod(_call, "report")
    get_trace = partialmethod(_call, "get_trace")
    put_trace = partialmethod(_call, "put_trace")


# -- backends ------------------------------------------------------------------


class EmbeddedBackend:
    """Cells execute in this process, one at a time (each in a forked
    child under a job timeout), against one resident trace store (shared
    hit/miss counters, parsed-trace memo)."""

    def __init__(self, *, trace_dir: Optional[str] = None,
                 job_timeout: Optional[float] = None) -> None:
        self.job_timeout = job_timeout
        self.store = resolve_trace_store(trace_dir)

    def run(self, request: RunRequest) -> Dict[str, object]:
        return run_cell(request, trace_store=self.store,
                        timeout=self.job_timeout).to_payload()

    def has_blob(self, fingerprint: str) -> bool:
        return self.store is not None and self.store.has(fingerprint)

    def get_blob(self, fingerprint: str) -> Optional[bytes]:
        return (self.store.read_blob(fingerprint)
                if self.store is not None else None)

    def put_blob(self, fingerprint: str, blob: bytes) -> bool:
        return (self.store.write_blob(fingerprint, blob)
                if self.store is not None else False)


class DaemonBackend:
    """Cells execute on a ``repro serve`` daemon; the daemon's own trace
    store is the backend store, synced over ``/v1/traces``.  A daemon's
    refusal (a :class:`~repro.serve.DaemonError`) of a blob transfer
    reads as "no blob"."""

    def __init__(self, client: "DaemonClient", *,
                 wait_timeout: float = 600.0) -> None:
        self.client = client
        self.wait_timeout = wait_timeout

    def run(self, request: RunRequest) -> Dict[str, object]:
        job = self.client.submit(request)
        status = self.client.wait(job.job_id, timeout=self.wait_timeout)
        if status.result is not None:
            return status.result
        return _failed_run(Job(request=request),
                           status.error or "daemon produced no result",
                           status.wall_seconds or 0.0).to_payload()

    def has_blob(self, fingerprint: str) -> bool:
        return self.get_blob(fingerprint) is not None

    def get_blob(self, fingerprint: str) -> Optional[bytes]:
        try:
            return self.client.get_trace(fingerprint)
        except ReproError:
            return None

    def put_blob(self, fingerprint: str, blob: bytes) -> bool:
        try:
            return self.client.put_trace(fingerprint, blob)
        except ReproError:
            return False


# -- the worker loop -----------------------------------------------------------


class Worker:
    """Lease shards, simulate their cells, stream results back, renew.

    One background thread per held lease renews at ttl/3 and learns
    which cells were stolen; everything else is synchronous.  The worker
    never retries a failed *cell* (failure isolation is per point, the
    coordinator journals the failed run) but does retry a failed
    *transport call*, and abandons the shard when the coordinator stays
    unreachable — the lease expires and the work requeues elsewhere.
    """

    def __init__(self, worker_id: str, transport, backend, *,
                 poll: float = 0.5,
                 log: Optional[Callable[[str], None]] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.worker_id = worker_id
        self.transport = transport
        self.backend = backend
        self.poll = poll
        self.cells_done = 0
        self.shards_done = 0
        #: a local worker's view of the coordinator's cells (wire key ->
        #: job), shared by fork or by running in its process: it runs each
        #: cell's own request, and its store is the coordinator's, so it
        #: pushes no trace back.  None: rebuild each request from the shard.
        self.cells: Optional[Dict[str, Job]] = None
        self._log = log or (lambda message: None)
        self._sleep = sleep

    def _rpc(self, fn, *args):
        """A transport call with bounded retry; None when the
        coordinator stays unreachable."""
        for attempt in range(TRANSPORT_RETRIES):
            try:
                return fn(*args)
            except (ReproError, OSError) as exc:
                self._log(f"{self.worker_id}: transport error "
                          f"({attempt + 1}/{TRANSPORT_RETRIES}): {exc}")
            self._sleep(0.2 * (attempt + 1))
        return None

    def run(self) -> int:
        """Work until the coordinator says done; returns cells run."""
        while True:
            grant = self._rpc(self.transport.lease, self.worker_id)
            if grant is None:
                self._log(f"{self.worker_id}: coordinator unreachable; "
                          f"exiting")
                return self.cells_done
            if grant.state == "done":
                self._log(f"{self.worker_id}: sweep done "
                          f"({self.cells_done} cell(s), "
                          f"{self.shards_done} shard(s))")
                return self.cells_done
            if grant.state == "wait":
                self._sleep(grant.retry_after or self.poll)
                continue
            self._run_shard(grant)

    def _run_shard(self, grant: LeaseGrant) -> None:
        shard = grant.shard
        assert shard is not None
        lost = threading.Event()
        stop = threading.Event()
        stolen: Set[str] = set()
        renewer = threading.Thread(
            target=self._renew_loop,
            args=(grant, lost, stop, stolen),
            name=f"renew-{grant.lease_id}", daemon=True)
        renewer.start()
        had_trace = self._sync_in(grant)
        completed = 0
        try:
            for cell in shard.cells:
                if lost.is_set():
                    self._log(f"{self.worker_id}: lease {grant.lease_id} "
                              f"lost; abandoning shard {shard.shard_id}")
                    break
                if cell.key in stolen:
                    continue
                payload = self._run_cell(
                    shard.run_request(cell) if self.cells is None
                    else self.cells[cell.key].request)
                reply = self._rpc(self.transport.report, self.worker_id,
                                  grant.lease_id, cell.key, payload)
                if reply is None:
                    break  # unreachable; let the lease expire
                completed += 1
                self.cells_done += 1
        finally:
            stop.set()
            renewer.join(timeout=2.0)
        if completed and not had_trace and self.cells is None:
            self._sync_out(grant)
        if completed:
            self.shards_done += 1

    def _run_cell(self, request: RunRequest) -> Dict[str, object]:
        start = time.monotonic()
        try:
            return self.backend.run(request)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            return _failed_run(
                Job(request=request),
                f"{type(exc).__name__}: {exc}",
                time.monotonic() - start,
            ).to_payload()

    def _renew_loop(self, grant: LeaseGrant, lost: threading.Event,
                    stop: threading.Event, stolen: Set[str]) -> None:
        interval = max(0.05, (grant.ttl or 1.0) / 3.0)
        misses = 0
        while not stop.wait(interval):
            try:
                reply = self.transport.renew(self.worker_id, grant.lease_id)
            except (ReproError, OSError):
                misses += 1
                if misses >= TRANSPORT_RETRIES:
                    lost.set()
                    return
                continue
            misses = 0
            if not reply.get("ok"):
                lost.set()
                return
            for key in reply.get("stolen", ()):
                stolen.add(str(key))

    def _sync_in(self, grant: LeaseGrant) -> bool:
        """Warm the backend's store with the shard's trace; True when
        the backend already has (or just received) it."""
        shard = grant.shard
        assert shard is not None
        if not shard.trace_fp or shard.execution == "execute":
            return True
        if self.backend.has_blob(shard.trace_fp):
            return True
        if not grant.trace_available:
            return False
        blob = self._rpc(self.transport.get_trace, shard.trace_fp)
        if blob and self.backend.put_blob(shard.trace_fp, blob):
            self._log(f"{self.worker_id}: synced trace "
                      f"{shard.trace_fp[:12]} in ({len(blob)} bytes)")
            return True
        return False

    def _sync_out(self, grant: LeaseGrant) -> None:
        """Push a freshly captured trace back to the coordinator."""
        shard = grant.shard
        assert shard is not None
        if not shard.trace_fp or shard.execution == "execute":
            return
        blob = self.backend.get_blob(shard.trace_fp)
        if blob and self._rpc(self.transport.put_trace, shard.trace_fp,
                              blob):
            self._log(f"{self.worker_id}: synced trace "
                      f"{shard.trace_fp[:12]} out ({len(blob)} bytes)")


def build_worker(worker_id: str, transport, *,
                 trace_dir: Optional[str] = None,
                 job_timeout: Optional[float] = None,
                 daemon_url: Optional[str] = None, poll: float = 0.5,
                 log: Optional[Callable[[str], None]] = None) -> Worker:
    """The worker of a :class:`~repro.dist.DistSweep`, on ``transport``:
    cells run embedded unless ``daemon_url`` names a daemon to forward
    them to."""
    if daemon_url:
        from ..serve.client import DaemonClient

        backend = DaemonBackend(DaemonClient(*_parse_url(daemon_url),
                                             client_id=worker_id))
    else:
        backend = EmbeddedBackend(trace_dir=trace_dir,
                                  job_timeout=job_timeout)
    return Worker(worker_id, transport, backend, poll=poll, log=log)


__all__ = [
    "DaemonBackend",
    "EmbeddedBackend",
    "PipeTransport",
    "Worker",
    "build_worker",
]
