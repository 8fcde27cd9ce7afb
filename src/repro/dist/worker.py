"""Pull-based sweep workers.

Every worker runs one loop against a coordinator: lease a shard, run
each cell's own request out of the ledger's cells, and report the
:class:`~repro.harness.runner.WorkloadRun` itself.  It sends nothing
between reports: a lease ends when its worker ends or a report is
refused, so there is no heartbeat.  The simulation is delegated to a
*backend*:

* :class:`EmbeddedBackend` runs cells in this process through
  :func:`~repro.harness.parallel.run_cell` — the call the serve
  scheduler makes for a run cell — against one resident trace store
  (the coordinator's directory), so a worker a
  :class:`~repro.dist.DistSweep` forks (or runs inline) gets the
  daemon's store sharing and job timeout without a daemon's queue.
* :class:`DaemonBackend` forwards each cell to a ``repro serve`` daemon
  through :class:`~repro.serve.DaemonClient`, so an already-warm daemon
  becomes a sweep worker.  The daemon keeps its own trace store, so
  this backend alone syncs traces, and it decodes the daemon's HTTP
  result, where that outside input arrives.  The serve layer is
  imported only when such a worker is built.

The transport is whatever answers ``lease``/``report``:
:class:`PipeTransport` sends pickled frames over the socketpair of a
worker :class:`~repro.dist.DistSweep` forks, and a
:class:`~repro.dist.Coordinator` in the same process is its own
transport (the inline and daemon-backed workers, the unit tests).  No
call is retried: a pipe error is permanent (the transport closes its
socket) and a coordinator error is deterministic, so a worker leaves,
or abandons its shard, at the first failure; the coordinator ends the
lease of a refused report, and a forked worker's leases end when its
pipe closes.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partialmethod
from typing import Callable, Dict, Optional, Set
from urllib.parse import urlsplit

from ..common.errors import ReproError
from ..core.requests import LeaseGrant, RunRequest
from ..harness.cache import resolve_trace_store
from ..harness.parallel import (Job, _failed_run, recv_frame, run_cell,
                                send_frame, trace_key)
from ..harness.runner import WorkloadRun


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
    socketpair: ``(verb, args)`` out, ``(ok, value)`` back, for one
    caller (the worker's own thread).  A coordinator error comes back
    as a :class:`ReproError`, as it does from an in-process coordinator;
    EOF, a truncated frame or a timeout closes the pipe, and every later
    call raises OSError."""

    def __init__(self, sock, timeout: float = 60.0) -> None:
        sock.settimeout(timeout)
        self.sock = sock

    def _call(self, verb: str, *args):
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
    report = partialmethod(_call, "report")


# -- backends ------------------------------------------------------------------


class EmbeddedBackend:
    """Cells execute in this process, one at a time (each in a forked
    child under a job timeout), against one resident trace store (shared
    hit/miss counters, parsed-trace memo)."""

    def __init__(self, *, trace_dir: Optional[str] = None,
                 job_timeout: Optional[float] = None) -> None:
        self.job_timeout = job_timeout
        self.store = resolve_trace_store(trace_dir)

    def run(self, request: RunRequest) -> WorkloadRun:
        return run_cell(request, trace_store=self.store,
                        timeout=self.job_timeout)


class DaemonBackend:
    """Cells execute on a ``repro serve`` daemon, which pins its own
    trace store (so the request's ``trace_dir`` is cleared).  ``store``
    is the coordinator's: before a cell, its trace is pushed to the
    daemon, at most once per fingerprint; after a capture, the daemon's
    trace is pulled into it, so other workers replay.  A daemon's
    refusal of a transfer (a :class:`~repro.serve.DaemonError`) only
    costs a capture.  A result the daemon sends that does not decode
    comes back as a marked-failed run naming the fault."""

    def __init__(self, client: "DaemonClient", store=None, *,
                 wait_timeout: float = 600.0) -> None:
        self.client = client
        self.store = store
        self.wait_timeout = wait_timeout
        #: fingerprints the daemon holds: pushed to it or captured there.
        self._synced: Set[str] = set()

    def run(self, request: RunRequest) -> WorkloadRun:
        fp = (trace_key(request) if self.store is not None
              and request.execution != "execute" else "")
        if fp and fp not in self._synced:
            blob = self.store.read_blob(fp)
            if blob is not None and self._quietly(self.client.put_trace,
                                                  fp, blob):
                self._synced.add(fp)
        job = self.client.submit(replace(request, trace_dir=None))
        status = self.client.wait(job.job_id, timeout=self.wait_timeout)
        if status.result is None:
            return _failed_run(Job(request=request),
                               status.error or "daemon produced no result",
                               status.wall_seconds or 0.0)
        try:
            run = WorkloadRun.from_payload(status.result)
        except ValueError as exc:   # names the field at fault
            return _failed_run(Job(request=request),
                               f"malformed run payload from the daemon: "
                               f"{exc}", status.wall_seconds or 0.0)
        if fp and run.execution == "capture":
            self._synced.add(fp)
            blob = self._quietly(self.client.get_trace, fp)
            if blob:
                self.store.write_blob(fp, blob)
        return run

    @staticmethod
    def _quietly(call, *args):
        try:
            return call(*args)
        except ReproError:
            return None


# -- the worker loop -----------------------------------------------------------


class Worker:
    """Lease shards, simulate their cells, stream results back.

    ``cells`` is the coordinator's view of its cells (wire key -> job),
    shared by fork or by running in its process: a worker runs each
    cell's own request.  Every report's reply names the cells stolen
    from the lease, which the worker then skips.  The worker never
    retries a failed *cell* (failure isolation is per point, the
    coordinator journals the failed run) nor a failed transport call:
    it leaves when a lease call fails and abandons the shard when a
    report does.
    """

    def __init__(self, worker_id: str, transport, backend,
                 cells: Dict[str, Job], *,
                 log: Optional[Callable[[str], None]] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.worker_id = worker_id
        self.transport = transport
        self.backend = backend
        self.cells = cells
        self.cells_done = 0
        self._log = log or (lambda message: None)
        self._sleep = sleep

    def run(self) -> int:
        """Work until the coordinator says done or cannot be reached;
        returns cells run."""
        while True:
            try:
                grant = self.transport.lease(self.worker_id)
            except (ReproError, OSError) as exc:
                self._log(f"{self.worker_id}: lease failed ({exc}); exiting")
                return self.cells_done
            if grant.state == "done":
                self._log(f"{self.worker_id}: sweep done "
                          f"({self.cells_done} cell(s))")
                return self.cells_done
            if grant.state == "wait":
                self._sleep(grant.retry_after)
                continue
            self._run_shard(grant)

    def _run_shard(self, grant: LeaseGrant) -> None:
        shard = grant.shard
        assert shard is not None
        stolen: Set[str] = set()
        for cell in shard.cells:
            if cell.key in stolen:
                continue
            run = self._run_cell(self.cells[cell.key].request)
            try:
                reply = self.transport.report(
                    self.worker_id, grant.lease_id, cell.key, run)
            except (ReproError, OSError) as exc:
                self._log(f"{self.worker_id}: report failed ({exc}); "
                          f"abandoning shard {shard.shard_id}")
                return
            stolen.update(reply.get("stolen", ()))
            self.cells_done += 1

    def _run_cell(self, request: RunRequest) -> WorkloadRun:
        start = time.monotonic()
        try:
            return self.backend.run(request)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            return _failed_run(Job(request=request),
                               f"{type(exc).__name__}: {exc}",
                               time.monotonic() - start)


def build_worker(worker_id: str, transport, cells: Dict[str, Job], *,
                 trace_dir: Optional[str] = None,
                 job_timeout: Optional[float] = None,
                 daemon_url: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None) -> Worker:
    """The worker of a :class:`~repro.dist.DistSweep`, on ``transport``:
    cells run embedded against the store at ``trace_dir`` unless
    ``daemon_url`` names a daemon to forward them to, which then syncs
    traces with that store."""
    if daemon_url:
        from ..serve.client import DaemonClient

        backend = DaemonBackend(
            DaemonClient(*_parse_url(daemon_url), client_id=worker_id),
            resolve_trace_store(trace_dir) if trace_dir else None)
    else:
        backend = EmbeddedBackend(trace_dir=trace_dir,
                                  job_timeout=job_timeout)
    return Worker(worker_id, transport, backend, cells, log=log)


__all__ = [
    "DaemonBackend",
    "EmbeddedBackend",
    "PipeTransport",
    "Worker",
    "build_worker",
]
