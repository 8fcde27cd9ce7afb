"""The distributed sweep coordinator: lease server and merge point.

The coordinator is the *distributed dispatch policy* over a
:class:`~repro.explore.sweep.SweepLedger`.  The ledger resolves the
request, owns the journal, the per-cell disk cache and the trace store,
replays what is already known, files and journals every cell that
lands, marks each point done as its last cell resolves and runs the
replay fidelity guard — exactly as it does under the serial policy
(:func:`~repro.explore.sweep.execute_sweep_request`, which hands its
ledger to a coordinator here under ``jobs > 1``).  What is left here
is what is genuinely distributed: pull-based workers lease
content-addressed shards of the ledger's live cells and report each
finished :class:`~repro.harness.runner.WorkloadRun` as itself (every
worker is forked from this process or runs in it; only one that
forwards cells to a daemon decodes a run, from the daemon's HTTP).
Because there is one ledger, a distributed journal is *bit-identical*
(modulo wall-clock fields) to the single-host one, and either executor
resumes the other's journal: :func:`journal_digest` makes that property
checkable.

A lease is one worker's exclusive claim on a shard's outstanding cells.
It ends at its holder's last report, when a report of its holder's is
refused, or when its holder ends: a forked worker's pipe closes
(SIGKILL, crash, exit) or an in-process worker's thread returns.  There
is no heartbeat.  A lease that ends with cells left counts as an
expiry: the shard goes back on the queue with every already-reported
cell subtracted, so nothing journaled is ever resimulated, and after
:data:`MAX_SHARD_ATTEMPTS` such endings its cells fail instead.  The
trade: a worker frozen whole (SIGSTOP) keeps its lease until stealing
has split it down to one cell, and that cell waits for the sweep's
timeout; a hung cell is bounded by the request's ``job_timeout``.
Work-stealing is the one load
balancer: an idle worker splits the tail off the largest outstanding
lease once that shard's capture is stored; the victim learns which
cells left from its next report's reply, and skips them.  Double
reports (a stale worker racing its replacement) resolve first-wins.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, List, NoReturn, Optional, Sequence, Tuple,
                    Union)

from ..common.errors import ReproError
from ..core.requests import LeaseGrant, ShardCell, SweepRequest
from ..explore.sweep import SweepLedger, SweepResults
from ..harness.parallel import (ForkedProcess, Job, ProgressFn, _failed_run,
                                fork, recv_frame, send_frame)
from ..harness.runner import WorkloadRun
from ..obs.host import span
from .shard import ShardState, group_shards, shard_id_for
from .worker import PipeTransport, Worker, build_worker

#: A shard whose lease ends with cells left this many times marks them
#: failed instead of requeueing forever (poison-shard guard).
MAX_SHARD_ATTEMPTS = 5

#: Seconds a worker told to wait sleeps before it asks again.
RETRY_AFTER = 0.1


@dataclass
class LeaseState:
    """One live lease (coordinator-private)."""

    lease_id: str
    worker_id: str
    shard: ShardState
    #: cell keys stolen from this lease since its holder's last report;
    #: drained into the next report's reply so the holder skips them.
    stolen_pending: List[str] = field(default_factory=list)

    def outstanding(self) -> int:
        return len(self.shard.remaining)


@dataclass
class WorkerStats:
    """Per-worker accounting for the :class:`DistSweepResults` report."""

    worker_id: str
    leases: int = 0
    cells: int = 0
    steals: int = 0
    expiries: int = 0

    def to_payload(self) -> Dict[str, int]:
        return {"leases": self.leases, "cells": self.cells,
                "steals": self.steals, "expiries": self.expiries}


@dataclass
class DistSweepResults(SweepResults):
    """A sweep result plus the distribution ledger: who simulated what,
    and how often the fault-tolerance machinery fired."""

    workers: Dict[str, WorkerStats] = field(default_factory=dict)
    shards: int = 0
    steals: int = 0
    expiries: int = 0
    #: shards re-queued after a lease expiry (the resume counter the
    #: chaos test asserts on).
    retries: int = 0
    duplicate_reports: int = 0

    def dist_payload(self) -> Dict[str, object]:
        return {
            "workers": {wid: stats.to_payload()
                        for wid, stats in sorted(self.workers.items())},
            "shards": self.shards,
            "steals": self.steals,
            "expiries": self.expiries,
            "retries": self.retries,
            "duplicate_reports": self.duplicate_reports,
        }

    def to_json(self, indent: int = 2) -> str:
        payload = json.loads(super().to_json(indent=indent))
        payload["dist"] = self.dist_payload()
        return json.dumps(payload, indent=indent, sort_keys=True)


def journal_digest(path) -> str:
    """Content digest of a sweep journal with volatile fields stripped.

    Wall-clock fields (per-run ``wall_seconds``, the header's
    ``created``) and the capture-vs-replay ``execution`` tag differ
    between hosts and runs; the simulated statistics must not.  Cells
    are keyed by (point id, workload, ISA) and points by id, not by line
    order, because a distributed sweep journals them in completion
    order.  Two journals with equal digests carry bit-identical sweep
    statistics.
    """
    header: Dict[str, object] = {}
    lines: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict):
                continue
            if entry.get("type") == "header":
                header = dict(entry)
                header.pop("created", None)
            elif entry.get("type") == "point":
                lines[str(entry.get("point", {}).get("point_id", ""))] = entry
            elif (entry.get("type") == "cell"
                  and isinstance(entry.get("run"), dict)):
                run = entry["run"]
                run.pop("wall_seconds", None)
                run.pop("execution", None)
                lines[f"{entry.get('point')} {run.get('workload')}/"
                      f"{run.get('isa')}"] = entry
    canonical = json.dumps({"header": header, "lines": lines},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Coordinator:
    """Lease server for one distributed sweep: the distributed dispatch
    policy over a :class:`~repro.explore.sweep.SweepLedger`, which stays
    the journal's single writer.

    ``request`` is a sweep request, or a caller's own ledger (a suite or
    sweep under ``jobs > 1``) with ``live`` the cells its
    :meth:`~repro.explore.sweep.SweepLedger.open` returned.

    Thread-safe: every public method may be called from the pipe
    threads, the in-process (inline and daemon-backed) worker threads,
    and the driver concurrently.
    """

    def __init__(self, request: Union[SweepRequest, SweepLedger], *,
                 live: Optional[List[Job]] = None,
                 progress: Optional[ProgressFn] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        #: set once every cell of the sweep has landed.
        self.finished = threading.Event()
        self._log = log or (lambda message: None)
        self._lock = threading.RLock()

        self.ledger = (request if isinstance(request, SweepLedger)
                       else SweepLedger(request, progress))
        self.store = self.ledger.store
        # The distribution half of :class:`DistSweepResults`; the sweep
        # half is the ledger's.
        self.workers: Dict[str, WorkerStats] = {}
        self.steals = self.expiries = self.retries = 0
        self.duplicate_reports = 0

        if live is None:
            live = self.ledger.open()
        jobs = {job.key: job for job in live}
        shards = group_shards(self.ledger, live)
        self._pending: List[ShardState] = [ShardState.from_request(s)
                                           for s in shards]
        self._cell_home: Dict[str, ShardState] = {}
        #: every distributable cell, by wire key; never shrinks.  Every
        #: worker runs these very requests (see :class:`Worker`).
        self.cells: Dict[str, Job] = {}
        self._accepted: Dict[str, int] = {}
        for state in self._pending:
            for key, cell in state.remaining.items():
                self._cell_home[key] = state
                self.cells[key] = jobs[(cell.point, cell.workload,
                                        cell.isa)]
        #: live leases by id.
        self._leases: Dict[str, LeaseState] = {}
        self._lease_ids = itertools.count(1)
        self.shards = len(shards)
        if self.ledger.done:
            self.finished.set()
        self._log(f"sweep {self.ledger.results.sweep_id}: {len(shards)} "
                  f"shard(s), {len(live)} live cell(s) of "
                  f"{self.ledger.total}")

    @property
    def done(self) -> bool:
        return self.finished.is_set()

    # -- worker protocol -------------------------------------------------------

    def _worker(self, worker_id: str) -> WorkerStats:
        return self.workers.setdefault(worker_id,
                                       WorkerStats(worker_id=worker_id))

    def _end(self, lease: LeaseState) -> None:
        """End ``lease``.  With cells left (its holder ended, or a report
        was refused) this is an expiry: the shard goes back on the queue,
        or fails once it has used up :data:`MAX_SHARD_ATTEMPTS`."""
        del self._leases[lease.lease_id]
        shard = lease.shard
        if not shard.remaining:
            return  # its holder's last report, or others landed its cells
        self.expiries += 1
        self._worker(lease.worker_id).expiries += 1
        shard.attempts += 1
        if shard.attempts >= MAX_SHARD_ATTEMPTS:
            self._log(f"shard {shard.shard_id} abandoned after "
                      f"{shard.attempts} dead leases; failing "
                      f"{len(shard.remaining)} cell(s)")
            self._fail_shard(shard,
                             f"shard {shard.shard_id} failed after "
                             f"{shard.attempts} lease expiries")
            return
        self.retries += 1
        self._pending.append(shard)
        self._log(f"lease {lease.lease_id} ({lease.worker_id}) ended; "
                  f"requeued shard {shard.shard_id} with "
                  f"{len(shard.remaining)} cell(s) left")

    def drop(self, worker_id: str) -> None:
        """``worker_id`` can never report again (its pipe closed or its
        thread returned): its leases end now."""
        with self._lock:
            for lease in list(self._leases.values()):
                if lease.worker_id == worker_id:
                    self._end(lease)

    def _fail_shard(self, shard: ShardState, message: str) -> None:
        for key in list(shard.remaining):
            self._accept(key, _failed_run(self.cells[key], message, 0.0),
                         worker_id="(coordinator)")

    def lease(self, worker_id: str) -> LeaseGrant:
        """One worker's pull: a shard grant, a back-off, or done."""
        with span("dist.lease"), self._lock:
            while self._pending:
                shard = self._pending.pop(0)
                if not shard.remaining:
                    continue  # every cell landed as a late report
                return self._grant(worker_id, shard, stolen=False)
            # The victim is the lease with the most outstanding cells;
            # splitting one that is down to one cell buys nothing.
            victim = max((lease for lease in self._leases.values()
                          if lease.outstanding() >= 2),
                         key=LeaseState.outstanding, default=None)
            shard = self._split(victim) if victim is not None else None
            if shard is not None:
                self.steals += 1
                self._worker(worker_id).steals += 1
                self._log(f"{worker_id} stole {len(shard.remaining)} "
                          f"cell(s) from lease {victim.lease_id} "
                          f"({victim.worker_id}) as shard {shard.shard_id}")
                return self._grant(worker_id, shard, stolen=True)
            if self.done:
                return LeaseGrant(state="done")
            return LeaseGrant(state="wait", retry_after=RETRY_AFTER)

    def _grant(self, worker_id: str, shard: ShardState,
               stolen: bool) -> LeaseGrant:
        lease = LeaseState(lease_id=f"L{next(self._lease_ids):05d}",
                           worker_id=worker_id, shard=shard)
        self._leases[lease.lease_id] = lease
        self._worker(worker_id).leases += 1
        return LeaseGrant(
            state="granted",
            lease_id=lease.lease_id,
            shard=shard.granted_request(),
            stolen=stolen,
        )

    def _split(self, victim: LeaseState) -> Optional[ShardState]:
        """Move the tail half of the victim's outstanding cells into a
        fresh content-addressed shard (the victim keeps working its head
        and learns of the theft from its next report).  None before the
        victim's capture is stored: the thief would capture again."""
        keys = list(victim.shard.remaining)
        take = len(keys) // 2
        if take < 1 or not (self.ledger.cell_mode == "execute"
                            or self.store.has(victim.shard.trace_fp)):  # type: ignore[union-attr]
            return None
        taken = keys[len(keys) - take:]
        cells: Dict[str, ShardCell] = {}
        for key in taken:
            cells[key] = victim.shard.remaining.pop(key)
            victim.stolen_pending.append(key)
        request = replace(
            victim.shard.request,
            shard_id=shard_id_for(victim.shard.request.sweep_id,
                                  victim.shard.trace_fp,
                                  list(cells.values())),
            cells=tuple(cells.values()),
        )
        shard = ShardState(request=request, remaining=cells)
        shard.attempts = victim.shard.attempts
        for key in cells:
            self._cell_home[key] = shard
        return shard

    def report(self, worker_id: str, lease_id: str, cell_key: str,
               run: WorkloadRun) -> Dict[str, object]:
        """One finished cell's run streaming back.  First report wins;
        a duplicate (stale worker racing its replacement) is counted and
        dropped.  A report from an ended lease is still accepted when
        the cell is outstanding — the work is done and deterministic, so
        discarding it would only buy a resimulation.  The reply's
        ``stolen`` names the cells taken from the lease since the
        worker last heard, so it never simulates them; a lease left
        with no cells ends.  A refused report ends its lease before it
        raises: the worker abandons the shard at the refusal, and
        nothing else would free it while the worker lives."""
        with span("dist.report"), self._lock:
            if not isinstance(run, WorkloadRun):
                self._refuse(worker_id, lease_id,
                             f"malformed report for cell {cell_key!r}: a "
                             f"{type(run).__name__}, not a WorkloadRun")
            job = self.cells.get(cell_key)
            if job is None:
                self._refuse(worker_id, lease_id,
                             f"unknown cell {cell_key!r}")
            if (run.workload, run.isa) != (job.workload, job.isa):
                # A stale or buggy worker must not journal one cell's
                # statistics as another's; the cell stays outstanding.
                self._refuse(worker_id, lease_id,
                             f"mislabelled report: cell {cell_key!r} got "
                             f"a run of {run.workload}/{run.isa}")
            duplicate = cell_key in self._accepted
            if duplicate:
                self.duplicate_reports += 1
            else:
                self._accept(cell_key, run, worker_id=worker_id)
            stolen: List[str] = []
            lease = self._leases.get(lease_id)
            if lease is not None and lease.worker_id == worker_id:
                stolen, lease.stolen_pending = lease.stolen_pending, []
                if not lease.shard.remaining:
                    self._end(lease)
            return {"accepted": not duplicate, "duplicate": duplicate,
                    "done": self.done, "stolen": stolen}

    def _refuse(self, worker_id: str, lease_id: str,
                message: str) -> NoReturn:
        lease = self._leases.get(lease_id)
        if lease is not None and lease.worker_id == worker_id:
            self._end(lease)
        raise ReproError(message)

    def _accept(self, cell_key: str, run: WorkloadRun, *,
                worker_id: str) -> None:
        self._accepted[cell_key] = self._accepted.get(cell_key, 0) + 1
        home = self._cell_home.pop(cell_key, None)
        if home is not None:
            home.remaining.pop(cell_key, None)
        self._worker(worker_id).cells += 1
        self.ledger.accept(self.cells[cell_key], run)
        if self.ledger.done:
            self.finished.set()

    def status(self) -> Dict[str, object]:
        with self._lock:
            outstanding = sum(len(s.remaining) for s in self._pending)
            outstanding += sum(lease.outstanding()
                               for lease in self._leases.values())
            return {
                "sweep_id": self.ledger.results.sweep_id,
                "total_points": len(self.ledger.points),
                "points_done": self.ledger.points_done,
                "total_cells": self.ledger.total,
                "cells_accepted": len(self._accepted),
                "outstanding_cells": outstanding,
                "pending_shards": len(self._pending),
                "active_leases": len(self._leases),
                "steals": self.steals,
                "expiries": self.expiries,
                "retries": self.retries,
                "duplicate_reports": self.duplicate_reports,
                "done": self.done,
            }

    # -- teardown --------------------------------------------------------------

    def abort(self, message: str) -> None:
        """Mark every outstanding cell failed so :meth:`finish` can
        produce a complete (but failed) result — the timeout path."""
        with self._lock:
            self._pending.extend(lease.shard
                                 for lease in self._leases.values())
            self._leases.clear()
            while self._pending:
                shard = self._pending.pop(0)
                if shard.remaining:
                    self._fail_shard(shard, message)

    def finish(self) -> DistSweepResults:
        """Run the ledger's replay fidelity guard, close the journal and
        assemble the final results (call once, after :attr:`done`)."""
        self.ledger.verify()  # a simulation: outside the lock
        with self._lock:
            return DistSweepResults(
                **vars(self.ledger.close()), workers=self.workers,
                shards=self.shards, steals=self.steals,
                expiries=self.expiries, retries=self.retries,
                duplicate_reports=self.duplicate_reports)


#: The coordinator methods a pipe frame may name; nothing else is looked up.
PIPE_VERBS = ("lease", "report")


def serve_pipe(sock: socket.socket, coordinator: Coordinator) -> None:
    """Answer one forked worker's :class:`PipeTransport` frames until its
    end closes.  A coordinator error answers ``(False, message)``; a
    truncated or undecodable frame closes the pipe unanswered (and
    :class:`DistSweep` then drops the worker's leases)."""
    verbs = {verb: getattr(coordinator, verb) for verb in PIPE_VERBS}
    with sock:
        try:
            while True:
                verb, args = recv_frame(sock)
                with span("dist.pipe", verb=str(verb)) as attrs:
                    try:
                        if not isinstance(verb, str) or verb not in verbs:
                            raise ReproError(f"unknown verb {verb!r}")
                        reply = (True, verbs[verb](*args))
                    except Exception as exc:  # noqa: BLE001 - answered, not raised
                        reply = (False, f"{type(exc).__name__}: {exc}")
                    attrs["ok"] = reply[0]
                    send_frame(sock, reply)
        except (OSError, TypeError, ValueError):
            return  # EOF, a cut or undecodable frame, or a dead worker


class DistSweep:
    """One distributed sweep run: coordinator + its worker fleet.

    A worker is one of three kinds: a forked local worker on its own
    socketpair, served by one thread per pipe (:func:`serve_pipe`); an
    in-process thread per ``worker_urls`` entry that forwards cells to a
    ``repro serve`` daemon; or the inline safety net :meth:`wait` runs.
    Nothing listens on a port.  ``request`` and ``live`` are as for
    :class:`Coordinator`.  Split into :meth:`start` / :meth:`wait` so
    callers — the chaos test in particular — can reach
    :attr:`processes` mid-flight and SIGKILL a worker.
    """

    def __init__(self, request: Union[SweepRequest, SweepLedger], *,
                 live: Optional[List[Job]] = None,
                 workers: int = 0,
                 worker_urls: Sequence[str] = (),
                 progress: Optional[ProgressFn] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.workers = max(0, int(workers))
        self.worker_urls = tuple(worker_urls)
        self._log = log or (lambda message: None)
        self.coordinator = Coordinator(request, live=live,
                                       progress=progress, log=log)
        #: the local workers :meth:`start` forks, and their socketpairs.
        self.processes: List[ForkedProcess] = []
        self.pipes: List[Tuple[socket.socket, socket.socket]] = []
        self._threads: List[threading.Thread] = []
        self._pipe_threads: List[threading.Thread] = []

    def start(self) -> "DistSweep":
        if self.coordinator.done:
            return self  # fully replayed/cached; nothing to distribute
        if self.workers > 0:
            # Every pipe is made before the first fork, and no thread of
            # ours runs until the last one.
            self.pipes = [socket.socketpair() for _ in range(self.workers)]
            for i, (_, child_end) in enumerate(self.pipes):
                self.processes.append(self._spawn(f"local-{i}", child_end))
            for i, (parent_end, child_end) in enumerate(self.pipes):
                child_end.close()
                self._pipe_threads.append(threading.Thread(
                    target=self._serve, args=(parent_end, f"local-{i}"),
                    name="repro-dist-pipe", daemon=True))
                self._pipe_threads[-1].start()
        for i, url in enumerate(self.worker_urls):
            thread = threading.Thread(
                target=self._run, args=(f"daemon-{i}", url),
                name=f"repro-dist-{url}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def _worker(self, worker_id: str, transport=None,
                daemon_url: Optional[str] = None) -> Worker:
        """A worker of this sweep: over ``transport`` (a forked worker's
        pipe), else with the coordinator as its transport (inline, or
        forwarding each cell to the daemon at ``daemon_url``).  Each runs
        the ledger's own cell requests against the coordinator's store
        directory; only a daemon's worker syncs traces with it."""
        store = self.coordinator.store
        return build_worker(
            worker_id, transport or self.coordinator,
            self.coordinator.cells,
            trace_dir=str(store.directory) if store is not None else None,
            job_timeout=self.coordinator.ledger.request.job_timeout,
            daemon_url=daemon_url, log=self._log)

    def _spawn(self, worker_id: str, pipe: socket.socket) -> ForkedProcess:
        """Fork one local worker on its ``pipe`` end."""
        return fork(
            lambda: self._worker(worker_id, PipeTransport(pipe)).run(),
            close=[end for pair in self.pipes for end in pair
                   if end is not pipe])

    def _serve(self, pipe: socket.socket, worker_id: str) -> None:
        """Answer one local worker's pipe.  Once it closes (the worker
        exited or died) nothing can come from that worker again, so its
        leases end."""
        serve_pipe(pipe, self.coordinator)
        self.coordinator.drop(worker_id)

    def _run(self, worker_id: str, daemon_url: Optional[str] = None) -> None:
        """Run one in-process worker (inline, or forwarding to the daemon
        at ``daemon_url``).  Once it returns or raises nothing can come
        from it again, so its leases end."""
        try:
            self._worker(worker_id, daemon_url=daemon_url).run()
        finally:
            self.coordinator.drop(worker_id)

    def alive_workers(self) -> int:
        return (sum(1 for p in self.processes if p.poll() is None)
                + sum(1 for t in self._threads if t.is_alive()))

    def wait(self, timeout: Optional[float] = None) -> DistSweepResults:
        """Wait until every cell has landed; when no worker is left
        alive, an inline worker in this process finishes the rest (the
        safety net, and the whole sweep when there are no workers)."""
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        try:
            while not self.coordinator.done:
                if deadline is not None and time.monotonic() >= deadline:
                    self.coordinator.abort(
                        f"distributed sweep timed out after {timeout:g}s")
                    break
                if ((self.workers or self.worker_urls)
                        and self.alive_workers() > 0):
                    # The done event ends the wait at once; the slice
                    # bounds how late a dead fleet is noticed.
                    self.coordinator.finished.wait(0.1)
                    continue
                self._run("inline")
        finally:
            try:
                results = self.coordinator.finish()
            finally:
                self.stop()
        return results

    def stop(self) -> None:
        """Kill and reap the local workers (so their CPU time counts as
        this process's children's) and join the threads."""
        for proc in self.processes:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.poll(block=True)
        for thread in self._threads + self._pipe_threads:
            thread.join(timeout=5.0)


def run_dist_sweep(request: SweepRequest, *,
                   workers: int = 0,
                   worker_urls: Sequence[str] = (),
                   progress: Optional[ProgressFn] = None,
                   timeout: Optional[float] = None,
                   log: Optional[Callable[[str], None]] = None
                   ) -> DistSweepResults:
    """Run one sweep request across a worker fleet; see the module doc.

    ``workers`` forks that many local workers from this process, each
    on its own socketpair to the coordinator, and reaps them before
    returning.  ``worker_urls`` adds one in-process worker per
    ``repro serve`` daemon; with neither, an embedded worker runs the
    whole sweep inline (useful as a serial cross-check of the dist
    path).
    """
    return DistSweep(request, workers=workers, worker_urls=worker_urls,
                     progress=progress, log=log).start().wait(timeout=timeout)


__all__ = [
    "Coordinator",
    "DistSweep",
    "DistSweepResults",
    "MAX_SHARD_ATTEMPTS",
    "WorkerStats",
    "journal_digest",
    "run_dist_sweep",
    "serve_pipe",
]
