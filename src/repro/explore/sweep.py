"""Sweep ledger and its local dispatch loop — the one matrix executor —
with a resumable on-disk journal.

:class:`SweepLedger` is the one place that decides what a sweep already
knows (journal replay, invalid points, cache hits), what is still live,
what happens when a cell lands, when a point is journaled, and how
replay is checked.  Executors are dispatch *policies* over it:
:func:`execute_sweep_request` runs the live cells inline (captures,
barrier, the rest), and the distributed
:class:`~repro.dist.Coordinator` leases them to workers — under
``jobs > 1`` to workers forked from this very process.  Both write the
journal through the same ledger, so either resumes the other's.

A suite is a sweep with zero axes: :func:`execute_suite_request` opens
a ledger over the one ``base`` point of a
:class:`~repro.core.requests.SuiteRequest` (no journal, no drift guard)
and runs it through the same dispatch loop, so ``repro figures``,
``Session.suite`` and ``POST /v1/suite`` share the sweep's cache lookup,
progress events, ``--jobs`` fan-out and deterministic reduce.

One sweep = (base config, space, workloads, ISAs, scale, seed).  Its
identity is a content hash of exactly those inputs, so the journal
directory (``.repro_cache/sweeps/<sweep-id>/``) is found again by simply
re-issuing the same command with ``--resume``.  The journal is JSONL —
a header line, then one ``cell`` line per workload x ISA cell as it
lands (encoded once, from the payload the result cache writes too) and
one small ``point`` line the moment a point's last cell resolves.  A
killed or crashed sweep therefore restarts from the last finished
cell: completed points are served straight from the journal, the
journaled cells of an unfinished one pre-complete (zero
re-simulation), and only the tail runs.

Failure isolation is per point: an invalid geometry (caught at
enumeration by ``with_overrides``) or a diverging simulation marks that
point failed in the journal and the sweep moves on — one bad corner of
the design space never aborts the exploration.  Individual cells
additionally ride the existing per-cell disk cache, so a *fresh* sweep
over configs that earlier suites already simulated is warm from the
start.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import socket
import time
import warnings

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.requests import SuiteRequest, SweepRequest

from ..common.config import GpuConfig
from ..common.errors import ReproError
from ..harness.cache import (
    ResultCache,
    TraceStore,
    default_cache_dir,
    resolve_cache,
    resolve_trace_store,
    source_tree_stamp,
)
from ..harness.parallel import (
    Job,
    JobEvent,
    ProgressFn,
    resolve_jobs,
    run_cell,
    run_job_inline,
    trace_groups,
)
from ..harness.runner import SuiteResults, WorkloadRun
from ..obs.host import span
from ..workloads import all_workloads
from .space import Axis, SweepPoint, build_space

#: bump when the journal line shape changes; older journals then re-run
#: instead of deserializing garbage.
JOURNAL_FORMAT_VERSION = 2


@dataclass
class PointResult:
    """Everything one sweep point produced."""

    point: SweepPoint
    runs: Dict[Tuple[str, str], WorkloadRun] = field(default_factory=dict)
    #: True when the point was replayed from the journal, not simulated.
    from_journal: bool = False

    @property
    def failed(self) -> bool:
        return (self.point.error is not None
                or any(r.failed for r in self.runs.values()))

    @property
    def status(self) -> str:
        return "failed" if self.failed else "ok"

    @property
    def error(self) -> Optional[str]:
        if self.point.error is not None:
            return self.point.error
        for (w, isa), run in sorted(self.runs.items()):
            if run.error:
                return f"{w}/{isa}: {run.error}"
        return None

    def suite(self, scale: float) -> SuiteResults:
        """This point's matrix as a :class:`SuiteResults`, so every
        existing figure/report generator works per sweep point."""
        results = SuiteResults(scale=scale)
        results.runs.update(self.runs)
        return results


@dataclass
class SweepResults:
    """All points of one sweep, in enumeration order."""

    sweep_id: str
    base: GpuConfig
    axes: Tuple[Axis, ...]
    mode: str
    workloads: Tuple[str, ...]
    isas: Tuple[str, ...]
    scale: float
    seed: int
    points: List[PointResult] = field(default_factory=list)
    journal_path: Optional[str] = None
    #: requested execution mode ("auto" | "execute" | "replay").
    execution: str = "execute"
    #: cells functionally executed while recording a trace, this run.
    captures: int = 0
    #: cells driven from a stored trace instead of executing, this run.
    replays: int = 0
    #: of ``replays``, the cells derived from a witnessed replay instead
    #: of simulated (harness/equivalence.py), wherever they ran.
    derived: int = 0
    #: the replayed cell re-executed by the fidelity guard ("" = none).
    verified_cell: str = ""
    #: 1 if the guard's re-execution disagreed with the replay, else 0.
    replay_drift: int = 0

    def find(self, point_id: str) -> PointResult:
        for pr in self.points:
            if pr.point.point_id == point_id:
                return pr
        raise KeyError(f"no sweep point {point_id!r}")

    @property
    def failed_points(self) -> List[PointResult]:
        return [pr for pr in self.points if pr.failed]

    def replayed(self) -> int:
        """How many points were served from the journal."""
        return sum(1 for pr in self.points if pr.from_journal)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "sweep_id": self.sweep_id,
            "base_config": self.base.fingerprint(),
            "axes": [axis.describe() for axis in self.axes],
            "mode": self.mode,
            "workloads": list(self.workloads),
            "isas": list(self.isas),
            "scale": self.scale,
            "seed": self.seed,
            "execution": self.execution,
            "captures": self.captures,
            "replays": self.replays,
            "verified_cell": self.verified_cell,
            "replay_drift": self.replay_drift,
            "points": [
                {
                    **pr.point.to_dict(),
                    "status": pr.status,
                    "from_journal": pr.from_journal,
                    "runs": [run.to_dict()
                             for _key, run in sorted(pr.runs.items())],
                }
                for pr in self.points
            ],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def sweep_fingerprint(base: GpuConfig, axes: Sequence[Axis], mode: str,
                      workloads: Sequence[str], isas: Sequence[str],
                      scale: float, seed: int) -> str:
    """Deterministic sweep id: same spec -> same id -> same journal dir."""
    canonical = json.dumps(
        {
            "base": base.fingerprint(),
            "axes": [axis.describe() for axis in axes],
            "mode": mode,
            "workloads": list(workloads),
            "isas": list(isas),
            "scale": scale,
            "seed": seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def default_sweeps_dir() -> str:
    return os.environ.get(
        "REPRO_SWEEPS_DIR", os.path.join(default_cache_dir(), "sweeps")
    )


class SweepJournal:
    """The JSONL journal of one sweep directory.

    Append-only and best-effort like the result cache: an unwritable
    directory degrades to a non-resumable (but still correct) sweep, a
    truncated tail line — the signature of a kill mid-write — is ignored,
    and a journal written against different simulator sources is treated
    as empty rather than replaying stale statistics.

    One exception to best-effort: :meth:`open` takes an exclusive
    advisory lock (``fcntl.flock``) on a ``journal.lock`` sidecar, so two
    processes can never interleave writes to one journal — the second
    opener gets a :class:`ReproError` naming the holder instead of
    silently corrupting the first sweep's resume state.  This is what
    makes the distributed coordinator's single-writer contract safe to
    rely on.
    """

    def __init__(self, directory: Union[str, Path], sweep_id: str) -> None:
        self.directory = Path(directory) / sweep_id
        self.sweep_id = sweep_id
        self.path = self.directory / "journal.jsonl"
        self.lock_path = self.directory / "journal.lock"
        self._file = None
        self._lock_file = None

    # -- replay ----------------------------------------------------------------

    def load(self) -> Tuple[
            Dict[Tuple[str, str], Dict[Tuple[str, str], WorkloadRun]],
            Set[Tuple[str, str]]]:
        """(the journaled cells' runs by (workload, ISA), under (point id,
        config fingerprint); the finished points' (point id, config
        fingerprint)), both empty on any problem.  A later line for the
        same cell wins.  Ids are read, not recomputed from the overrides:
        ids are order-sensitive, and a JSON object's key order is not
        the journal's contract."""
        cells: Dict[Tuple[str, str], Dict[Tuple[str, str], WorkloadRun]] = {}
        finished: Set[Tuple[str, str]] = set()
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError:
            return cells, finished
        header_ok = False
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # truncated tail from a mid-write kill
            if not isinstance(entry, dict):
                continue
            if entry.get("type") == "header":
                if (entry.get("format") == JOURNAL_FORMAT_VERSION
                        and entry.get("source") == source_tree_stamp()):
                    header_ok = True
                else:
                    warnings.warn(
                        f"sweep journal {self.path} was written by a "
                        f"different source tree or format; re-simulating",
                        stacklevel=2,
                    )
                    return {}, set()
                continue
            if not header_ok:
                continue
            try:
                if entry.get("type") == "cell":
                    run = WorkloadRun.from_payload(entry["run"])
                    cells.setdefault((str(entry["point"]), entry["config"]),
                                     {})[(run.workload, run.isa)] = run
                elif entry.get("type") == "point":
                    raw = entry["point"]
                    finished.add((str(raw["point_id"]),
                                  raw["config_fingerprint"]))
            except (KeyError, TypeError, ValueError, AttributeError):
                continue
        return cells, finished

    # -- append ----------------------------------------------------------------

    def open(self, header: "Dict[str, object]", resume: bool) -> None:
        """Start (or reopen) the journal; a fresh sweep truncates.

        Raises :class:`ReproError` when another live process holds this
        journal's lock (anything else stays best-effort)."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            self._file = None  # journalling off; the sweep still runs
            return
        self._acquire_lock()
        try:
            mode = "a" if resume and self.path.exists() else "w"
            self._file = open(self.path, mode, encoding="utf-8")
            if mode == "w":
                self.append(json.dumps(header), durable=True)
        except OSError:
            self._file = None

    def _acquire_lock(self) -> None:
        """Exclusive advisory lock on the journal's sidecar; the lock
        file records pid/host so the refusal can name the holder."""
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return
        try:
            lock_file = open(self.lock_path, "a+", encoding="utf-8")
        except OSError:
            return  # lock unavailable -> stay best-effort, like the journal
        try:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            if exc.errno in (errno.EACCES, errno.EAGAIN):
                holder = "another process"
                try:
                    lock_file.seek(0)
                    info = json.loads(lock_file.read() or "{}")
                    holder = (f"pid {info.get('pid', '?')} on "
                              f"{info.get('host', '?')}")
                except (OSError, ValueError):
                    pass
                lock_file.close()
                raise ReproError(
                    f"sweep journal {self.path} is locked by {holder}; "
                    f"wait for that sweep to finish or use a different "
                    f"sweeps dir"
                ) from None
            lock_file.close()
            return
        try:
            lock_file.seek(0)
            lock_file.truncate()
            lock_file.write(json.dumps({
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "started": time.time(),
            }))
            lock_file.flush()
        except (OSError, ValueError):
            pass
        self._lock_file = lock_file

    def append(self, line: str, durable: bool) -> None:
        """Write and flush one JSON line, so a forked worker inherits no
        buffered bytes and a kill loses nothing written; ``durable``
        also fsyncs it, and with it every line before it."""
        if self._file is None:
            return
        try:
            self._file.write(line + "\n")
            self._file.flush()
            if durable:
                os.fsync(self._file.fileno())
        except (OSError, ValueError):
            self._file = None

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._lock_file is not None:
            try:
                if fcntl is not None:
                    fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
                self._lock_file.close()
            except OSError:
                pass
            self._lock_file = None


def journal_header(sweep_id: str, base: GpuConfig, axes: Sequence[Axis],
                   mode: str, workloads: Sequence[str],
                   isas: Sequence[str], scale: float,
                   seed: int) -> "Dict[str, object]":
    """The journal's header line.  Only :class:`SweepLedger` writes it,
    so a journal started by one executor resumes under the other."""
    return {
        "type": "header",
        "format": JOURNAL_FORMAT_VERSION,
        "sweep_id": sweep_id,
        "source": source_tree_stamp(),
        "base_config": base.fingerprint(),
        "axes": [axis.describe() for axis in axes],
        "mode": mode,
        "workloads": list(workloads),
        "isas": list(isas),
        "scale": scale,
        "seed": seed,
        "created": time.time(),
    }


def resolve_sweep_execution(
    execution: str,
    use_disk_cache: Optional[bool],
    trace_dir: Optional[str],
    cache_dir: Optional[str],
) -> "Tuple[str, Optional[TraceStore]]":
    """The (per-cell execution mode, trace store) a sweep runs under.

    "auto" degrades to plain execution when the store is unavailable:
    caching disabled by ``REPRO_NO_CACHE`` or ``use_disk_cache=False``
    with no explicit directory — "no caching" means no persistent trace
    artifacts either.  Strict "replay" refuses instead of silently
    executing.
    """
    store: Optional[TraceStore] = None
    cell_mode = "execute"
    if execution != "execute":
        if trace_dir is None and use_disk_cache is False:
            store = None
        else:
            store = resolve_trace_store(trace_dir, cache_dir)
        if store is not None:
            cell_mode = execution
        elif execution == "replay":
            raise ReproError(
                "sweep execution='replay' needs a trace store, but caching "
                "is disabled (REPRO_NO_CACHE or use_disk_cache=False); "
                "pass trace_dir= explicitly"
            )
    return cell_mode, store


class SweepLedger:
    """The single owner of one sweep's bookkeeping.

    Built from a :class:`~repro.core.requests.SweepRequest` (or a
    :class:`~repro.core.requests.SuiteRequest`, a sweep with zero axes
    and no journal), the ledger resolves the spec (engine-folded base
    config, workload names, points, sweep id, per-cell execution mode,
    trace store, result cache), owns the journal, and answers the five
    questions every executor has: what is already known (:meth:`open` —
    journal replay, invalid points, cache hits), what is still live (the
    cells :meth:`open` returns, and their
    :func:`~repro.harness.parallel.trace_groups`), what happens when a
    cell lands (:meth:`accept`, which journals it), when a point is
    journaled (the moment its last cell resolves) and how replay is
    checked (:meth:`verify`).

    Executors are dispatch policies over it: the local loop
    (:func:`execute_sweep_request`, :func:`execute_suite_request`) and
    the distributed :class:`~repro.dist.Coordinator`, which the local
    loop hands its ledger to under ``jobs > 1``.  Not thread-safe; the
    coordinator calls it under its own lock.
    """

    def __init__(self, request: "Union[SweepRequest, SuiteRequest]",
                 progress: Optional[ProgressFn] = None) -> None:
        self.request = request
        self.progress = progress
        base = request.resolved_config()
        names: Tuple[str, ...] = tuple(
            request.workloads if request.workloads is not None
            else [w.name for w in all_workloads()]
        )
        space = build_space(list(request.axes), request.mode)
        self.points: List[SweepPoint] = space.points(base)
        self.cell_mode, self.store = resolve_sweep_execution(
            request.execution, request.use_disk_cache, request.trace_dir,
            request.cache_dir)
        sweep_id = (request.resume if isinstance(request.resume, str) else
                    sweep_fingerprint(base, space.axes, request.mode, names,
                                      request.isas, request.scale,
                                      request.seed))
        use_disk_cache = request.use_disk_cache
        #: None for a suite: it has nothing to read a journal back with,
        #: and its per-cell cache puts are its restart state.
        self.journal: Optional[SweepJournal] = None
        if request.kind == "suite":
            # A traced suite neither reads nor writes the result cache (a
            # cached run has no events); use_cache=False re-simulates
            # unless use_disk_cache explicitly re-enables the disk layer.
            if request.trace is not None or (
                    not request.use_cache and use_disk_cache is None):
                use_disk_cache = False
        else:
            self.journal = SweepJournal(
                request.sweeps_dir or default_sweeps_dir(), sweep_id)
        self.results = SweepResults(
            sweep_id=sweep_id, base=base, axes=space.axes,
            mode=request.mode, workloads=names, isas=request.isas,
            scale=request.scale, seed=request.seed,
            journal_path=str(self.journal.path) if self.journal else None,
            execution=self.cell_mode,
        )
        self.disk: Optional[ResultCache] = resolve_cache(
            use_disk_cache, request.cache_dir)
        self.total = len(self.points) * len(names) * len(request.isas)
        self._index = 0
        self._points_by_id = {p.point_id: p for p in self.points}
        self._done: Dict[str, PointResult] = {}
        self._pending: "Dict[str, Dict[Tuple[str, str], WorkloadRun]]" = {}
        self._remaining: Dict[str, int] = {}
        #: the replayed cell :meth:`verify` re-runs, under its rank (the
        #: lowest so far): a derived cell before a simulated one, so the
        #: guard covers the derivation whenever there was one.  A derived
        #: cell's wall says nothing about what re-executing it costs, so
        #: those rank by instruction count; simulated ones by their wall.
        self._replay_sample: Optional[
            Tuple[Tuple[bool, float, int], Job, WorkloadRun]] = None
        #: per (workload, ISA), the last run journaled, its payload minus
        #: ``wall_seconds`` and ``execution``, and that payload's JSON.
        self._encoded: Dict[Tuple[str, str],
                            Tuple[WorkloadRun, Dict[str, object], str]] = {}

    @property
    def points_done(self) -> int:
        return len(self._done)

    @property
    def done(self) -> bool:
        return len(self._done) == len(self.points)

    def point(self, point_id: str) -> SweepPoint:
        return self._points_by_id[point_id]

    # -- pass 1: what the sweep already knows ----------------------------------

    def open(self) -> List[Job]:
        """Load and (re)open the journal, then resolve what every point
        needs.  Replayed and invalid points complete immediately, cache
        hits pre-complete cells, and the misses — the live cells — come
        back in enumeration order for an executor to run."""
        request = self.request
        res = self.results
        cells, finished = (self.journal.load() if request.resume
                           else ({}, set()))
        if self.journal is not None:
            self.journal.open(
                journal_header(res.sweep_id, res.base, res.axes, res.mode,
                               res.workloads, res.isas, res.scale, res.seed),
                # A resume against an empty, stale, or unreadable journal
                # starts over with a fresh header rather than appending
                # after one that load() will reject next time.
                resume=bool(request.resume) and bool(cells or finished),
            )
        cell_keys = [(w, isa) for w in res.workloads for isa in res.isas]
        # Every cell captures into and replays from the ledger's store,
        # whichever executor runs it.
        trace_dir = (str(self.store.directory) if self.store is not None
                     else request.trace_dir)
        live: List[Job] = []
        for point in self.points:
            pid = point.point_id
            # Only lines journaled under this exact config count; a point
            # replays whole once its line and every cell are there.
            known = cells.get((pid, point.fingerprint()), {})
            if ((pid, point.fingerprint()) in finished
                    and (point.error is not None
                         or all(key in known for key in cell_keys))):
                runs = {key: known[key] for key in cell_keys if key in known}
                for (w, isa), run in sorted(runs.items()):
                    self._emit(pid, w, isa, "journal", run.wall_seconds)
                if point.error is not None and not runs:
                    for w, isa in cell_keys:
                        self._emit(pid, w, isa, "journal", 0.0)
                self._done[pid] = PointResult(point=point, runs=runs,
                                              from_journal=True)
                continue
            if point.error is not None:
                # Invalid geometry: journal as failed, never simulate.
                for w, isa in cell_keys:
                    self._emit(pid, w, isa, "failed", 0.0)
                self._finish_point(point, {})
                continue
            # Keyed up front, so the point's runs come out in workloads x
            # ISAs order whichever cells hit and whenever misses land.
            # An unfinished point's journaled cells pre-complete as cache
            # hits do (a failed one runs again, as it is never cached).
            runs = dict.fromkeys(cell_keys)
            misses: List[Job] = []
            for w, isa in cell_keys:
                journaled = known.get((w, isa))
                if journaled is not None and journaled.error is None:
                    runs[(w, isa)] = journaled
                    self._emit(pid, w, isa, "journal", journaled.wall_seconds)
                    continue
                job = Job(point=pid, request=request.cell(
                    w, isa, config=point.config, execution=self.cell_mode,
                    engine=point.config.engine, trace_dir=trace_dir))
                cached = (self.disk.get(job.fingerprint)
                          if self.disk is not None else None)
                if cached is not None:
                    runs[(w, isa)] = cached
                    self._journal_cell(point, cached)
                    self._emit(pid, w, isa, "hit", cached.wall_seconds)
                else:
                    misses.append(job)
            if not misses:
                self._finish_point(point, runs)
                continue
            self._pending[pid] = runs
            self._remaining[pid] = len(misses)
            live.extend(misses)
        return live

    # -- planning: cuts of the one trace-fingerprint grouping ------------------

    def phases(self, cells: List[Job]) -> "List[List[Job]]":
        """The batches the serial loop runs, one after the other.

        "auto" runs in two phases: first one capture per trace group whose
        trace is missing, then everything else — which now replays, so an
        N-point sweep costs 1 functional execution + N replays per group;
        phase 2 cells still run as "auto", so if a capture failed they
        self-heal by capturing rather than erroring out.
        """
        if self.cell_mode != "auto":
            return [cells]
        captures: List[Job] = []
        rest: List[Job] = []
        for fp, members in trace_groups(cells).items():
            stored = self.store.has(fp)  # type: ignore[union-attr]
            if not stored:
                captures.append(members[0])
            rest.extend(members if stored else members[1:])
        return [captures, rest]

    # -- pass 2: a cell lands ----------------------------------------------------

    def accept(self, job: Job, run: WorkloadRun) -> None:
        """File one finished cell: count it, journal and cache it from one
        payload (a kill loses only the cells in flight), mark its point
        done once its last cell resolves, and emit its progress event."""
        pid = job.point
        point = self.point(pid)
        self._pending[pid][(job.workload, job.isa)] = run
        payload = self._journal_cell(point, run)
        if run.error is None:
            derived = run.execution == "derived"
            if run.execution == "capture":
                self.results.captures += 1
            elif derived or run.execution == "replay":
                self.results.replays += 1
                self.results.derived += derived
                rank = (not derived, 0.0 if derived else run.wall_seconds,
                        run.dynamic_instructions)
                sample = self._replay_sample
                if sample is None or rank < sample[0]:
                    self._replay_sample = (rank, job, run)
            if self.disk is not None:
                self.disk.put(job.fingerprint, payload or run,
                              config_fingerprint=job.config.fingerprint())
        self._remaining[pid] -= 1
        if self._remaining[pid] == 0:
            self._finish_point(point, self._pending.pop(pid))
        self._emit(job.point, job.workload, job.isa,
                   "failed" if run.error else "ok", run.wall_seconds)

    def _emit(self, point_id: str, workload: str, isa: str, status: str,
              wall: float) -> None:
        self._index += 1
        if self.progress is not None:
            self.progress(JobEvent(workload=workload, isa=isa, status=status,
                                   wall_seconds=wall, index=self._index,
                                   total=self.total, point=point_id))

    def _journal_cell(self, point: SweepPoint,
                      run: WorkloadRun) -> "Optional[Dict[str, object]]":
        """Journal one cell's run (flushed, not fsynced: the point line's
        fsync makes it durable) and return its payload.  A run whose
        statistics equal the last one journaled for its workload and ISA
        (a derived replay and its witness) reuses that encoding."""
        if self.journal is None:
            return None
        with span("sweep.journal", kind="cell"):
            last = self._encoded.get((run.workload, run.isa))
            if last is None or replace(last[0], wall_seconds=run.wall_seconds,
                                       execution=run.execution) != run:
                body = run.to_payload()
                del body["wall_seconds"]
                body.pop("execution", None)
                # Keys stay in built order (the digest sorts them), and
                # a payload holds no cycles to check.
                last = self._encoded[(run.workload, run.isa)] = (
                    run, body, json.dumps(body, check_circular=False))
            volatile: "Dict[str, object]" = {"wall_seconds": run.wall_seconds}
            if run.execution != "execute":
                volatile["execution"] = run.execution
            # The run's object is the encoding's members plus these.
            self.journal.append(
                '{"type": "cell", "point": %s, "config": %s, "run": %s, %s}'
                % (json.dumps(point.point_id), json.dumps(point.fingerprint()),
                   last[2][:-1], json.dumps(volatile)[1:]), durable=False)
        return {**last[1], **volatile}

    def _finish_point(self, point: SweepPoint,
                      runs: "Dict[Tuple[str, str], WorkloadRun]") -> None:
        pr = PointResult(point=point, runs=runs)
        self._done[point.point_id] = pr
        if self.journal is not None:  # a status marker: runs are cells
            with span("sweep.journal", kind="point"):
                self.journal.append(json.dumps({
                    "type": "point", "point": point.to_dict(),
                    "status": pr.status, "error": pr.error}), durable=True)

    # -- the end ---------------------------------------------------------------

    def verify(self) -> None:
        """Fidelity guard: re-execute the cheapest replayed cell (a
        derived one when there is one) with full functional semantics
        and compare statistics.  Replay is bit-identical by construction;
        this catches the construction being wrong (stale store contents,
        a semantics change that escaped the source stamp, trace
        corruption past the magic, a derivation across an eviction)."""
        if not self.request.verify_replay or self._replay_sample is None:
            return
        _rank, job, run = self._replay_sample
        self.results.verified_cell = f"{job.point}:{job.workload}/{job.isa}"
        check = run_job_inline(replace(
            job, request=replace(job.request, execution="execute")))
        if _replay_differs(run, check):
            self.results.replay_drift = 1
            warnings.warn(
                f"trace replay drift at {self.results.verified_cell}: "
                "replayed statistics disagree with functional "
                "re-execution; clear the trace store",
                stacklevel=2,
            )

    def close(self) -> SweepResults:
        """Close the journal; the results list every completed point in
        enumeration order."""
        self.results.points = [self._done[p.point_id] for p in self.points
                               if p.point_id in self._done]
        if self.journal is not None:
            self.journal.close()
        return self.results


def execute_sweep_request(
    request: "SweepRequest",
    progress: Optional[ProgressFn] = None,
) -> SweepResults:
    """Run (or resume) one :class:`~repro.core.requests.SweepRequest` —
    THE sweep entry point shared by ``Session.sweep``, the ``repro sweep``
    CLI, and the daemon's ``POST /v1/sweep``: the local dispatch policy
    over a :class:`SweepLedger`.

    :param progress: per-cell :class:`JobEvent` callback; replayed points
        emit one event per cell with status ``"journal"``.  An
        execution-side argument: callables cannot ride the wire.

    Request fields whose meaning is not obvious from their name:

    * ``resume`` — ``True`` resumes the deterministic sweep id for this
      spec, a string resumes that explicit id, ``False`` starts fresh
      (truncating any previous journal for the same spec);
    * ``execution`` — ``"auto"`` (default) captures one trace per
      workload x ISA x functional fingerprint and replays every other
      point; ``"execute"`` never touches the trace store; ``"replay"``
      requires every trace to already exist (a missing one fails that
      cell instead of silently executing);
    * ``trace_dir`` — trace-store directory (default
      ``<cache-dir>/traces``); an explicit directory keeps replay active
      even with ``use_disk_cache=False``, which otherwise disables it;
    * ``engine`` — cycle-engine override for every cell, folded into the
      base config before the sweep id and cache fingerprints are
      computed, so cells run under different engines never share cache
      entries or journals.
    """
    return _dispatch(SweepLedger(request, progress))


def execute_suite_request(
    request: "SuiteRequest",
    progress: Optional[ProgressFn] = None,
) -> SuiteResults:
    """Run one :class:`~repro.core.requests.SuiteRequest` — THE suite
    entry point of ``Session.suite``, ``repro figures`` and ``POST
    /v1/suite`` — as a sweep with zero axes: one ``base`` point, no
    journal, no drift guard.  Cells are cached as they land, so a killed
    suite's rerun reports its finished cells as ``hit``; failed cells
    are never cached, so a rerun retries them."""
    (base,) = _dispatch(SweepLedger(request, progress)).points
    return base.suite(request.scale)


def _dispatch(ledger: SweepLedger) -> SweepResults:
    """The local dispatch policy over a ledger.  With more than one
    worker and live cell in play, that many workers forked from this
    process lease the live cells from an in-process coordinator over
    the ledger (:class:`~repro.dist.DistSweep`, which runs the drift
    guard).  Otherwise the cells run here phase by phase — each in a
    forked child when the request has a job timeout — then the guard."""
    request = ledger.request
    timeout = request.job_timeout
    try:
        live = ledger.open()
        workers = min(resolve_jobs(request.jobs), len(live))
        if workers > 1:
            from ..dist.coordinator import DistSweep

            DistSweep(ledger, live=live, workers=workers).start().wait()
        else:
            for batch in ledger.phases(live):
                for job in batch:
                    ledger.accept(job, run_job_inline(job)
                                  if timeout is None
                                  else run_cell(job.request, timeout=timeout))
            ledger.verify()
    finally:
        ledger.close()
    return ledger.results


def _replay_differs(replayed: WorkloadRun, executed: "object") -> bool:
    """True when a replayed run's results diverge from re-execution."""
    if getattr(executed, "error", None):
        return True
    return not (
        replayed.verified == executed.verified  # type: ignore[attr-defined]
        and replayed.total.to_payload() == executed.total.to_payload()  # type: ignore[attr-defined]
        and [s.to_payload() for s in replayed.per_dispatch]
        == [s.to_payload() for s in executed.per_dispatch]  # type: ignore[attr-defined]
        and replayed.data_footprint_bytes
        == executed.data_footprint_bytes  # type: ignore[attr-defined]
    )
