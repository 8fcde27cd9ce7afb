"""Process-pool fan-out for the (workload x ISA) simulation matrix.

The matrix is embarrassingly parallel — every (workload, ISA, scale, seed)
cell simulates independently — so :func:`run_jobs` spreads cells across a
:class:`~concurrent.futures.ProcessPoolExecutor` and reduces the results
back into a deterministic, submission-ordered mapping that is
stat-identical to running the same cells serially.  Its one matrix caller
is the sweep ledger's dispatch loop (:mod:`repro.explore.sweep`).

Failure policy (a worker must never take the suite down with it):

* a worker that *raises* surfaces as a marked-failed :class:`WorkloadRun`
  carrying the exception message;
* a worker that exceeds the per-job timeout is recorded as failed with a
  timeout message and its pool process is terminated at shutdown so the
  suite cannot hang on it;
* a worker that *dies* (crash, ``os._exit``, OOM-kill) breaks the pool for
  every job still in flight; those jobs are retried inline in the parent
  process, and only jobs that fail again stay failed.

Results cross the process boundary as the same JSON-friendly payloads the
on-disk cache stores (:meth:`WorkloadRun.to_payload`), keeping transport,
persistence, and the golden-stats format identical.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..common.config import GpuConfig
from ..core.requests import RunRequest
from ..obs.host import span
from ..obs.trace import TraceConfig
from .cache import job_fingerprint

T = TypeVar("T")


@dataclass(frozen=True)
class Job:
    """One cell of the simulation matrix.

    Since the request-object redesign a job *is* a serializable
    :class:`~repro.core.requests.RunRequest` plus pool bookkeeping: the
    request rides across the process boundary (frozen, picklable) and is
    the exact same object the CLI, ``Session``, and the ``repro serve``
    daemon execute — one schema, one code path.
    """

    request: RunRequest
    #: sweep-point tag (``base`` for a suite's one point), so cells of
    #: *different* configs for the same (workload, isa) never collide in
    #: the result mapping.  Empty for a lone cell (:func:`run_cell`).
    point: str = ""

    # -- request field views (the request is the source of truth) -------------

    @property
    def workload(self) -> str:
        return self.request.workload

    @property
    def isa(self) -> str:
        return self.request.isa

    @property
    def scale(self) -> float:
        return self.request.scale

    @property
    def seed(self) -> int:
        return self.request.seed

    @property
    def config(self) -> GpuConfig:
        return self.request.config

    @property
    def trace(self) -> Optional[TraceConfig]:
        return self.request.trace

    @property
    def execution(self) -> str:
        return self.request.execution

    @property
    def trace_dir(self) -> Optional[str]:
        return self.request.trace_dir

    @property
    def engine(self) -> str:
        return self.request.engine

    @property
    def key(self) -> "Tuple[str, ...]":
        if self.point:
            return (self.point, self.workload, self.isa)
        return (self.workload, self.isa)

    @property
    def fingerprint(self) -> str:
        """This cell's key in the persistent result cache."""
        return job_fingerprint(self.config, self.workload, self.isa,
                               self.scale, self.seed)

    def describe(self) -> str:
        prefix = f"[{self.point}] " if self.point else ""
        return f"{prefix}{self.request.describe()}"


@dataclass(frozen=True)
class JobEvent:
    """One structured progress line for a finished (or skipped) job."""

    workload: str
    isa: str
    status: str          # "hit" | "ok" | "failed" | "timeout" | "journal"
    wall_seconds: float
    index: int           # 1-based position in the suite
    total: int
    #: sweep-point id (``base`` for a suite); empty for a lone cell.
    point: str = ""

    def format(self) -> str:
        where = (f"{self.point}:{self.workload}/{self.isa}" if self.point
                 else f"{self.workload}/{self.isa}")
        return (
            f"[{self.index}/{self.total}] {where} "
            f"{self.status} {self.wall_seconds:.2f}s"
        )


ProgressFn = Callable[[JobEvent], None]

#: called with (job, run) as each result lands, in submission order —
#: the sweep journal appends a point the moment its last cell resolves.
ResultFn = Callable[[Job, object], None]


def execute_job(job: Job) -> "Dict[str, object]":
    """Worker entry point: simulate one job, return its payload.

    Must stay a module-level function so the pool can pickle it; imports
    lazily to keep worker start-up (and the parallel<->runner import
    cycle) cheap.  Executes the job's request through the same
    :func:`~repro.harness.runner.execute_run_request` path as every
    other surface.
    """
    from .runner import execute_run_request

    return execute_run_request(job.request).to_payload()


def _failed_run(job: Job, message: str, wall: float) -> "object":
    from .runner import WorkloadRun

    return WorkloadRun.failure(job.workload, job.isa, message, wall)


def run_job_inline(
    job: Job, execute: Optional[Callable[[Job], "Dict[str, object]"]] = None
) -> "object":
    """Run one job in this process with the same failure capture as a
    worker: an exception becomes a marked-failed run, never a raise.
    Without a custom ``execute`` the run never leaves the process, so it
    is handed over as it is rather than through the (lossless) payload
    encoding a worker's result crosses back in."""
    from .runner import WorkloadRun, execute_run_request

    start = time.monotonic()
    try:
        if execute is None:
            return execute_run_request(job.request)
        return WorkloadRun.from_payload(execute(job))
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return _failed_run(
            job, f"{type(exc).__name__}: {exc}", time.monotonic() - start
        )


def trace_key(request: RunRequest) -> str:
    """The functional-trace fingerprint of one cell: cells with equal
    keys share a dynamic instruction stream, so one capture serves them
    all.  Sweep phases, dist shards and the daemon's batches group on it."""
    from .cache import trace_fingerprint

    return trace_fingerprint(request.resolved_config(), request.workload,
                             request.isa, request.scale, request.seed)


def trace_groups(items: Sequence[T]) -> "Dict[str, List[T]]":
    """``items`` (anything with a ``.request`` cell: a :class:`Job`, a
    daemon's queued job) keyed by :func:`trace_key`, groups and members
    in first-seen order.  A group shares one dynamic instruction stream:
    sweep phases, dist shards and the daemon's batches are all cuts of
    this one grouping."""
    groups: "Dict[str, List[T]]" = {}
    for item in items:
        groups.setdefault(trace_key(item.request), []).append(item)
    return groups


def run_cell(request: RunRequest, trace_store: "Optional[object]" = None,
             timeout: Optional[float] = None) -> "object":
    """Run one cell for a resident caller (the serve scheduler, a dist
    worker) against its shared ``trace_store``.  With ``timeout`` set the
    cell rides a one-worker pool instead, whose terminate-on-overrun
    machinery turns a wedged simulation into a marked-failed run."""
    if timeout is not None:
        job = Job(request=request)
        return run_jobs([job], max_workers=1, timeout=timeout)[job.key]
    from .runner import execute_run_request

    return execute_run_request(request, trace_store=trace_store)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a job-count request: None/0/negative mean 'all cores'.

    'All cores' respects CPU affinity (cgroup/taskset limits) where the
    platform exposes it, falling back to the raw core count.
    """
    if jobs is None or jobs <= 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # macOS/Windows
            return max(1, os.cpu_count() or 1)
    return jobs


def run_jobs(
    jobs: Sequence[Job],
    max_workers: int,
    timeout: Optional[float] = None,
    execute: Optional[Callable[[Job], "Dict[str, object]"]] = None,
    progress: Optional[ProgressFn] = None,
    on_result: Optional[ResultFn] = None,
) -> "Dict[Tuple[str, ...], object]":
    """Fan ``jobs`` out over ``max_workers`` processes.

    Returns ``{job.key: WorkloadRun}`` with keys inserted in submission
    order regardless of completion order, so downstream consumers observe
    exactly the ordering the serial path produces.  ``on_result`` fires
    per job as its result lands (also in submission order), before the
    corresponding ``progress`` event.
    """
    from .runner import WorkloadRun

    execute = execute or execute_job
    results: "Dict[Tuple[str, ...], object]" = {}
    if not jobs:
        return results

    max_workers = min(max_workers, len(jobs))
    pool = ProcessPoolExecutor(max_workers=max_workers)
    timed_out = False
    pool_broken = False
    try:
        futures = []
        submitting = True
        for job in jobs:
            future = None
            if submitting:
                try:
                    future = pool.submit(execute, job)
                except BrokenProcessPool:
                    # A worker died while we were still submitting; the
                    # unsubmitted tail finishes in-process below.
                    submitting = False
            futures.append((job, future))
        for index, (job, future) in enumerate(futures):
            start = time.monotonic()
            status = "ok"
            if future is None or pool_broken:
                # The pool died under us; finish the tail in-process.
                run = run_job_inline(job, execute)
                status = "failed" if getattr(run, "error", None) else "ok"
            else:
                try:
                    with span("pool.ipc"):
                        run = WorkloadRun.from_payload(
                            future.result(timeout=timeout))
                except FuturesTimeoutError:
                    future.cancel()
                    timed_out = True
                    status = "timeout"
                    run = _failed_run(
                        job,
                        f"timed out after {timeout:g}s",
                        time.monotonic() - start,
                    )
                except BrokenProcessPool as exc:
                    pool_broken = True
                    run = run_job_inline(job, execute)
                    if getattr(run, "error", None):
                        run.error = (
                            f"worker process died ({exc}); inline retry "
                            f"failed: {run.error}"
                        )
                        status = "failed"
                except Exception as exc:  # raised inside the worker
                    status = "failed"
                    run = _failed_run(
                        job,
                        f"{type(exc).__name__}: {exc}",
                        time.monotonic() - start,
                    )
            results[job.key] = run
            if on_result is not None:
                on_result(job, run)
            if progress is not None:
                progress(JobEvent(
                    workload=job.workload,
                    isa=job.isa,
                    status=status,
                    wall_seconds=getattr(run, "wall_seconds", 0.0),
                    index=index + 1,
                    total=len(jobs),
                    point=job.point,
                ))
    finally:
        if timed_out:
            # A stuck worker would make a graceful shutdown wait forever;
            # cancel what never started and terminate what never finished.
            processes = list(getattr(pool, "_processes", {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    return results
