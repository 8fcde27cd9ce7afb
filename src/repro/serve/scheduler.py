"""The daemon's multi-tenant batching scheduler.

Synchronous and socket-free on purpose: :class:`Scheduler` owns a
priority queue of accepted jobs, a per-client token-bucket rate
limiter, the shared process-wide hot state (one
:class:`~repro.harness.cache.TraceStore` every run cell executes
against), and the drain protocol.  The HTTP daemon is a thin shell that
calls :meth:`Scheduler.submit` / :meth:`Scheduler.get` /
:meth:`Scheduler.metrics`; tests drive the same methods directly and
pump execution with :meth:`Scheduler.run_pending`.

Batched scheduling
------------------

When the worker picks the next job, it drains *every other queued run
cell in its trace group* into one batch
(:func:`~repro.harness.parallel.trace_groups`, the grouping sweeps phase
on and dist shards cut; its key folds in only the functional config
half, so timing-only variants collide — that is the point).  Cells in a
batch execute back to back against the shared store: the first one
captures the functional trace, all the others replay it through the
timing model.  M queued cells over K functional
groups therefore cost exactly K functional executions, which is where
the warm-daemon latency win comes from.

Run cells execute through :func:`repro.harness.parallel.run_cell`, the
same call a dist worker makes; with ``job_timeout`` set each runs in a
forked child that is killed on overrun, so a wedged cell comes back as
a marked-failed run instead of wedging the daemon.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..common.errors import ReproError
from ..core.requests import AnyRequest, RunRequest, SuiteRequest, SweepRequest
from .protocol import JobStatus, MetricsSnapshot


class SchedulerError(ReproError):
    """Base for scheduler-side submission failures."""

    #: HTTP status the daemon maps this failure to.
    status = 500


class RateLimited(SchedulerError):
    """Client exceeded its token bucket (HTTP 429)."""

    status = 429

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QueueFull(SchedulerError):
    """The bounded queue is at capacity (HTTP 503)."""

    status = 503


class Draining(SchedulerError):
    """The daemon is shutting down and rejects new work (HTTP 503)."""

    status = 503


class UnknownJob(SchedulerError):
    """No job with that id (HTTP 404)."""

    status = 404


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``clock`` is injectable so tests advance time deterministically.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._last = clock()

    def try_take(self) -> bool:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def full(self, now: float) -> bool:
        """Refilled to ``burst`` at ``now``: from here on it acts exactly
        like a fresh bucket."""
        return self._tokens + (now - self._last) * self.rate >= self.burst

    def retry_after(self) -> float:
        """Seconds until one token is available (0 when rate is 0)."""
        if self.rate <= 0:
            return 0.0
        return max(0.0, (1.0 - self._tokens) / self.rate)


@dataclass
class ServerJob:
    """One accepted request plus its lifecycle state (scheduler-private
    mutable record; the wire view is :meth:`status`)."""

    job_id: str
    request: AnyRequest
    client: str = ""
    priority: int = 0
    seq: int = 0
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    queue_seconds: Optional[float] = None
    wall_seconds: Optional[float] = None
    progress: List[str] = field(default_factory=list)
    execution: str = ""
    batch_id: str = ""
    batch_size: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, object]] = None

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            request_kind=self.request.kind,
            state=self.state,
            detail=self.request.describe(),
            client=self.client,
            priority=self.priority,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            queue_seconds=self.queue_seconds,
            wall_seconds=self.wall_seconds,
            progress=tuple(self.progress),
            execution=self.execution,
            batch_id=self.batch_id,
            batch_size=self.batch_size,
            error=self.error,
            result=self.result,
        )


class Scheduler:
    """Priority queue + batcher + rate limiter + drain; see module doc.

    ``wall_clock`` stamps job timestamps (defaults to ``time.time``);
    ``clock`` is the monotonic clock the rate limiter and wall buckets
    use.  Both are injectable for deterministic tests.
    """

    def __init__(self, *,
                 trace_dir: Optional[str] = None,
                 cache_dir: Optional[str] = None,
                 job_timeout: Optional[float] = None,
                 rate_limit: float = 0.0,
                 rate_burst: float = 10.0,
                 max_queue: int = 256,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time,
                 log: Optional[Callable[[str], None]] = None) -> None:
        from ..harness.cache import resolve_trace_store

        self.trace_dir = trace_dir
        self.cache_dir = cache_dir
        self.job_timeout = job_timeout
        self.rate_limit = rate_limit
        self.rate_burst = rate_burst
        self.max_queue = max_queue
        self._clock = clock
        self._wall_clock = wall_clock
        self._log = log or (lambda message: None)
        #: The one shared trace store every run cell executes against —
        #: the process-wide hot state batching exists to exploit.  None
        #: when caching is disabled and no ``trace_dir`` was given: cells
        #: then execute, as ``resolve_trace_store`` degrades them.
        self.store = resolve_trace_store(trace_dir, cache_dir)

        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._heap: List[tuple] = []   # (-priority, seq, ServerJob)
        self._jobs: Dict[str, ServerJob] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._swept = clock()
        self._seq = itertools.count(1)
        self._batch_seq = itertools.count(1)
        self._draining = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        self._started_at = clock()

        # counters (under self._lock)
        self._running = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rate_limited = 0
        self._rejected = 0
        self._timeouts = 0
        self._captures = 0
        self._replays = 0
        self._executes = 0
        self._batches = 0
        self._max_batch = 0
        self._wall_queued = 0.0
        self._wall_by_kind = {"run": 0.0, "suite": 0.0, "sweep": 0.0}

    # -- submission ------------------------------------------------------------

    def _normalize(self, request: AnyRequest) -> AnyRequest:
        """Pin the daemon's shared store/cache dirs onto requests that
        left them defaulted, so every execution path (a batched run
        cell, a suite or sweep and its workers) resolves the same
        directories."""
        updates: Dict[str, object] = {}
        if self.trace_dir is not None and request.trace_dir is None:
            updates["trace_dir"] = self.trace_dir
        if (self.cache_dir is not None
                and getattr(request, "cache_dir", "absent") is None):
            updates["cache_dir"] = self.cache_dir
        return replace(request, **updates) if updates else request

    def submit(self, request: AnyRequest, *, client: str = "",
               priority: int = 0) -> ServerJob:
        """Accept one request onto the queue (raises
        :class:`Draining` / :class:`RateLimited` / :class:`QueueFull`)."""
        request = self._normalize(request)
        with self._wake:
            if self._draining:
                self._rejected += 1
                raise Draining("daemon is draining; not accepting new jobs")
            if self.rate_limit > 0:
                self._forget_full_buckets()
                bucket = self._buckets.get(client)
                if bucket is None:
                    bucket = TokenBucket(self.rate_limit, self.rate_burst,
                                         self._clock)
                    self._buckets[client] = bucket
                if not bucket.try_take():
                    self._rate_limited += 1
                    raise RateLimited(
                        f"client {client or '<anonymous>'} exceeded "
                        f"{self.rate_limit:g} requests/s",
                        retry_after=bucket.retry_after(),
                    )
            if len(self._heap) >= self.max_queue:
                self._rejected += 1
                raise QueueFull(
                    f"queue is full ({self.max_queue} jobs); retry later"
                )
            seq = next(self._seq)
            job = ServerJob(
                job_id=f"j{seq:06d}",
                request=request,
                client=client,
                priority=priority,
                seq=seq,
                submitted_at=self._wall_clock(),
            )
            job._queued_at = self._clock()  # type: ignore[attr-defined]
            self._jobs[job.job_id] = job
            heapq.heappush(self._heap, (-priority, seq, job))
            self._submitted += 1
            self._wake.notify_all()
        self._log(f"queued {job.job_id}: {request.describe()}")
        return job

    def _forget_full_buckets(self) -> None:
        """Drop every bucket that has refilled to ``burst`` (the client's
        next submit creates an identical fresh one), so clients that
        rotate ``X-Repro-Client`` cannot grow the table without bound.
        Swept at most once per refill time, so each bucket is looked at
        once per ``burst / rate`` seconds."""
        now = self._clock()
        if now - self._swept < self.rate_burst / self.rate_limit:
            return
        self._swept = now
        self._buckets = {client: bucket
                         for client, bucket in self._buckets.items()
                         if not bucket.full(now)}

    def get(self, job_id: str) -> ServerJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no job {job_id!r}")
        return job

    def jobs(self) -> List[ServerJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    # -- batching --------------------------------------------------------------

    def _batchable(self, request: AnyRequest) -> bool:
        """Only store-mediated run cells batch: an ``execute`` cell never
        touches the store, and suite/sweep requests batch internally."""
        return (isinstance(request, RunRequest)
                and request.execution in ("auto", "capture", "replay"))

    def _pop_batch(self) -> List[ServerJob]:
        """Pop the highest-priority job plus every queued run cell in its
        trace group (:func:`~repro.harness.parallel.trace_groups`),
        regardless of priority — a shared capture is worth more than
        strict ordering within the group; the rest run in ``seq`` order."""
        from ..harness.parallel import trace_groups

        with self._lock:
            if not self._heap:
                return []
            _, _, head = heapq.heappop(self._heap)
            batch = [head]
            if self._batchable(head.request):
                queued = [entry[2] for entry in self._heap
                          if self._batchable(entry[2].request)]
                # The head is seen first, so its group comes first.
                batch = next(iter(trace_groups([head, *queued]).values()))
                if len(batch) > 1:
                    taken = {job.seq for job in batch}
                    self._heap = [entry for entry in self._heap
                                  if entry[1] not in taken]
                    heapq.heapify(self._heap)
                    batch[1:] = sorted(batch[1:], key=lambda j: j.seq)
            batch_id = f"b{next(self._batch_seq):04d}"
            for job in batch:
                job.batch_id = batch_id
                job.batch_size = len(batch)
            self._batches += 1
            self._max_batch = max(self._max_batch, len(batch))
        return batch

    # -- execution -------------------------------------------------------------

    def _execute_run(self, job: ServerJob) -> None:
        from ..harness.parallel import run_cell

        run = run_cell(job.request, trace_store=self.store,  # type: ignore[arg-type]
                       timeout=self.job_timeout)
        job.result = run.to_payload()
        job.execution = getattr(run, "execution", "execute")
        error = getattr(run, "error", None)
        if error:
            job.error = str(error)
        with self._lock:
            if job.execution == "capture":
                self._captures += 1
            elif job.execution in ("replay", "derived"):
                self._replays += 1
            else:
                self._executes += 1
            if error and "timed out" in str(error):
                self._timeouts += 1

    def _execute_suite(self, job: ServerJob) -> None:
        request: SuiteRequest = job.request  # type: ignore[assignment]
        results = request.execute(
            progress=lambda event: job.progress.append(event.format()))
        job.result = json.loads(results.to_json())
        failures = results.failures()
        if failures:
            job.error = "; ".join(
                f"{workload}/{isa}: {error}"
                for workload, isa, error in failures)

    def _execute_sweep(self, job: ServerJob) -> None:
        request: SweepRequest = job.request  # type: ignore[assignment]
        results = request.execute(
            progress=lambda event: job.progress.append(event.format()))
        job.result = json.loads(results.to_json())
        problems = []
        if results.failed_points:
            problems.append(f"{len(results.failed_points)} failed point(s)")
        if results.replay_drift:
            problems.append("replay drift")
        if problems:
            job.error = "; ".join(problems)

    def _execute_one(self, job: ServerJob) -> None:
        start = self._clock()
        with self._lock:
            job.state = "running"
            job.started_at = self._wall_clock()
            queued_at = getattr(job, "_queued_at", start)
            job.queue_seconds = max(0.0, start - queued_at)
            self._wall_queued += job.queue_seconds
            self._running += 1
        try:
            if isinstance(job.request, RunRequest):
                self._execute_run(job)
            elif isinstance(job.request, SuiteRequest):
                self._execute_suite(job)
            elif isinstance(job.request, SweepRequest):
                self._execute_sweep(job)
            else:  # pragma: no cover - parse_request can't produce this
                raise SchedulerError(
                    f"unexecutable request type {type(job.request).__name__}")
        except Exception as exc:  # noqa: BLE001 - jobs never kill the daemon
            job.error = f"{type(exc).__name__}: {exc}"
        wall = self._clock() - start
        with self._wake:
            job.wall_seconds = wall
            job.finished_at = self._wall_clock()
            job.state = "failed" if job.error else "done"
            self._running -= 1
            self._wall_by_kind[job.request.kind] = (
                self._wall_by_kind.get(job.request.kind, 0.0) + wall)
            if job.error:
                self._failed += 1
            else:
                self._completed += 1
            self._idle.notify_all()
        self._log(f"{job.state} {job.job_id} "
                  f"[{job.execution or job.request.kind}] "
                  f"{wall:.2f}s: {job.request.describe()}")

    def run_pending(self) -> int:
        """Drain one batch synchronously; returns how many jobs ran
        (0 = queue empty).  The worker thread loops this; tests call it
        directly."""
        batch = self._pop_batch()
        if len(batch) > 1:
            self._log(f"batch {batch[0].batch_id}: {len(batch)} cells share "
                      f"one functional trace")
        for job in batch:
            self._execute_one(job)
        return len(batch)

    def run_until_idle(self) -> int:
        total = 0
        while True:
            ran = self.run_pending()
            if not ran:
                return total
            total += ran

    # -- worker thread + drain -------------------------------------------------

    def start(self) -> None:
        """Start the background worker that drains the queue."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._worker,
                                        name="repro-serve-worker",
                                        daemon=True)
        self._thread.start()

    def _worker(self) -> None:
        while True:
            with self._wake:
                while not self._heap and not self._stopped:
                    self._wake.wait(timeout=0.5)
                if self._stopped and not self._heap:
                    return
            self.run_pending()

    def drain(self, wait: bool = True, timeout: Optional[float] = None) -> bool:
        """Stop accepting new jobs; optionally wait for everything
        already accepted (queued + running) to finish.  Returns True
        when the queue fully drained."""
        deadline = (self._clock() + timeout) if timeout is not None else None
        with self._idle:
            self._draining = True
            self._wake.notify_all()
            if not wait:
                return not self._heap and self._running == 0
            while self._heap or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                if self._thread is None:
                    # No worker: pump the queue ourselves (test mode).
                    self._idle.release()
                    try:
                        self.run_pending()
                    finally:
                        self._idle.acquire()
                else:
                    self._idle.wait(timeout=min(remaining or 0.5, 0.5))
            return True

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Drain, then shut the worker thread down."""
        drained = self.drain(wait=True, timeout=timeout)
        with self._wake:
            self._stopped = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return drained

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        store = self.store
        with self._lock:
            mediated = self._captures + self._replays
            return MetricsSnapshot(
                uptime_seconds=self._clock() - self._started_at,
                queue_depth=len(self._heap),
                running=self._running,
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                rate_limited=self._rate_limited,
                rejected=self._rejected,
                timeouts=self._timeouts,
                captures=self._captures,
                replays=self._replays,
                executes=self._executes,
                batches=self._batches,
                max_batch=self._max_batch,
                replay_share=(self._replays / mediated) if mediated else 0.0,
                trace_hits=store.hits if store is not None else 0,
                trace_misses=store.misses if store is not None else 0,
                wall_queued_seconds=self._wall_queued,
                wall_run_seconds=self._wall_by_kind.get("run", 0.0),
                wall_suite_seconds=self._wall_by_kind.get("suite", 0.0),
                wall_sweep_seconds=self._wall_by_kind.get("sweep", 0.0),
                draining=self._draining,
            )


__all__ = [
    "Draining",
    "QueueFull",
    "RateLimited",
    "Scheduler",
    "SchedulerError",
    "ServerJob",
    "TokenBucket",
    "UnknownJob",
]
