"""Experiment runner: execute (workload x ISA) pairs and collect results.

One :class:`WorkloadRun` captures everything the paper's figures need for
one workload under one ISA: aggregate and per-dispatch statistics, the
static instruction footprint, the device data footprint, and functional
verification.  :meth:`repro.core.Session.suite` runs the full matrix
once (via :func:`execute_suite_request` here), caches it
in-process *and* persistently on disk (see :mod:`repro.harness.cache`),
and can fan the matrix out across worker processes (``jobs=N``, see
:mod:`repro.harness.parallel`) — the parallel path reduces back into the
exact ordering and statistics the serial path produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common.config import GpuConfig, paper_config
from ..common.errors import ReproError
from ..common.stats import StatSet, merge_all
from ..core.requests import (  # re-exported: canonical home is requests
    EXECUTION_MODES,
    ISAS,
    RunRequest,
    SuiteRequest,
)
from ..obs.trace import TraceBus, TraceConfig, TraceData
from ..runtime.process import GpuProcess
from ..timing.gpu import Gpu
from ..timing.replay import ExecTrace, TraceRecorder
from ..workloads import all_workloads, create
from .cache import (
    ResultCache,
    TraceStore,
    resolve_cache,
    resolve_trace_store,
    trace_fingerprint,
)
from .equivalence import derive, file_witness
from .parallel import Job, JobEvent, ProgressFn, resolve_jobs, run_job_inline, run_jobs


@dataclass
class WorkloadRun:
    """Results of one workload under one ISA."""

    workload: str
    isa: str
    verified: bool
    total: StatSet
    per_dispatch: List[StatSet]
    #: kernel name of each dispatch, index-aligned with ``per_dispatch``
    dispatch_kernel_names: List[str]
    data_footprint_bytes: int
    instr_footprint_bytes: int
    static_instructions: int
    kernel_code_bytes: Dict[str, int]
    wall_seconds: float
    #: set when the run failed (worker raised, timed out, or crashed);
    #: a failed run has empty statistics and ``verified=False``.
    error: Optional[str] = None
    #: cycle-level event trace; only present when the run was requested
    #: with a :class:`repro.obs.TraceConfig`.
    trace: Optional[TraceData] = None
    #: how this run's instruction stream was obtained — "execute",
    #: "capture" (executed, and the trace stored), "replay" (a stored
    #: trace simulated), or "derived" (a stored trace's replay answered
    #: from an eviction-free witness instead of simulated).
    execution: str = "execute"

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def cycles(self) -> int:
        return self.total.cycles

    @property
    def dynamic_instructions(self) -> int:
        return self.total.dynamic_instructions

    def stat(self, name: str) -> float:
        """Value of one named metric from the aggregate statistics.

        A metric the registry knows but this run never incremented (e.g.
        ``ib_flushes`` on a flush-free workload) reads as 0.0; a name the
        registry does *not* know raises ``KeyError`` with close-match
        suggestions, instead of silently returning 0.0 for a typo.
        """
        snapshot = self.total.snapshot()
        if name in snapshot:
            return float(snapshot[name])
        from ..obs.metrics import METRICS

        if METRICS.find(name) is not None:
            return 0.0
        suggestions = METRICS.suggest(name)
        hint = f"; did you mean {', '.join(suggestions)}?" if suggestions else ""
        raise KeyError(f"unknown metric {name!r}{hint}")

    def per_kernel_totals(self) -> "Dict[str, StatSet]":
        """Per-dispatch statistics aggregated by kernel name (the paper's
        per-kernel view of multi-kernel workloads like LULESH)."""
        out: Dict[str, StatSet] = {}
        for name, stats in zip(self.dispatch_kernel_names, self.per_dispatch):
            out.setdefault(name, StatSet()).merge(stats)
        return out

    def to_dict(self) -> "Dict[str, object]":
        """A JSON-friendly summary of this run."""
        return {
            "workload": self.workload,
            "isa": self.isa,
            "verified": self.verified,
            "stats": dict(self.total.snapshot()),
            "data_footprint_bytes": self.data_footprint_bytes,
            "instr_footprint_bytes": self.instr_footprint_bytes,
            "static_instructions": self.static_instructions,
            "kernel_code_bytes": dict(self.kernel_code_bytes),
            "dispatches": len(self.per_dispatch),
            "wall_seconds": round(self.wall_seconds, 3),
            "error": self.error,
            **({"execution": self.execution} if self.execution != "execute" else {}),
        }

    def to_payload(self) -> "Dict[str, object]":
        """A *lossless* JSON encoding (inverse of :meth:`from_payload`).

        Unlike :meth:`to_dict` (a flattened display summary), the payload
        round-trips every per-dispatch StatSet exactly; it is the format
        the on-disk result cache stores and worker processes return.
        """
        payload: "Dict[str, object]" = {
            "workload": self.workload,
            "isa": self.isa,
            "verified": self.verified,
            "total": self.total.to_payload(),
            "per_dispatch": [s.to_payload() for s in self.per_dispatch],
            "dispatch_kernel_names": list(self.dispatch_kernel_names),
            "data_footprint_bytes": self.data_footprint_bytes,
            "instr_footprint_bytes": self.instr_footprint_bytes,
            "static_instructions": self.static_instructions,
            "kernel_code_bytes": dict(self.kernel_code_bytes),
            "wall_seconds": self.wall_seconds,
            "error": self.error,
        }
        # Untraced payloads must stay byte-identical to the pre-trace
        # format (the golden-stats files and disk cache depend on it);
        # same rule for plain executed runs and the execution key.
        if self.trace is not None:
            payload["trace"] = self.trace.to_payload()
        if self.execution != "execute":
            payload["execution"] = self.execution
        return payload

    @classmethod
    def from_payload(cls, payload: "Dict[str, object]") -> "WorkloadRun":
        return cls(
            workload=str(payload["workload"]),
            isa=str(payload["isa"]),
            verified=bool(payload["verified"]),
            total=StatSet.from_payload(payload["total"]),  # type: ignore[arg-type]
            per_dispatch=[
                StatSet.from_payload(p)  # type: ignore[arg-type]
                for p in payload["per_dispatch"]  # type: ignore[union-attr]
            ],
            dispatch_kernel_names=[str(n) for n in payload["dispatch_kernel_names"]],  # type: ignore[union-attr]
            data_footprint_bytes=int(payload["data_footprint_bytes"]),  # type: ignore[arg-type]
            instr_footprint_bytes=int(payload["instr_footprint_bytes"]),  # type: ignore[arg-type]
            static_instructions=int(payload["static_instructions"]),  # type: ignore[arg-type]
            kernel_code_bytes={
                str(k): int(v)
                for k, v in payload["kernel_code_bytes"].items()  # type: ignore[union-attr]
            },
            wall_seconds=float(payload["wall_seconds"]),  # type: ignore[arg-type]
            error=payload.get("error"),  # type: ignore[arg-type]
            trace=(
                TraceData.from_payload(payload["trace"])  # type: ignore[arg-type]
                if payload.get("trace") is not None
                else None
            ),
            execution=str(payload.get("execution", "execute")),
        )


@dataclass
class SuiteResults:
    """The full (workload x ISA) result matrix."""

    scale: float
    runs: Dict[Tuple[str, str], WorkloadRun] = field(default_factory=dict)

    def get(self, workload: str, isa: str) -> WorkloadRun:
        return self.runs[(workload, isa)]

    def pair(self, workload: str) -> Tuple[WorkloadRun, WorkloadRun]:
        """(hsail, gcn3) runs for one workload."""
        return self.get(workload, "hsail"), self.get(workload, "gcn3")

    @property
    def workloads(self) -> List[str]:
        return sorted({w for (w, _isa) in self.runs})

    def all_verified(self) -> bool:
        return all(r.verified for r in self.runs.values())

    def failures(self) -> "List[Tuple[str, str, str]]":
        """(workload, isa, error) for every run that failed outright."""
        return [
            (w, isa, run.error)
            for (w, isa), run in sorted(self.runs.items())
            if run.error
        ]

    def to_json(self, indent: int = 2) -> str:
        """Serialize the whole matrix (for downstream analysis tools)."""
        import json

        payload = {
            "scale": self.scale,
            "runs": [run.to_dict() for _key, run in sorted(self.runs.items())],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def run_workload(
    name: str,
    isa: str,
    scale: float = 1.0,
    config: Optional[GpuConfig] = None,
    seed: int = 7,
    trace: Optional[TraceConfig] = None,
    execution: str = "execute",
    trace_store: Optional[TraceStore] = None,
) -> WorkloadRun:
    """Simulate one workload under one ISA and collect all statistics.

    With ``trace`` set, a :class:`~repro.obs.TraceBus` rides along with
    the GPU and the returned run carries the recorded
    :class:`~repro.obs.TraceData`.

    ``execution`` selects one of :data:`EXECUTION_MODES`.  Every mode
    drives the timing model from a recorded instruction stream:
    ``execute`` records one in memory (the GPU's functional pass) and
    drops it, ``capture`` also files it in ``trace_store``, and
    ``replay`` reads the stored one instead — statistically bit-identical
    and considerably faster, because functional execution, register
    uniqueness probes, and result verification are all skipped (the
    verification verdict and footprint metadata travel inside the trace).
    ``auto`` replays when a trace exists and captures otherwise; without
    a ``trace_store`` a capture runs, and is labelled, as ``execute``.  A
    replay that :func:`~repro.harness.equivalence.derive` answers from a
    filed witness returns ``execution="derived"``.
    """
    if execution not in EXECUTION_MODES:
        raise ReproError(
            f"unknown execution mode {execution!r}; expected one of {EXECUTION_MODES}"
        )
    config = config or paper_config()

    mode = execution
    exec_trace: Optional[ExecTrace] = None
    fingerprint: Optional[str] = None
    if mode != "execute" and trace_store is not None:
        fingerprint = trace_fingerprint(config, name, isa, scale, seed)
    if mode in ("auto", "replay"):
        if fingerprint is not None:
            exec_trace = trace_store.get(fingerprint)  # type: ignore[union-attr]
        if exec_trace is not None:
            mode = "replay"
        elif mode == "replay":
            raise ReproError(
                f"no captured trace for {name}/{isa} scale={scale:g} seed={seed} "
                f"(functional fingerprint {config.functional_fingerprint()}); "
                "run with execution='capture' or 'auto' first"
            )
        else:
            mode = "capture"
    if mode == "capture" and trace_store is None:
        # Nowhere to file a trace: record none, and say what ran.
        mode = "execute"

    bus = TraceBus(trace) if trace is not None else None

    # Every mode is "obtain a trace, replay it": a stored trace comes
    # with its metadata; otherwise the GPU's functional pass records one
    # while it runs, and the metadata is computed from the live workload.
    start = time.time()
    if exec_trace is not None:
        if bus is None:
            # Eviction-free equivalence: an untraced replay that provably
            # cannot differ from one already simulated is that one's
            # result, decoded afresh (event-traced runs need the events).
            witnessed = derive(exec_trace, config)
            if witnessed is not None:
                run = WorkloadRun.from_payload(witnessed)
                run.wall_seconds = time.time() - start
                run.execution = "derived"
                return run
        process = _replay_process(name, isa, scale, seed)
        start = time.time()
        gpu = Gpu(config, process, trace=bus, replay=exec_trace)
        per_dispatch = gpu.run_all()
        wall = time.time() - start
        meta = exec_trace.meta
    else:
        recorder = TraceRecorder() if mode == "capture" else None
        workload = create(name, scale=scale, seed=seed)
        process = GpuProcess(isa, memory_capacity=1 << 25)
        start = time.time()
        workload.stage(process, isa)
        gpu = Gpu(config, process, trace=bus, recorder=recorder)
        per_dispatch = gpu.run_all()
        verified = workload.verify(process)
        wall = time.time() - start
        kernels = {kname: dual.for_isa(isa)
                   for kname, dual in workload.kernels().items()}
        meta = {
            "workload": name,
            "isa": isa,
            "scale": scale,
            "seed": seed,
            "functional_fingerprint": config.functional_fingerprint(),
            "verified": verified,
            "data_footprint_bytes": process.data_footprint_bytes,
            "static_instructions": sum(k.static_instructions
                                       for k in kernels.values()),
            "kernel_code_bytes": {kname: k.code_bytes
                                  for kname, k in kernels.items()},
        }
        if recorder is not None:
            trace_store.put(fingerprint, recorder.finish(meta))  # type: ignore[union-attr]

    kernel_bytes = {str(k): int(v)
                    for k, v in meta["kernel_code_bytes"].items()}
    run = WorkloadRun(
        workload=name,
        isa=isa,
        verified=bool(meta["verified"]),
        total=merge_all(per_dispatch),
        per_dispatch=per_dispatch,
        dispatch_kernel_names=[d.kernel.name for d in process.dispatches],
        data_footprint_bytes=int(meta["data_footprint_bytes"]),
        instr_footprint_bytes=sum(kernel_bytes.values()),
        static_instructions=int(meta["static_instructions"]),
        kernel_code_bytes=kernel_bytes,
        wall_seconds=wall,
        trace=bus.data() if bus is not None else None,
        execution=mode,
    )
    if exec_trace is not None and bus is None:
        file_witness(exec_trace, config, gpu.memsys, run)
    return run


#: Staged processes reused across replay runs, keyed by
#: (workload, isa, scale, seed).  Replay never writes simulated memory
#: (there is no functional execution), so the expensive part of a cell —
#: input generation, code loading, dispatch staging — can be paid once
#: per worker process and re-armed for every timing config replayed
#: after it.  The backing numpy buffer is lazily committed, so an entry
#: costs roughly its staged working set, not its address-space capacity.
_REPLAY_STAGING: Dict[Tuple[str, str, float, int], GpuProcess] = {}


def _replay_process(name: str, isa: str, scale: float, seed: int) -> GpuProcess:
    key = (name, isa, scale, seed)
    process = _REPLAY_STAGING.get(key)
    if process is not None and _rearm(process):
        return process
    workload = create(name, scale=scale, seed=seed)
    process = GpuProcess(isa, memory_capacity=1 << 25)
    workload.stage(process, isa)
    _REPLAY_STAGING[key] = process
    return process


def _rearm(process: GpuProcess) -> bool:
    """Reset a consumed process's queue and signals for another replay."""
    queue = process.queue
    if queue.write_index > queue.capacity:
        # The packet ring wrapped during staging; earlier packets were
        # overwritten and cannot be re-consumed.  Stage fresh instead.
        return False
    queue.read_index = 0
    for dispatch in process.dispatches:
        dispatch.signal.set(1)
    return True


#: In-process memo of full suite results.  Keyed by the config
#: *fingerprint* as well as (scale, seed, names): two different configs
#: with the same scale/seed/workloads must never share an entry.
_SUITE_CACHE: Dict[Tuple[str, float, int, Tuple[str, ...]], SuiteResults] = {}


def clear_suite_cache() -> None:
    """Drop the in-process memos — suite results, staged replay
    processes, parsed traces, and compiled kernels (test isolation
    helper)."""
    from ..workloads.base import clear_kernel_memo
    from .cache import clear_trace_memo

    _SUITE_CACHE.clear()
    _REPLAY_STAGING.clear()
    clear_trace_memo()
    clear_kernel_memo()


def execute_run_request(
    request: RunRequest,
    trace_store: Optional[TraceStore] = None,
) -> WorkloadRun:
    """Execute one :class:`~repro.core.requests.RunRequest` — THE entry
    point for single cells: ``Session.run``, the CLI, pool workers, and
    the ``repro serve`` scheduler all land here, so the engine fold,
    trace-store resolution, and execution-mode handling can never drift
    between surfaces.

    ``trace_store`` lets a resident caller (the daemon) pass one shared
    store whose hit/miss counters accumulate across requests; by default
    the store is resolved from the request's ``trace_dir``.
    """
    if trace_store is None and request.execution != "execute":
        trace_store = resolve_trace_store(request.trace_dir)
    return run_workload(
        request.workload,
        request.isa,
        scale=request.scale,
        config=request.resolved_config(),
        seed=request.seed,
        trace=request.trace,
        execution=request.execution,
        trace_store=trace_store if request.execution != "execute" else None,
    )


def execute_suite_request(
    request: SuiteRequest,
    progress: Optional[ProgressFn] = None,
) -> SuiteResults:
    """Execute one :class:`~repro.core.requests.SuiteRequest`: every
    workload under both ISAs.

    Results are memoized in-process and persisted in the on-disk result
    cache, so a warm rerun (same config/scale/seed/source tree) costs
    only JSON deserialization.  ``jobs`` > 1 fans cache misses out over a
    process pool; the reduce step is deterministic, so the result matrix
    is stat-identical to the serial path.

    ``progress`` is execution-side (a live callback cannot ride the
    wire): one :class:`JobEvent` per cell, cache hit or simulated.

    Traced suites bypass both the in-process memo and the disk cache in
    both directions: a cached result carries no events, and traced
    results must not poison the cache for untraced callers.
    """
    config = request.resolved_config()
    scale, seed = request.scale, request.seed
    names: Tuple[str, ...] = tuple(
        request.workloads if request.workloads is not None
        else [w.name for w in all_workloads()]
    )
    use_cache = request.use_cache
    use_disk_cache = request.use_disk_cache
    mem_key = (config.fingerprint(), scale, seed, names, request.execution)
    if request.trace is not None:
        use_cache = False
        use_disk_cache = False
    if use_cache and mem_key in _SUITE_CACHE:
        return _SUITE_CACHE[mem_key]

    # use_cache=False must mean "really re-simulate" unless the caller
    # explicitly re-enables the disk layer.
    disk: Optional[ResultCache] = resolve_cache(
        use_disk_cache if use_cache or use_disk_cache is not None else False,
        request.cache_dir,
    )

    cells = [Job(request=cell) for cell in request.cells(config=config)]
    total = len(cells)
    runs: Dict[Tuple[str, str], WorkloadRun] = {}
    misses: List[Job] = []
    for cell in cells:
        cached = disk.get(cell.fingerprint) if disk is not None else None
        if cached is not None:
            runs[cell.key] = cached
        else:
            misses.append(cell)

    # Report hits first (they resolve instantly), then simulate misses.
    index = 0
    if progress is not None:
        for cell in cells:
            if cell.key in runs:
                index += 1
                progress(JobEvent(
                    workload=cell.workload, isa=cell.isa, status="hit",
                    wall_seconds=runs[cell.key].wall_seconds,
                    index=index, total=total,
                ))

    if misses:
        if resolve_jobs(request.jobs) > 1 and len(misses) > 1:
            executed = run_jobs(
                misses,
                max_workers=resolve_jobs(request.jobs),
                timeout=request.job_timeout,
                progress=progress,
                progress_offset=index,
                progress_total=total,
            )
            runs.update(executed)
        else:
            for cell in misses:
                run = run_job_inline(cell)
                runs[cell.key] = run
                index += 1
                if progress is not None:
                    progress(JobEvent(
                        workload=cell.workload, isa=cell.isa,
                        status="failed" if run.error else "ok",
                        wall_seconds=run.wall_seconds,
                        index=index, total=total,
                    ))
        if disk is not None:
            for cell in misses:
                run = runs[cell.key]
                if run.error is None:
                    disk.put(cell.fingerprint, run,
                             config_fingerprint=cell.config.fingerprint())

    # Deterministic reduce: insertion order matches the serial loop
    # exactly, whatever order the pool completed in.
    results = SuiteResults(scale=scale)
    for name in names:
        for isa in ISAS:
            results.runs[(name, isa)] = runs[(name, isa)]
    if use_cache:
        _SUITE_CACHE[mem_key] = results
    return results
