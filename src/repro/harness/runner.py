"""Experiment runner: the cell path — one (workload x ISA) pair, simulated.

One :class:`WorkloadRun` captures everything the paper's figures need for
one workload under one ISA: aggregate and per-dispatch statistics, the
static instruction footprint, the device data footprint, and functional
verification.  :func:`execute_run_request` is the one entry point every
surface runs a cell through; :class:`SuiteResults` is the (workload x
ISA) matrix.  The matrix itself is run by the sweep ledger
(:func:`repro.explore.sweep.execute_suite_request`): a suite is a sweep
with zero axes, so suites and sweeps share one cache lookup, one
progress stream, one ``--jobs`` fan-out and one deterministic reduce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..common.config import GpuConfig, paper_config
from ..common.errors import ReproError, RuntimeStackError
from ..common.stats import StatSet, merge_all
from ..core.requests import (  # re-exported: canonical home is requests
    EXECUTION_MODES,
    ISAS,
    RunRequest,
)
from ..obs.host import span
from ..obs.trace import TraceBus, TraceConfig, TraceData
from ..runtime.process import GpuProcess
from ..timing.gpu import Gpu
from ..timing.replay import ExecTrace, TraceError, TraceRecorder
from ..workloads import create
from .cache import TraceStore, resolve_trace_store, trace_fingerprint
from .equivalence import derive, file_witness


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

    @classmethod
    def failure(cls, workload: str, isa: str, error: str,
                wall_seconds: float = 0.0,
                execution: str = "execute") -> "WorkloadRun":
        """A run that failed outright: no statistics, ``error`` says why."""
        return cls(workload=workload, isa=isa, verified=False,
                   total=StatSet(), per_dispatch=[], dispatch_kernel_names=[],
                   data_footprint_bytes=0, instr_footprint_bytes=0,
                   static_instructions=0, kernel_code_bytes={},
                   wall_seconds=wall_seconds, error=error,
                   execution=execution)

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

    def copy(self, **changes: object) -> "WorkloadRun":
        """An independent copy with ``changes`` applied to its fields: no
        StatSet, list or dict is shared (the event ``trace`` is), and
        ``to_payload()`` writes the same bytes."""
        return replace(
            self, total=self.total.copy(),
            per_dispatch=[stats.copy() for stats in self.per_dispatch],
            dispatch_kernel_names=list(self.dispatch_kernel_names),
            kernel_code_bytes=dict(self.kernel_code_bytes),
            **changes)

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
        """Inverse of :meth:`to_payload`; a malformed payload raises
        ValueError naming the field at fault."""
        def decoded(name, decode, *absent):
            try:
                value = payload.get(name) if absent else payload[name]
                return absent[0] if value is None and absent else decode(value)
            except (KeyError, IndexError, TypeError, ValueError,
                    AttributeError) as exc:
                raise ValueError(f"run payload field {name!r}: "
                                 f"{type(exc).__name__}: {exc}") from exc

        return cls(
            workload=decoded("workload", str),
            isa=decoded("isa", str),
            verified=decoded("verified", bool),
            total=decoded("total", StatSet.from_payload),
            per_dispatch=decoded("per_dispatch", lambda dispatches: [
                StatSet.from_payload(p) for p in dispatches]),
            dispatch_kernel_names=decoded(
                "dispatch_kernel_names", lambda names: list(map(str, names))),
            data_footprint_bytes=decoded("data_footprint_bytes", int),
            instr_footprint_bytes=decoded("instr_footprint_bytes", int),
            static_instructions=decoded("static_instructions", int),
            kernel_code_bytes=decoded("kernel_code_bytes", lambda sizes: {
                str(k): int(v) for k, v in sizes.items()}),
            wall_seconds=decoded("wall_seconds", float),
            error=decoded("error", lambda error: error, None),
            trace=decoded("trace", TraceData.from_payload, None),
            execution=decoded("execution", str, "execute"),
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

    ``execution`` is one of :data:`EXECUTION_MODES`: a *trace-store
    policy*, not a choice of simulator.  Every run is "obtain a trace,
    replay it through the timing model"; the modes differ only in where
    the trace comes from and whether it is kept.  ``execute`` neither
    reads nor writes ``trace_store`` (the functional pass records a trace
    in memory and drops it); ``capture`` writes the recorded trace;
    ``replay`` reads a stored one and fails without it; ``auto`` reads
    when the store has one and writes otherwise.  Statistics are
    bit-identical under every policy — a read skips the functional pass,
    uniqueness probes and verification, whose verdict and footprints
    travel inside the trace.  Without a ``trace_store`` a capture runs,
    and is labelled, as ``execute``.  A replay that
    :func:`~repro.harness.equivalence.derive` answers from a filed
    witness returns ``execution="derived"``.
    """
    if execution not in EXECUTION_MODES:
        raise ReproError(
            f"unknown execution mode {execution!r}; expected one of {EXECUTION_MODES}"
        )
    with span("run.cell", workload=name, isa=isa) as cell:
        return _run_cell(cell, name, isa, scale, config or paper_config(),
                         seed, trace, execution, trace_store)


def _run_cell(cell: "Dict[str, object]", name: str, isa: str, scale: float,
              config: GpuConfig, seed: int, trace: Optional[TraceConfig],
              execution: str, trace_store: Optional[TraceStore]
              ) -> WorkloadRun:
    """:func:`run_workload` inside its ``run.cell`` span, whose attrs
    (``cell``) learn the path taken."""
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
    cell["path"] = mode

    bus = TraceBus(trace) if trace is not None else None

    # Every mode is "obtain a trace, replay it": a stored trace comes
    # with its metadata; otherwise the GPU's functional pass records one
    # while it runs, and the metadata is computed from the live workload.
    start = time.perf_counter()
    if exec_trace is not None:
        if bus is None:
            # Eviction-free equivalence: an untraced replay that provably
            # cannot differ from one already simulated is a copy of that
            # one's result (event-traced runs need the events).
            with span("result.derive") as derivation:
                witnessed, derivation["outcome"] = derive(exec_trace, config)
                if witnessed is not None:
                    cell["path"] = "derived"
                    return witnessed.copy(
                        wall_seconds=time.perf_counter() - start,
                        execution="derived")
        try:
            process = _replay_process(name, isa, scale, seed, exec_trace)
        except RuntimeStackError as exc:
            return _staging_failure(name, isa, exc, start, mode)
        start = time.perf_counter()
        gpu = Gpu(config, process, trace=bus, replay=exec_trace)
        try:
            per_dispatch = gpu.run_all()
        except TraceError as exc:
            if execution != "auto":
                raise
            # A law only the fold checks (the probe counts) is broken:
            # discard the entry, as from_bytes would, and capture.
            trace_store.discard(fingerprint, f"TraceError: {exc}")  # type: ignore[union-attr]
            return run_workload(name, isa, scale, config, seed, trace,
                                "capture", trace_store)
        wall = time.perf_counter() - start
        meta = exec_trace.meta
    else:
        recorder = TraceRecorder() if mode == "capture" else None
        workload = create(name, scale=scale, seed=seed)
        process = GpuProcess(isa, memory_capacity=1 << 25)
        start = time.perf_counter()
        try:
            with span("runtime.stage"):
                workload.stage(process, isa)
        except RuntimeStackError as exc:
            return _staging_failure(name, isa, exc, start, mode)
        gpu = Gpu(config, process, trace=bus, recorder=recorder)
        per_dispatch = gpu.run_all()
        with span("workloads.verify"):
            verified = workload.verify(process)
        wall = time.perf_counter() - start
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


def _staging_failure(name: str, isa: str, exc: Exception, start: float,
                     mode: str) -> WorkloadRun:
    """A cell whose dispatches could not be staged, reported the way a
    suite reports a cell that raised: a failed run naming the error."""
    return WorkloadRun.failure(name, isa, f"{type(exc).__name__}: {exc}",
                               time.perf_counter() - start, mode)


def _replay_process(name: str, isa: str, scale: float, seed: int,
                    trace: ExecTrace) -> GpuProcess:
    """The staged process a replay of ``trace`` runs on.  Replay never
    writes simulated memory, so input generation, code loading and
    dispatch staging are paid once per trace and re-armed for every
    timing config replayed after it.  The process lives on the trace, so
    the parsed-trace memo (``REPRO_TRACE_MEMO``) bounds how many stay."""
    process = trace.staged
    if process is not None and _rearm(process):
        return process
    workload = create(name, scale=scale, seed=seed)
    process = GpuProcess(isa, memory_capacity=1 << 25)
    with span("runtime.stage"):
        workload.stage(process, isa)
    trace.staged = process
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


def clear_suite_cache() -> None:
    """Drop the in-process memos — parsed traces with their staged replay
    processes, and compiled kernels (test isolation helper)."""
    from ..workloads.base import clear_kernel_memo
    from .cache import clear_trace_memo

    clear_trace_memo()
    clear_kernel_memo()


def execute_run_request(
    request: RunRequest,
    trace_store: Optional[TraceStore] = None,
) -> WorkloadRun:
    """Execute one :class:`~repro.core.requests.RunRequest` — THE entry
    point for single cells: ``Session.run``, the CLI, forked workers, and
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
