"""Top-level GPU timing model: command processor, dispatcher, run loop.

The GPU consumes AQL packets in order (one kernel at a time, as in the
paper's experiments), places workgroups onto CUs subject to occupancy
limits (wavefront slots, VRF/SRF capacity, LDS), and advances a global
clock.  When no CU can make progress in a cycle the clock fast-forwards
to the next scheduled event — the trick that makes a Python cycle model
usable.

Execution is trace-first.  A run that was not handed a recorded trace
first executes each dispatch in the functional pass
(:mod:`repro.timing.funcsim`), which leaves one stream per wavefront in
memory; the CU model then replays those streams exactly as it replays a
stored trace.  ``execute``, ``capture`` and ``replay`` therefore share
one timing path and differ only in where the streams come from and
whether they are kept.

Per-dispatch statistics land in one :class:`StatSet` per kernel launch:
the trace-class ones (:class:`repro.obs.metrics.MetricClass`) from the
trace's fold as each workgroup is placed, the timing-class ones (cycles,
VRF bank conflicts, cache and fetch counters) from the cycle model.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from ..common.config import GpuConfig
from ..common.errors import DeadlockError, TimingError
from ..common.events import EventQueue
from ..common.stats import StatSet
from ..gcn3.isa import Gcn3Kernel
from ..obs.host import span
from ..obs.metrics import CYCLES
from ..obs.trace import TraceBus
from ..runtime.process import Dispatch, GpuProcess
from .caches import MemorySystem
from .cu import NEVER_WAKE, ComputeUnit, WorkgroupRecord
from .funcsim import run_dispatch_functional
from .predecode import read_banks
from .registerfile import VrfModel
from .replay import ExecTrace, TraceRecorder
from .vector import (VectorReplayCursor, fold_workgroup, resolve_engine,
                     wf_decode)
from .wavefront import TimingWavefront

#: Command-processor overhead before the first workgroup of a dispatch.
DISPATCH_LATENCY = 300


class Gpu:
    """A full GPU instance bound to one process."""

    def __init__(self, config: GpuConfig, process: GpuProcess,
                 trace: Optional[TraceBus] = None,
                 recorder: "Optional[TraceRecorder]" = None,
                 replay: "Optional[ExecTrace]" = None) -> None:
        if recorder is not None and replay is not None:
            raise TimingError("cannot capture and replay in the same run")
        self.config = config
        self.process = process
        #: observability bus; ``None`` (the default) keeps every
        #: instrumentation point on the zero-overhead no-trace path.
        self.trace = trace
        #: trace capture sink: the functional pass's streams land here,
        #: for the caller to ``finish`` into an :class:`ExecTrace`.
        self.recorder = recorder
        #: stored trace to replay; ``None`` means the functional pass
        #: runs first and the streams replayed are its own.
        self.replay = replay
        #: where the functional pass records (``None``: nothing to run,
        #: the streams are stored) and the trace every wavefront's cursor
        #: is cut from — the stored one, or a view of the sink's streams.
        self._sink = None if replay is not None else recorder or TraceRecorder()
        self._source = replay or ExecTrace({}, self._sink.streams)
        #: which cursor feeds the one issue path: "vector" batch-decodes
        #: each wavefront's stream at placement, "scalar" (only when the
        #: config names it) walks the raw arrays.  See timing/vector.py.
        self.engine = resolve_engine(config.engine)
        self.events = EventQueue()
        self.memsys = MemorySystem(config, trace)
        self.cus = [ComputeUnit(i, self) for i in range(config.num_cus)]
        #: CUs with at least one resident workgroup, in cu_id order —
        #: replaced (never mutated) by add_workgroup/_retire_workgroup, so
        #: the per-cycle scan visits exactly the busy CUs (same order as
        #: scanning ``cus`` and skipping idle ones, so decisions are
        #: unchanged) and a CU retiring mid-scan cannot disturb it.
        self.busy_cus: Tuple[ComputeUnit, ...] = ()
        self.stats = StatSet()
        self._wf_counter = 0
        self._dispatch_counter = 0
        self._outstanding_wgs = 0
        self._last_progress_cycle = 0
        self._place_rr = 0
        #: a lower bound on every busy CU's next_wake, reset to 0 by
        #: completion handlers and placement, so the dispatcher can jump
        #: idle stretches without rescanning the busy list.
        self._wake_floor = 0

    # ------------------------------------------------------------------

    def notify_progress(self) -> None:
        self._last_progress_cycle = self.events.now

    def run_all(self) -> List[StatSet]:
        """Run every queued dispatch in order; one StatSet per dispatch."""
        results = []
        while True:
            packet = self.process.next_packet()
            if packet is None:
                break
            index = len(results)
            if index >= len(self.process.dispatches):
                raise TimingError("queue packet without a staged dispatch")
            dispatch = self.process.dispatches[index]
            results.append(self.run_dispatch(dispatch))
        return results

    # ------------------------------------------------------------------

    def run_dispatch(self, dispatch: Dispatch) -> StatSet:
        """Run one dispatch to completion and return its statistics."""
        if self._sink is not None:
            # Semantics run once, here (completing the dispatch's signal);
            # everything below only replays.
            run_dispatch_functional(self.process, dispatch,
                                    recorder=self._sink)
        else:
            dispatch.signal.decrement()
        stats = StatSet()
        self.stats = stats
        banks = read_banks(dispatch.kernel, self.config.cu.vrf_banks)
        for cu in self.cus:
            cu.vrf = VrfModel(self.config.cu.vrf_banks, stats,
                              trace=self.trace, cu_id=cu.cu_id)
            cu.read_banks = banks

        start_cycle = self.events.now
        self.events.advance_to(start_cycle + DISPATCH_LATENCY)
        self._last_progress_cycle = self.events.now

        num_wgs = dispatch.num_workgroups
        pending = deque(range(num_wgs))
        self._outstanding_wgs = num_wgs
        dispatch_id = self._dispatch_counter
        self._dispatch_counter += 1

        with span("timing.cu"):
            self._loop_scan(dispatch, dispatch_id, pending)

        stats.bump(CYCLES, self.events.now - start_cycle)
        if self.trace is not None and self.trace.wants_dispatch:
            self.trace.emit(
                "dispatch", dispatch.kernel.name, start_cycle,
                dur=self.events.now - start_cycle,
                args={"dispatch": dispatch_id, "workgroups": num_wgs},
            )
        self.memsys.export_stats(stats)
        return stats

    def _loop_scan(self, dispatch: Dispatch, dispatch_id: int,
                   pending: "deque[int]") -> None:
        """The dispatcher: per-instruction stepping on the global event
        heap, one ``cycle()`` scan over busy CUs per visited cycle.

        Each step jumps to the earliest CU wake or pending event; while
        workgroups wait for a CU, a step that did work goes to the next
        cycle instead (a retirement can make room for a placement then).
        CUs whose exact ``next_wake`` proves they cannot act yet are
        skipped (the skip changes which no-op scans run, never a
        scheduling decision, so statistics are bit-identical — see
        tests/timing/test_determinism).  A trace bus only observes: the
        steps are the same with or without one.
        """
        events = self.events
        deadlock_cycles = self.config.deadlock_cycles
        while self._outstanding_wgs > 0:
            now = events.now
            did_work = False
            # Command processor: place at most one workgroup per cycle.
            if pending and self._try_place(dispatch, dispatch_id, pending[0]):
                pending.popleft()
                did_work = True
            if not did_work and not pending and self._wake_floor > now:
                # The previous step already proved no CU can act before
                # _wake_floor, and no completion handler has reset it
                # since: jump without rescanning the busy CUs.
                wake = self._wake_floor
            else:
                wake = NEVER_WAKE
                for cu in self.busy_cus:
                    if cu.next_wake <= now and cu.cycle(now):
                        did_work = True
                    if cu.next_wake < wake:
                        wake = cu.next_wake
                if self._outstanding_wgs == 0:
                    break
                if did_work:
                    self._last_progress_cycle = now + 1  # inline notify
                    if pending:
                        wake = now + 1
                self._wake_floor = wake
            # Jump to the earlier of the next wake and the next event.
            if wake == NEVER_WAKE and events.next_event_cycle() is None:
                if pending:
                    # Waiting for CU resources that only free on
                    # retirement, which arrives via events; none exist.
                    raise DeadlockError(
                        "workgroups pending but no events outstanding")
                raise DeadlockError(
                    "GPU idle with outstanding workgroups and no events")
            events.advance(wake)
            if events.now - self._last_progress_cycle > deadlock_cycles:
                raise DeadlockError(
                    f"no progress for {deadlock_cycles} cycles "
                    f"running {dispatch.kernel.name}"
                )

    # ------------------------------------------------------------------

    def _try_place(self, dispatch: Dispatch, dispatch_id: int, wg_index: int) -> bool:
        kernel = dispatch.kernel
        num_wfs = dispatch.wavefronts_in_wg(wg_index)
        if isinstance(kernel, Gcn3Kernel):
            reg_slots = max(1, kernel.vgprs_used)
            sgprs = max(1, kernel.sgprs_used)
        else:
            reg_slots = max(1, kernel.reg_slots_used)
            sgprs = 0
        lds_bytes = kernel.group_bytes

        n = len(self.cus)
        for k in range(n):
            cu = self.cus[(self._place_rr + k) % n]
            if cu.can_accept(num_wfs, reg_slots, sgprs, lds_bytes):
                self._place_rr = (self._place_rr + k + 1) % n
                self._place_workgroup(cu, dispatch, dispatch_id, wg_index,
                                      num_wfs, reg_slots, sgprs, lds_bytes)
                return True
        return False

    def _place_workgroup(
        self,
        cu: ComputeUnit,
        dispatch: Dispatch,
        dispatch_id: int,
        wg_index: int,
        num_wfs: int,
        reg_slots: int,
        sgprs: int,
        lds_bytes: int,
    ) -> None:
        source = self._source
        kernel = dispatch.kernel
        wg_key = (dispatch_id, wg_index)
        wavefronts = []
        folds = []
        vector = self.engine == "vector"
        with span("timing.fold"):
            for _ in range(num_wfs):
                dec = wf_decode(source, self._wf_counter, kernel,
                                records=vector)
                folds.append(dec.fold)
                if vector:
                    cursor = VectorReplayCursor(dec, kernel, dispatch.is_gcn3)
                else:
                    cursor = source.cursor(self._wf_counter, kernel,
                                           dispatch.is_gcn3)
                wf = TimingWavefront(
                    wf_id=self._wf_counter,
                    simd_id=0,
                    wg_key=wg_key,
                    cursor=cursor,
                    code_base=dispatch.loaded.code_base,
                    ib_capacity=self.config.cu.ib_entries,
                    fetch_width_bytes=self.config.cu.fetch_width_bytes,
                )
                self._wf_counter += 1
                wavefronts.append(wf)
            if self._sink is not None:
                # Streams recorded for this run are replayed exactly once:
                # a decode memo would only pin every wavefront's decode
                # until the GPU itself is collected.
                source._decode_cache.clear()
            # Everything the trace determines about this workgroup's
            # statistics is folded into the dispatch StatSet here, for
            # every run; the CU and the memory system only advance
            # timing state.
            fold_workgroup(self.stats, folds)
        cu.add_workgroup(WorkgroupRecord(
            wg_key=wg_key,
            wavefronts=wavefronts,
            lds_bytes=lds_bytes,
            reg_slots=reg_slots * num_wfs,
            sgpr_slots=sgprs * num_wfs,
        ))

    def _wg_done(self) -> None:
        """A CU retired one of this dispatch's workgroups."""
        self._outstanding_wgs -= 1
        self.notify_progress()
