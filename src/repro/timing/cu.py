"""The compute-unit timing model (paper Figure 2, Table 4).

Each CU has four 16-lane SIMD engines (a 64-wide wavefront issues over 4
cycles), a scalar unit shared by all SIMDs, a branch unit, global and
local memory pipelines, banked VRF/SRF, an LDS, and per-wavefront
instruction buffers fed by a shared fetch port into the cluster's L1I.

The CU is a pure trace consumer: instruction semantics ran earlier, in
the functional pass (:mod:`repro.timing.funcsim`), and every wavefront
here walks its recorded stream through a replay cursor.  Both ISAs run
on this same model.  The per-ISA behaviours are exactly the paper's:

* **HSAIL** — no scalar pipeline use; a simulator-side scoreboard stalls
  dependent instructions (the hardware has none); control divergence via
  the reconvergence stack, whose simulator-initiated jumps flush the IB.
* **GCN3** — scalar/branch work on the scalar unit, dependency stalls only
  at explicit ``s_waitcnt``, divergence via EXEC masking (no jumps unless
  a whole path is bypassed).

Hot-path structure: all static per-instruction facts come from the
kernel's predecoded :class:`~repro.timing.predecode.IssueDesc` table
(no string dispatch per dynamic instruction), and the CU maintains
*ready accounting* so idle work is skipped instead of rescanned —
``simd_ready[s]`` counts schedulable wavefronts per SIMD (not done,
not parked, not at a barrier), ``fetch_ready`` counts fetch candidates,
and ``next_wake`` is the earliest cycle this CU could possibly act
(``NEVER_WAKE`` = only an event can wake it).  Every transition keeps the
counts exact, so the scheduling *decisions* — and therefore every
statistic — are bit-identical to the exhaustive scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.exec_types import ExecResult, MemKind
from ..obs.metrics import BARRIERS, IB_FLUSHES, LDS_ACCESSES
from ..obs.trace import TraceBus
from .predecode import (
    UNIT_BRANCH,
    UNIT_LDS,
    UNIT_SCALAR,
    UNIT_SIMD,
    UNIT_VMEM,
    IssueDesc,
)
from .wavefront import TimingWavefront

#: ``next_wake`` sentinel: nothing to do until an event handler resets it.
NEVER_WAKE = 1 << 62


@dataclass
class WorkgroupRecord:
    """A workgroup resident on this CU."""

    wg_key: Tuple[int, int]
    wavefronts: List[TimingWavefront]
    lds_bytes: int
    reg_slots: int                # VRF slots reserved (all WFs)
    sgpr_slots: int
    barrier_arrivals: int = 0
    on_complete: Optional[object] = None  # callback

    def alive(self) -> int:
        return sum(1 for wf in self.wavefronts if not wf.done)


class ComputeUnit:
    """One CU's pipeline state."""

    def __init__(self, cu_id: int, gpu: "object") -> None:
        self.cu_id = cu_id
        self.gpu = gpu
        self.events = gpu.events    # hot-path alias
        self.memsys = gpu.memsys    # hot-path alias
        self.trace = gpu.trace      # hot-path alias (fixed per Gpu run)
        config = gpu.config.cu
        self.config = config
        self.num_simds = config.num_simds
        self.workgroups: Dict[Tuple[int, int], WorkgroupRecord] = {}
        self.simd_wfs: List[List[TimingWavefront]] = [[] for _ in range(config.num_simds)]
        self.simd_free = [0] * config.num_simds
        self.scalar_free = 0
        self.branch_free = 0
        self.vmem_free = 0
        self.lds_free = 0
        self.fetch_rr = 0
        self._all_wfs: List[TimingWavefront] = []
        # Ready accounting (see module docstring): schedulable wavefronts
        # per SIMD, fetch candidates, and the CU-level wake cycle the
        # dispatcher uses to skip provably idle CUs.
        self.simd_ready = [0] * config.num_simds
        self.fetch_ready = 0
        self.next_wake = 0
        #: Per-dispatch VrfModel, installed by ``Gpu.run_dispatch`` so the
        #: per-cycle and per-issue paths skip the gpu.vrf_models[...] hop.
        self.vrf: "object" = None
        # Occupancy accounting for the dispatcher.
        self.wf_slots_used = 0
        self.vrf_slots_used = 0
        self.srf_slots_used = 0
        self.lds_bytes_used = 0
        self._next_simd = 0

    # ------------------------------------------------------------------
    # Occupancy / placement
    # ------------------------------------------------------------------

    def can_accept(self, num_wfs: int, reg_slots_per_wf: int, sgprs_per_wf: int,
                   lds_bytes: int) -> bool:
        cfg = self.config
        if self.wf_slots_used + num_wfs > cfg.max_wavefronts:
            return False
        if self.vrf_slots_used + num_wfs * reg_slots_per_wf > cfg.vrf_entries:
            return False
        if self.srf_slots_used + num_wfs * sgprs_per_wf > cfg.srf_entries:
            return False
        if self.lds_bytes_used + lds_bytes > cfg.lds_bytes:
            return False
        return True

    def add_workgroup(self, record: WorkgroupRecord) -> None:
        if not self.workgroups:
            # Becoming busy: join the dispatcher's scan list, kept in
            # cu_id order so the cycle order matches a full-array scan.
            busy = self.gpu.busy_cus
            busy.append(self)
            busy.sort(key=lambda cu: cu.cu_id)
        self.workgroups[record.wg_key] = record
        self.wf_slots_used += len(record.wavefronts)
        self.vrf_slots_used += record.reg_slots
        self.srf_slots_used += record.sgpr_slots
        self.lds_bytes_used += record.lds_bytes
        for wf in record.wavefronts:
            wf.simd_id = self._next_simd
            self.simd_wfs[self._next_simd].append(wf)
            self.simd_ready[self._next_simd] += 1  # fresh WFs are schedulable
            if wf.fetch_want:
                self.fetch_ready += 1
            self._next_simd = (self._next_simd + 1) % self.num_simds
        self._all_wfs = [wf for group in self.simd_wfs for wf in group]
        self.next_wake = 0
        self._trace_wg("wg_place", record)

    def _retire_workgroup(self, record: WorkgroupRecord) -> None:
        del self.workgroups[record.wg_key]
        if not self.workgroups:
            self.gpu.busy_cus.remove(self)
        self.wf_slots_used -= len(record.wavefronts)
        self.vrf_slots_used -= record.reg_slots
        self.srf_slots_used -= record.sgpr_slots
        self.lds_bytes_used -= record.lds_bytes
        wg_key = record.wg_key
        for simd, group in enumerate(self.simd_wfs):
            self.simd_wfs[simd] = [wf for wf in group if wf.wg_key != wg_key]
        self._all_wfs = [wf for group in self.simd_wfs for wf in group]
        self._trace_wg("wg_retire", record)
        if record.on_complete is not None:
            record.on_complete()  # type: ignore[operator]

    def _trace_wg(self, name: str, record: WorkgroupRecord) -> None:
        """Workgroup lifecycle events (the occupancy report's raw data)."""
        trace: Optional[TraceBus] = self.gpu.trace
        if trace is not None and trace.wants_dispatch:
            trace.emit(
                "dispatch", name, self.gpu.events.now, cu=self.cu_id,
                args={"wg": list(record.wg_key),
                      "resident": len(self.workgroups),
                      "wavefronts": len(record.wavefronts)},
            )

    @property
    def busy(self) -> bool:
        return bool(self.workgroups)

    # ------------------------------------------------------------------
    # Ready accounting helpers
    # ------------------------------------------------------------------

    def _park(self, wf: TimingWavefront) -> None:
        """Park a wavefront the issue scan just visited (so it was
        schedulable); it leaves the ready set until an event unparks it."""
        wf.parked = True
        self.simd_ready[wf.simd_id] -= 1

    def _unpark(self, wf: TimingWavefront) -> None:
        if wf.parked:
            wf.parked = False
            self.simd_ready[wf.simd_id] += 1

    def _sync_fetch(self, wf: TimingWavefront) -> None:
        """Recompute the wavefront's fetch-candidate flag after any
        fetch/IB/done transition and keep the CU count exact.
        (``wants_fetch`` is inlined: this runs at every transition.)"""
        want = (
            not wf.cursor.done
            and not wf.fetch_inflight
            and wf.fetch_index < wf.num_instrs
            and len(wf.ib) < wf.ib_capacity
        )
        if want != wf.fetch_want:
            wf.fetch_want = want
            self.fetch_ready += 1 if want else -1

    # ------------------------------------------------------------------
    # Per-cycle work
    # ------------------------------------------------------------------

    def cycle(self, now: int) -> Tuple[bool, Optional[int]]:
        """One cycle of fetch + issue.  Returns (did_work, wake_hint)."""
        did = False
        hint: Optional[int] = None
        vrf = self.vrf
        # Untraced runs count conflicts at note_access time instead.
        if vrf.emits_vrf and vrf._min_cycle < now:
            vrf.collect(now)
        # One attribute fetch per cycle; every instrumentation point below
        # is a plain ``is not None`` check when tracing is off.
        trace: Optional[TraceBus] = self.trace

        if self.fetch_ready and self._start_fetch(now):
            did = True

        simd_free = self.simd_free
        simd_ready = self.simd_ready
        simd_wfs = self.simd_wfs
        for simd in range(self.num_simds):
            free = simd_free[simd]
            if free > now:
                if hint is None or free < hint:
                    hint = free
                if trace is not None and trace.wants_stall:
                    trace.stall("simd_busy", now, self.cu_id)
                continue
            if not simd_ready[simd]:
                continue
            for wf in simd_wfs[simd]:
                if wf.parked or wf.at_barrier or wf.cursor.done:
                    continue
                issued, wf_hint = self._try_issue(wf, simd, now, trace)
                if issued:
                    did = True
                    break
                if wf_hint is not None and (hint is None or wf_hint < hint):
                    hint = wf_hint
        return did, hint

    # -- fetch ------------------------------------------------------------

    def _start_fetch(self, now: int) -> bool:
        wfs = self._all_wfs
        if not wfs:
            return False
        n = len(wfs)
        for k in range(n):
            wf = wfs[(self.fetch_rr + k) % n]
            if not wf.fetch_want:
                continue
            self.fetch_rr = (self.fetch_rr + k + 1) % n
            wf.fetch_inflight = True
            self._sync_fetch(wf)
            epoch = wf.fetch_epoch
            addr = wf.instr_address(wf.fetch_index)
            line = addr >> 6
            done_cycle = self.memsys.ifetch(self.cu_id, line, now)
            fire = max(done_cycle, now + 1)
            self.events.schedule_at(
                fire, lambda w=wf, e=epoch: self._finish_fetch(w, e)
            )
            trace: Optional[TraceBus] = self.trace
            if trace is not None and trace.wants_fetch:
                trace.emit("fetch", "ifetch", now,
                           dur=max(done_cycle - now, 1), cu=self.cu_id,
                           wf=wf.wf_id, args={"line": line})
            return True
        return False

    def _finish_fetch(self, wf: TimingWavefront, epoch: int) -> None:
        if epoch != wf.fetch_epoch:
            return  # flushed while in flight
        wf.fetch_inflight = False
        self._unpark(wf)
        budget = self.config.fetch_width_bytes
        ib = wf.ib
        descs = wf.descs
        while (
            budget > 0
            and len(ib) < wf.ib_capacity
            and wf.fetch_index < wf.num_instrs
        ):
            size = descs[wf.fetch_index].size_bytes
            ib.append((wf.fetch_index, size))
            wf.fetch_index += 1
            budget -= size
        self._sync_fetch(wf)
        self.next_wake = 0
        self.gpu._wake_floor = 0
        self.gpu._last_progress_cycle = self.events.now  # inline notify

    # -- issue ------------------------------------------------------------

    def _try_issue(self, wf: TimingWavefront, simd: int, now: int,
                   trace: Optional[TraceBus] = None) -> Tuple[bool, Optional[int]]:
        if wf.next_issue_cycle > now:
            return False, wf.next_issue_cycle

        cursor = wf.cursor

        # HSAIL reconvergence-stack handling: a pending-path switch is a
        # simulator-initiated jump that flushes the instruction buffer.
        # The functional pass recorded it ahead of the instruction it
        # precedes, so it fires on the wavefront's first issue attempt
        # after the previous instruction.
        if not wf.is_gcn3:
            new_pc = cursor.take_jump()
            if new_pc is not None:
                self._flush(wf, new_pc)
                # The refetch starts next cycle; keep the clock moving.
                return False, self.events.now + 1

        ib = wf.ib
        if not ib:
            self._park(wf)  # woken by the fetch fill
            if trace is not None and trace.wants_stall:
                trace.stall("fetch_wait", now, self.cu_id, wf.wf_id)
            return False, None
        pc = cursor.pc
        if ib[0][0] != pc:
            # Stale buffer (a flush raced with an already-checked fetch
            # stage); resynchronize and wake next cycle for the refetch.
            wf.flush_ib(pc)
            self._sync_fetch(wf)
            if trace is not None and trace.wants_stall:
                trace.stall("ib_resync", now, self.cu_id, wf.wf_id)
            return False, self.events.now + 1

        desc = wf.descs[pc]

        # GCN3 stalls on dependencies only at explicit s_waitcnt, so the
        # common case skips the call entirely; HSAIL always consults its
        # scoreboard.  Same decisions as unconditionally calling through.
        if desc.is_waitcnt or not wf.is_gcn3:
            blocked, hint = self._dependencies_block(wf, desc, now, trace)
            if blocked:
                return False, hint

        # The SIMD itself was checked by the caller; only off-SIMD units
        # need the structural-hazard probe.
        unit_hint = (None if desc.unit == UNIT_SIMD
                     else self._unit_busy(wf, desc, now))
        if unit_hint is not None:
            if trace is not None and trace.wants_stall:
                trace.stall(_UNIT_STALL_REASON[desc.unit], now,
                            self.cu_id, wf.wf_id)
            return False, unit_hint

        self._issue(wf, desc, simd, now, trace)
        return True, None

    def _dependencies_block(self, wf: TimingWavefront, desc: IssueDesc, now: int,
                            trace: Optional[TraceBus] = None) -> Tuple[bool, Optional[int]]:
        if wf.is_gcn3:
            if desc.is_waitcnt:
                vm = desc.wait_vm
                lgkm = desc.wait_lgkm
                if vm is not None and wf.pending_vmem > vm:
                    self._park(wf)  # woken by a memory completion
                    self._trace_wait(trace, wf, "waitcnt_vm", now, vm, lgkm)
                    return True, None
                if lgkm is not None and wf.pending_lgkm > lgkm:
                    self._park(wf)
                    self._trace_wait(trace, wf, "waitcnt_lgkm", now, vm, lgkm)
                    return True, None
            return False, None
        # HSAIL scoreboard: every source and destination slot must be free.
        slots = desc.rw_slots
        if not wf.slots_ready(slots, now):
            hint = wf.slots_ready_hint(slots, now)
            if hint is None:
                self._park(wf)  # blocked on in-flight memory
            elif trace is None:
                # The release cycle is exact and only this wavefront's
                # own issues move it, so re-polling before it is futile;
                # traced runs keep polling for their per-poll stall events.
                wf.next_issue_cycle = hint
            if trace is not None and trace.wants_stall:
                trace.stall(
                    "scoreboard_mem" if hint is None else "scoreboard",
                    now, self.cu_id, wf.wf_id)
            return True, hint
        if desc.is_memory and wf.pending_vmem >= self.config.max_outstanding_vmem:
            self._park(wf)
            if trace is not None and trace.wants_stall:
                trace.stall("vmem_capacity", now, self.cu_id, wf.wf_id)
            return True, None
        return False, None

    def _trace_wait(self, trace: Optional[TraceBus], wf: TimingWavefront,
                    reason: str, now: int, vm: Optional[int],
                    lgkm: Optional[int]) -> None:
        """An ``s_waitcnt`` that parked the wavefront (GCN3's one explicit
        dependency-stall point, paper §III.B.2)."""
        if trace is None:
            return
        if trace.wants_stall:
            trace.stall(reason, now, self.cu_id, wf.wf_id)
        if trace.wants_wait:
            trace.emit("wait", "s_waitcnt", now, cu=self.cu_id, wf=wf.wf_id,
                       args={"reason": reason,
                             "vmcnt": vm,
                             "lgkmcnt": lgkm,
                             "pending_vmem": wf.pending_vmem,
                             "pending_lgkm": wf.pending_lgkm})

    def _unit_busy(self, wf: TimingWavefront, desc: IssueDesc, now: int) -> Optional[int]:
        """None if the needed off-SIMD unit is free, else a wake hint."""
        unit = desc.unit
        if unit == UNIT_SCALAR:
            return self.scalar_free if self.scalar_free > now else None
        if unit == UNIT_VMEM:
            if wf.pending_vmem >= self.config.max_outstanding_vmem:
                return None  # event-driven
            return self.vmem_free if self.vmem_free > now else None
        if unit == UNIT_LDS:
            return self.lds_free if self.lds_free > now else None
        if unit == UNIT_BRANCH:
            return self.branch_free if self.branch_free > now else None
        return None

    def _issue(self, wf: TimingWavefront, desc: IssueDesc,
               simd: int, now: int, trace: Optional[TraceBus] = None) -> None:
        cursor = wf.cursor
        pc = cursor.pc

        # --- VRF gather window (bank-conflict timing) ---
        read_slots = desc.read_slots
        # Only source reads contend for the operand-gather ports; writes
        # drain through the separate writeback port.  Each operand's bank
        # stays busy for the instruction's full gather window.
        # (note_access is a no-op without slots; the gate skips the call.)
        if read_slots:
            if desc.unit == UNIT_SIMD:
                duration = self.config.valu_issue_cycles * desc.valu_mult
            else:
                duration = 2
            self.vrf.note_access(read_slots, now, duration)
            if trace is not None and trace.wants_vrf:
                trace.emit("vrf", "gather", now, dur=duration, cu=self.cu_id,
                           wf=wf.wf_id, args={"slots": list(read_slots)})

        # The recorded outcome stands in for the functional execution.
        # Every statistic the trace determines (instruction mix, reuse
        # distance, probes, utilization) was folded into the StatSet at
        # placement, so only timing state advances from here on.
        result: ExecResult = cursor.advance(pc)

        # --- timing costs ---
        issue_cost = self._charge_units(wf, desc, simd, now)
        wf.next_issue_cycle = now + 1

        if trace is not None and trace.wants_issue:
            trace.emit("issue", desc.opcode, now, dur=issue_cost,
                       cu=self.cu_id, wf=wf.wf_id,
                       args={"pc": pc, "cat": desc.category.value,
                             "active": result.active_lanes})

        # --- memory completions ---
        if result.mem_kind != MemKind.NONE:
            self._handle_memory(wf, desc, result, now, issue_cost, trace)

        # --- control flow / IB maintenance ---
        ib = wf.ib
        if ib:  # inline of ib_pop
            ib.pop(0)
        if result.branch_taken and result.next_pc is not None:
            self._flush(wf, result.next_pc)
        else:
            self._sync_fetch(wf)
        if result.is_barrier:
            self._arrive_barrier(wf, self.workgroups[wf.wg_key])
        if result.ends_wavefront:
            self.simd_ready[wf.simd_id] -= 1  # done WFs leave the ready set
            self._sync_fetch(wf)
            record = self.workgroups[wf.wg_key]
            # Siblings already at a barrier wait only for live wavefronts.
            self._release_barrier(record)
            self._maybe_retire(record)

    def _charge_units(self, wf: TimingWavefront, desc: IssueDesc,
                      simd: int, now: int) -> int:
        cfg = self.config
        unit = desc.unit
        if unit == UNIT_SIMD:
            cycles = cfg.valu_issue_cycles * desc.valu_mult
            self.simd_free[simd] = now + cycles
            if not wf.is_gcn3:
                # Scoreboard release at writeback: the simulated pipeline
                # has no forwarding network (the real machine relies on
                # finalizer scheduling instead), so dependents wait out
                # the full depth (paper §III.B.2).
                latency = cycles + 2 * cfg.valu_issue_cycles
                wf.mark_busy(desc.write_slots, now + latency)
            return cycles
        if unit == UNIT_SCALAR:
            self.scalar_free = now + cfg.salu_latency
            return cfg.salu_latency
        if unit == UNIT_BRANCH:
            self.branch_free = now + cfg.salu_latency
            return cfg.salu_latency
        if unit == UNIT_VMEM:
            self.vmem_free = now + cfg.valu_issue_cycles  # address/coalesce time
            return cfg.valu_issue_cycles
        if unit == UNIT_LDS:
            self.lds_free = now + cfg.valu_issue_cycles
            return cfg.valu_issue_cycles
        return 1

    def _handle_memory(self, wf: TimingWavefront, desc: IssueDesc,
                       result: ExecResult, now: int, issue_cost: int,
                       trace: Optional[TraceBus] = None) -> None:
        gpu = self.gpu
        mem_kind = result.mem_kind
        if mem_kind in (MemKind.GLOBAL_LOAD, MemKind.GLOBAL_STORE):
            lines = result.mem_lines or [0]
            done = gpu.memsys.vector_access(
                self.cu_id, lines, mem_kind == MemKind.GLOBAL_STORE, now + issue_cost
            )
            wf.pending_vmem += 1
            written = desc.write_slots if not wf.is_gcn3 else ()
            if written:
                wf.mark_mem_busy(written)
            gpu.events.schedule_at(
                max(done, now + 1),
                lambda w=wf, s=written: self._finish_vmem(w, s),
            )
            if trace is not None and trace.wants_mem:
                trace.emit("mem", desc.opcode, now, dur=max(done - now, 1),
                           cu=self.cu_id, wf=wf.wf_id,
                           args={"kind": mem_kind, "lines": len(lines)})
        elif mem_kind == MemKind.SCALAR_LOAD:
            lines = result.mem_lines or [0]
            done = gpu.memsys.scalar_access(self.cu_id, lines, now + issue_cost)
            wf.pending_lgkm += 1
            gpu.events.schedule_at(
                max(done, now + 1), lambda w=wf: self._finish_lgkm(w)
            )
            if trace is not None and trace.wants_mem:
                trace.emit("mem", desc.opcode, now, dur=max(done - now, 1),
                           cu=self.cu_id, wf=wf.wf_id,
                           args={"kind": "scalar_load", "lines": len(lines)})
        elif mem_kind == MemKind.LDS_ACCESS:
            done = now + issue_cost + self.config.lds_latency
            wf.pending_lgkm += 1
            written = desc.write_slots if not wf.is_gcn3 else ()
            if written:
                wf.mark_mem_busy(written)
            gpu.events.schedule_at(
                max(done, now + 1),
                lambda w=wf, s=written: self._finish_lds(w, s),
            )
            gpu.stats.bump(LDS_ACCESSES)
            if trace is not None and trace.wants_mem:
                trace.emit("mem", desc.opcode, now, dur=max(done - now, 1),
                           cu=self.cu_id, wf=wf.wf_id,
                           args={"kind": "lds", "lines": 0})

    def _finish_vmem(self, wf: TimingWavefront, slots: Tuple[int, ...]) -> None:
        wf.pending_vmem -= 1
        if slots:
            wf.release_mem_busy(slots)
        self._unpark(wf)
        self.next_wake = 0
        self.gpu._wake_floor = 0
        self.gpu._last_progress_cycle = self.events.now  # inline notify

    def _finish_lgkm(self, wf: TimingWavefront) -> None:
        wf.pending_lgkm -= 1
        self._unpark(wf)
        self.next_wake = 0
        self.gpu._wake_floor = 0
        self.gpu._last_progress_cycle = self.events.now  # inline notify

    def _finish_lds(self, wf: TimingWavefront, slots: Tuple[int, ...]) -> None:
        wf.pending_lgkm -= 1
        if slots:
            wf.release_mem_busy(slots)
        self._unpark(wf)
        self.next_wake = 0
        self.gpu._wake_floor = 0
        self.gpu._last_progress_cycle = self.events.now  # inline notify

    def _flush(self, wf: TimingWavefront, new_pc: int) -> None:
        wf.flush_ib(new_pc)
        self._sync_fetch(wf)
        self.gpu.stats.bump(IB_FLUSHES)
        trace: Optional[TraceBus] = self.gpu.trace
        if trace is not None and trace.wants_flush:
            trace.emit("flush", "ib_flush", self.gpu.events.now,
                       cu=self.cu_id, wf=wf.wf_id, args={"new_pc": new_pc})

    def _arrive_barrier(self, wf: TimingWavefront, record: WorkgroupRecord) -> None:
        wf.at_barrier = True
        self.simd_ready[wf.simd_id] -= 1
        record.barrier_arrivals += 1
        self._release_barrier(record)

    def _release_barrier(self, record: WorkgroupRecord) -> None:
        """Open the barrier once every live wavefront has arrived — checked
        when one arrives and when one ends, as the functional pass does."""
        if record.barrier_arrivals and record.barrier_arrivals >= record.alive():
            record.barrier_arrivals = 0
            simd_ready = self.simd_ready
            for other in record.wavefronts:
                if other.at_barrier:
                    other.at_barrier = False
                    simd_ready[other.simd_id] += 1
            self.gpu.stats.bump(BARRIERS)
            self.gpu.notify_progress()

    def _maybe_retire(self, record: WorkgroupRecord) -> None:
        if record.alive() == 0:
            self._retire_workgroup(record)
            self.gpu.notify_progress()


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: Stall-trace label for an instruction blocked on a busy unit, by
#: predecoded unit id (BRANCH/MISC already resolved per ISA).
_UNIT_STALL_REASON = {
    UNIT_SIMD: "unit_busy",
    UNIT_SCALAR: "scalar_busy",
    UNIT_BRANCH: "branch_busy",
    UNIT_VMEM: "vmem_busy",
    UNIT_LDS: "lds_busy",
}
