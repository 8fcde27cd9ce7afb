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
kernel's predecoded tables (:mod:`repro.timing.predecode`: issue
descriptors, fetch lines and fill counts, VRF read banks), each issue
unpacks one record tuple from the cursor, and the CU maintains *ready
accounting* so idle work is skipped instead of rescanned —
``simd_ready[s]`` counts schedulable wavefronts per SIMD (``state ==
READY``), ``fetch_ready`` counts fetch candidates, and ``next_wake`` is
the earliest cycle this CU could possibly act (``NEVER_WAKE`` = only an
event can wake it), exact after issuing cycles too: a SIMD that issued
waits for its ``simd_free`` (the next cycle after a non-VALU issue), and
a leftover fetch candidate or an opened barrier means the next cycle.
Every transition keeps the counts exact, so the scheduling *decisions*
— and so every statistic — are bit-identical to the exhaustive scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.exec_types import MemKind
from ..obs.trace import TraceBus
from .predecode import (
    UNIT_BRANCH,
    UNIT_LDS,
    UNIT_SCALAR,
    UNIT_SIMD,
    UNIT_VMEM,
    IssueDesc,
)
from .replay import _MEM_INDEX, _MEM_KINDS
from .wavefront import AT_BARRIER, DONE, PARKED, READY, TimingWavefront

#: ``next_wake`` sentinel: nothing to do until an event handler resets it.
NEVER_WAKE = 1 << 62

_MEM_STORE = _MEM_INDEX[MemKind.GLOBAL_STORE]
_MEM_SCALAR = _MEM_INDEX[MemKind.SCALAR_LOAD]
_MEM_LDS = _MEM_INDEX[MemKind.LDS_ACCESS]


@dataclass
class WorkgroupRecord:
    """A workgroup resident on this CU."""

    wg_key: Tuple[int, int]
    wavefronts: List[TimingWavefront]
    lds_bytes: int
    reg_slots: int                # VRF slots reserved (all WFs)
    sgpr_slots: int
    barrier_arrivals: int = 0

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
        #: next free cycle of each off-SIMD unit, indexed by unit id, and
        #: the cycles an issue holds it (the SIMD entries are unused).
        self.unit_free = [0] * (UNIT_LDS + 1)
        self.unit_cost = [0] * (UNIT_LDS + 1)
        self.unit_cost[UNIT_SCALAR] = config.salu_latency
        self.unit_cost[UNIT_BRANCH] = config.salu_latency
        self.unit_cost[UNIT_VMEM] = config.valu_issue_cycles  # address/coalesce
        self.unit_cost[UNIT_LDS] = config.valu_issue_cycles
        self.fetch_rr = 0
        self._all_wfs: List[TimingWavefront] = []  # the fetch arbiter's ring
        self._n_wfs = 0
        # Ready accounting (see module docstring): schedulable wavefronts
        # per SIMD, fetch candidates, and the CU-level wake cycle the
        # dispatcher uses to skip provably idle CUs.
        self.simd_ready = [0] * config.num_simds
        self.fetch_ready = 0
        self.next_wake = 0
        #: Per-dispatch VrfModel and the dispatch kernel's VRF read banks
        #: per instruction, installed by ``Gpu.run_dispatch``.
        self.vrf: "object" = None
        self.read_banks: Tuple[Tuple[int, ...], ...] = ()
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
        return (self.wf_slots_used + num_wfs <= cfg.max_wavefronts
                and self.vrf_slots_used + num_wfs * reg_slots_per_wf
                <= cfg.vrf_entries
                and self.srf_slots_used + num_wfs * sgprs_per_wf
                <= cfg.srf_entries
                and self.lds_bytes_used + lds_bytes <= cfg.lds_bytes)

    def add_workgroup(self, record: WorkgroupRecord) -> None:
        if not self.workgroups:
            # Becoming busy: join the dispatcher's scan tuple, kept in
            # cu_id order so the cycle order matches a full-array scan.
            gpu = self.gpu
            gpu.busy_cus = tuple(sorted(gpu.busy_cus + (self,),
                                        key=lambda cu: cu.cu_id))
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
        self._n_wfs = len(self._all_wfs)
        self.next_wake = 0
        self._trace_wg("wg_place", record)

    def _retire_workgroup(self, record: WorkgroupRecord) -> None:
        del self.workgroups[record.wg_key]
        if not self.workgroups:
            gpu = self.gpu
            gpu.busy_cus = tuple(cu for cu in gpu.busy_cus if cu is not self)
        self.wf_slots_used -= len(record.wavefronts)
        self.vrf_slots_used -= record.reg_slots
        self.srf_slots_used -= record.sgpr_slots
        self.lds_bytes_used -= record.lds_bytes
        wg_key = record.wg_key
        for simd, group in enumerate(self.simd_wfs):
            self.simd_wfs[simd] = [wf for wf in group if wf.wg_key != wg_key]
        self._all_wfs = [wf for group in self.simd_wfs for wf in group]
        self._n_wfs = len(self._all_wfs)
        self._trace_wg("wg_retire", record)
        self.gpu._wg_done()

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

    # ------------------------------------------------------------------
    # Ready accounting helpers
    # ------------------------------------------------------------------

    def _park(self, wf: TimingWavefront, reason: str, now: int) -> None:
        """Park a wavefront the issue scan just visited (so it was
        schedulable); it leaves the ready set until an event unparks it.
        A traced run charges the blocked interval at the wake."""
        wf.state = PARKED
        self.simd_ready[wf.simd_id] -= 1
        trace = self.trace
        if trace is not None and trace.wants_stall:
            wf.park_reason = reason
            wf.parked_at = now

    def _wake(self, wf: TimingWavefront) -> None:
        """An event completed for ``wf``: unpark it and make this CU (and
        the dispatcher's idle floor) look again."""
        if wf.state == PARKED:
            wf.state = READY
            self.simd_ready[wf.simd_id] += 1
            trace = self.trace
            if trace is not None and trace.wants_stall:
                trace.stall(wf.park_reason, wf.parked_at, self.cu_id,
                            wf.wf_id, dur=self.events.now - wf.parked_at)
        self.next_wake = 0
        gpu = self.gpu
        gpu._wake_floor = 0
        gpu._last_progress_cycle = self.events.now  # inline notify

    def _refetch(self, wf: TimingWavefront, new_pc: int) -> None:
        """Flush ``wf``'s buffer to refetch from ``new_pc`` and keep the
        CU's fetch-candidate count exact."""
        want = wf.flush_ib(new_pc)
        if want != wf.fetch_want:
            wf.fetch_want = want
            self.fetch_ready += 1 if want else -1

    # ------------------------------------------------------------------
    # Per-cycle work
    # ------------------------------------------------------------------

    def cycle(self, now: int) -> bool:
        """One cycle of fetch + issue.  Returns whether anything happened
        and leaves the CU's exact wake cycle in ``next_wake``."""
        # One attribute fetch per cycle; every instrumentation point below
        # is a plain ``is not None`` check when tracing is off.
        trace: Optional[TraceBus] = self.trace
        self.next_wake = NEVER_WAKE  # a barrier opening below resets it

        did = bool(self.fetch_ready) and self._start_fetch(now)
        hint = NEVER_WAKE
        simd_free = self.simd_free
        simd_ready = self.simd_ready
        for simd, wfs in enumerate(self.simd_wfs):
            free = simd_free[simd]
            if free > now:
                if free < hint:
                    hint = free
                continue
            if not simd_ready[simd]:
                continue
            for wf in wfs:
                if wf.state:
                    continue
                wf_hint = wf.next_issue_cycle
                if wf_hint <= now:
                    wf_hint = self._try_issue(wf, simd, now, trace)
                    if wf_hint is True:
                        # Nothing else issues from this SIMD before it
                        # frees: after a VALU issue, or else next cycle.
                        did = True
                        free = simd_free[simd]
                        wf_hint = free if free > now else now + 1
                        if wf_hint < hint:
                            hint = wf_hint
                        break
                if wf_hint is not None and wf_hint < hint:
                    hint = wf_hint
        if self.fetch_ready or not self.next_wake:
            hint = now + 1
        self.next_wake = hint
        return did

    # -- fetch ------------------------------------------------------------

    def _start_fetch(self, now: int) -> bool:
        """Start one fetch, for the first candidate at or after the
        round-robin pointer."""
        wfs = self._all_wfs
        n = self._n_wfs
        rr = self.fetch_rr
        for k in range(n):
            wf = wfs[(rr + k) % n]
            if wf.fetch_want:
                break
        else:
            return False
        self.fetch_rr = (rr + k + 1) % n
        wf.fetch_inflight = True
        wf.fetch_want = False
        self.fetch_ready -= 1
        line = wf.fetch_lines[wf.fetch_index]
        done_cycle = self.memsys.ifetch(self.cu_id, line, now)
        self.events.schedule_at(done_cycle if done_cycle > now else now + 1,
                                self._finish_fetch, wf, wf.fetch_epoch)
        trace: Optional[TraceBus] = self.trace
        if trace is not None and trace.wants_fetch:
            trace.emit("fetch", "ifetch", now,
                       dur=max(done_cycle - now, 1), cu=self.cu_id,
                       wf=wf.wf_id, args={"line": line})
        return True

    def _finish_fetch(self, wf: TimingWavefront, epoch: int) -> None:
        if epoch != wf.fetch_epoch:
            return  # flushed while in flight
        # In flight, it was no candidate; the fill says if it is now.
        if wf.fill_ib():
            wf.fetch_want = True
            self.fetch_ready += 1
        self._wake(wf)

    # -- issue ------------------------------------------------------------

    def _try_issue(self, wf: TimingWavefront, simd: int, now: int,
                   trace: Optional[TraceBus]) -> "Optional[int] | bool":
        """Issue ``wf``'s next instruction if nothing blocks it: True once
        issued, else a wake hint (``None``: only an event can wake it).
        The caller has checked ``wf.next_issue_cycle``."""
        cursor = wf.cursor
        gcn3 = wf.is_gcn3

        # HSAIL reconvergence-stack handling: a pending-path switch is a
        # simulator-initiated jump that flushes the instruction buffer.
        # The functional pass recorded it ahead of the instruction it
        # precedes, so it fires on the wavefront's first issue attempt
        # after the previous instruction.
        if cursor.jump_armed and not gcn3:
            self._flush(wf, cursor.take_jump())
            # The refetch starts next cycle; keep the clock moving.
            return now + 1

        ib_len = wf.ib_len
        if not ib_len:
            self._park(wf, "fetch_wait", now)  # woken by the fetch fill
            return None
        pc = cursor.pc
        if wf.fetch_index - ib_len != pc:
            # Stale buffer (a flush raced with an already-checked fetch
            # stage); resynchronize and wake next cycle for the refetch.
            self._refetch(wf, pc)
            if trace is not None and trace.wants_stall:
                trace.stall("ib_resync", now, self.cu_id, wf.wf_id)
            return now + 1

        desc = wf.descs[pc]
        config = self.config

        # GCN3 stalls on dependencies only at explicit s_waitcnt; HSAIL
        # always consults its scoreboard.
        if gcn3:
            if desc.is_waitcnt and self._waitcnt_blocks(wf, desc, now, trace):
                return None
        else:
            release = wf.slot_release(desc.rw_slots, now)
            if release:
                if release < 0:
                    self._park(wf, "scoreboard_mem", now)  # in-flight memory
                    return None
                # The release cycle is exact and only this wavefront's
                # own issues move it, so polling before it is futile.
                wf.next_issue_cycle = release
                if trace is not None and trace.wants_stall:
                    trace.stall("scoreboard", now, self.cu_id, wf.wf_id,
                                dur=release - now)
                return release
            if (desc.is_memory
                    and wf.pending_vmem >= config.max_outstanding_vmem):
                self._park(wf, "vmem_capacity", now)
                return None

        # --- unit occupancy ---
        # The SIMD itself was checked by the caller; only off-SIMD units
        # need the structural-hazard probe.  (A GCN3 vector access past
        # the outstanding limit is not held back by the port.)
        unit = desc.unit
        if unit == UNIT_SIMD:
            cost = config.valu_issue_cycles * desc.valu_mult
            self.simd_free[simd] = now + cost
            if cost > 1 and trace is not None and trace.wants_stall:
                # The SIMD's other wavefronts wait out the occupancy.
                trace.stall("simd_busy", now + 1, self.cu_id, dur=cost - 1)
            if not gcn3:
                # Scoreboard release at writeback: the simulated pipeline
                # has no forwarding network (the real machine relies on
                # finalizer scheduling instead), so dependents wait out
                # the full depth (paper §III.B.2).
                wf.mark_busy(desc.write_slots,
                             now + cost + 2 * config.valu_issue_cycles)
            gather = cost
        else:
            free = self.unit_free[unit]
            if free > now and (
                    unit != UNIT_VMEM
                    or wf.pending_vmem < config.max_outstanding_vmem):
                # Every attempt before ``free`` would fail the same way.
                wf.next_issue_cycle = free
                if trace is not None and trace.wants_stall:
                    trace.stall(_UNIT_STALL_REASON[unit], now, self.cu_id,
                                wf.wf_id, dur=free - now)
                return free
            cost = self.unit_cost[unit]
            self.unit_free[unit] = now + cost
            gather = 2

        # --- VRF gather window (bank-conflict timing) ---
        # Only source reads contend for the operand-gather ports; writes
        # drain through the separate writeback port.  Each operand's bank
        # stays busy for the instruction's full gather window.
        banks = self.read_banks[pc]
        if banks:
            self.vrf.note_access(banks, now, gather)
            if trace is not None and trace.wants_vrf:
                trace.emit("vrf", "gather", now, dur=gather, cu=self.cu_id,
                           wf=wf.wf_id, args={"slots": list(desc.read_slots)})

        # The recorded outcome stands in for the functional execution.
        # Every statistic the trace determines (instruction mix, reuse
        # distance, probes, utilization) was folded into the StatSet at
        # placement, so only timing state advances from here on.
        _pc, active, mem, lines, target, _next, barrier, ends = (
            cursor.advance(pc))
        wf.next_issue_cycle = now + 1

        if trace is not None and trace.wants_issue:
            trace.emit("issue", desc.opcode, now, dur=cost,
                       cu=self.cu_id, wf=wf.wf_id,
                       args={"pc": pc, "cat": desc.category.value,
                             "active": active})

        if mem:
            self._handle_memory(wf, desc, mem, lines, now, cost, trace)

        # --- control flow / IB maintenance ---
        wf.ib_len = ib_len - 1
        if target is not None:
            self._flush(wf, target)
        elif not (ends or wf.fetch_want or wf.fetch_inflight
                  or wf.fetch_index >= wf.num_instrs):
            # The pop made room in a full buffer.
            wf.fetch_want = True
            self.fetch_ready += 1
        if barrier:
            self._arrive_barrier(wf, self.workgroups[wf.wg_key])
        if ends:
            wf.state = DONE  # done WFs leave the ready set
            self.simd_ready[wf.simd_id] -= 1
            if wf.fetch_want:
                wf.fetch_want = False
                self.fetch_ready -= 1
            record = self.workgroups[wf.wg_key]
            # Siblings already at a barrier wait only for live wavefronts.
            self._release_barrier(record)
            if record.alive() == 0:
                self._retire_workgroup(record)
        return True

    def _waitcnt_blocks(self, wf: TimingWavefront, desc: IssueDesc, now: int,
                        trace: Optional[TraceBus]) -> bool:
        """Park ``wf`` if its ``s_waitcnt`` thresholds are not met yet —
        GCN3's one explicit dependency-stall point (paper §III.B.2)."""
        vm = desc.wait_vm
        lgkm = desc.wait_lgkm
        if vm is not None and wf.pending_vmem > vm:
            reason = "waitcnt_vm"
        elif lgkm is not None and wf.pending_lgkm > lgkm:
            reason = "waitcnt_lgkm"
        else:
            return False
        self._park(wf, reason, now)  # woken by a memory completion
        if trace is not None and trace.wants_wait:
            trace.emit("wait", "s_waitcnt", now, cu=self.cu_id,
                       wf=wf.wf_id,
                       args={"reason": reason,
                             "vmcnt": vm,
                             "lgkmcnt": lgkm,
                             "pending_vmem": wf.pending_vmem,
                             "pending_lgkm": wf.pending_lgkm})
        return True

    def _handle_memory(self, wf: TimingWavefront, desc: IssueDesc, mem: int,
                       lines: List[int], now: int, issue_cost: int,
                       trace: Optional[TraceBus]) -> None:
        # An access that recorded no line still occupies one line slot.
        lines = lines or [0]
        written = desc.write_slots if not wf.is_gcn3 else ()
        if mem == _MEM_LDS:
            done = now + issue_cost + self.config.lds_latency
            wf.pending_lgkm += 1
            if written:
                wf.mark_mem_busy(written)
            self.events.schedule_at(done if done > now else now + 1,
                                    self._finish_lgkm, wf, written)
            kind = "lds"
        elif mem == _MEM_SCALAR:
            done = self.memsys.scalar_access(self.cu_id, lines, now + issue_cost)
            wf.pending_lgkm += 1
            self.events.schedule_at(done if done > now else now + 1,
                                    self._finish_lgkm, wf, ())
            kind = "scalar_load"
        else:
            done = self.memsys.vector_access(
                self.cu_id, lines, mem == _MEM_STORE, now + issue_cost)
            wf.pending_vmem += 1
            if written:
                wf.mark_mem_busy(written)
            self.events.schedule_at(done if done > now else now + 1,
                                    self._finish_vmem, wf, written)
            kind = _MEM_KINDS[mem]
        if trace is not None and trace.wants_mem:
            trace.emit("mem", desc.opcode, now, dur=max(done - now, 1),
                       cu=self.cu_id, wf=wf.wf_id,
                       args={"kind": kind,
                             "lines": 0 if mem == _MEM_LDS else len(lines)})

    def _finish_vmem(self, wf: TimingWavefront, slots: Tuple[int, ...]) -> None:
        wf.pending_vmem -= 1
        if slots:
            wf.release_mem_busy(slots)
        self._wake(wf)

    def _finish_lgkm(self, wf: TimingWavefront, slots: Tuple[int, ...]) -> None:
        """A scalar load (no slots) or an LDS access completed."""
        wf.pending_lgkm -= 1
        if slots:
            wf.release_mem_busy(slots)
        self._wake(wf)

    def _flush(self, wf: TimingWavefront, new_pc: int) -> None:
        # The trace's fold counts IB_FLUSHES (timing/vector.py): a
        # flush is decided by the recorded stream, never by timing.
        self._refetch(wf, new_pc)
        trace: Optional[TraceBus] = self.gpu.trace
        if trace is not None and trace.wants_flush:
            trace.emit("flush", "ib_flush", self.gpu.events.now,
                       cu=self.cu_id, wf=wf.wf_id, args={"new_pc": new_pc})

    def _arrive_barrier(self, wf: TimingWavefront, record: WorkgroupRecord) -> None:
        wf.state = AT_BARRIER
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
                if other.state == AT_BARRIER:
                    other.state = READY
                    simd_ready[other.simd_id] += 1
            self.next_wake = 0  # the released may issue next cycle
            self.gpu.notify_progress()


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: Stall-trace label for an instruction blocked on a busy off-SIMD unit,
#: by predecoded unit id (BRANCH/MISC already resolved per ISA).
_UNIT_STALL_REASON = {
    UNIT_SCALAR: "scalar_busy",
    UNIT_BRANCH: "branch_busy",
    UNIT_VMEM: "vmem_busy",
    UNIT_LDS: "lds_busy",
}
