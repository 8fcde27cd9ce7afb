"""Timing-side wavefront state: instruction buffer, dependency state,
and fetch bookkeeping around the replay cursor that stands in for the
functional register state (semantics ran earlier, in the functional
pass; see :mod:`repro.timing.funcsim`).

This object is touched on every simulated cycle, so it is deliberately
lean: ``slots=True`` (no per-instance ``__dict__``), the static
facts of its kernel predecoded once into ``descs``
(:mod:`repro.timing.predecode`), and a maintained ``fetch_want`` flag so
the CU's fetch arbiter counts candidates instead of re-deriving
``wants_fetch`` per wavefront per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..gcn3.isa import Gcn3Instr, Gcn3Kernel
from ..hsail.isa import HSAIL_INSTR_BYTES, HsailInstr, HsailKernel
from .predecode import IssueDesc, predecode_kernel
from .replay import ReplayCursor

AnyInstr = Union[HsailInstr, Gcn3Instr]


@dataclass(slots=True)
class TimingWavefront:
    """One wavefront as the CU pipeline sees it."""

    wf_id: int                      # global age (oldest-job-first key)
    simd_id: int
    wg_key: Tuple[int, int]         # (dispatch ordinal, workgroup index)
    #: the wavefront's recorded stream: ``pc``, ``done`` and every
    #: functional outcome the issue path consumes come from it.
    cursor: ReplayCursor
    code_base: int

    # Instruction buffer: (instruction index, encoded size) entries.
    ib: List[Tuple[int, int]] = field(default_factory=list)
    ib_capacity: int = 12
    fetch_index: int = 0            # next instruction index to fetch
    fetch_inflight: bool = False
    fetch_epoch: int = 0            # bumped on flush to drop stale fills

    # Dependency state.
    pending_vmem: int = 0
    pending_lgkm: int = 0
    busy_slots: Dict[int, int] = field(default_factory=dict)   # HSAIL scoreboard
    mem_busy_slots: Dict[int, int] = field(default_factory=dict)  # slot -> refcount

    at_barrier: bool = False
    #: Parked wavefronts wait on an event (fetch fill, memory completion)
    #: and are skipped by the issue scan until the event unparks them.
    parked: bool = False
    next_issue_cycle: int = 0

    # Derived, filled in by __post_init__ (static for the WF's lifetime
    # except fetch_want, which the owning CU keeps in sync).
    is_gcn3: bool = field(init=False, default=False)
    descs: Tuple[IssueDesc, ...] = field(init=False, default=())
    num_instrs: int = field(init=False, default=0)
    #: True iff :meth:`wants_fetch` — maintained by the CU via
    #: ``_sync_fetch`` at every fetch/IB/done transition so the fetch
    #: arbiter can early-out on a per-CU candidate count.
    fetch_want: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        cursor = self.cursor
        self.is_gcn3 = cursor.is_gcn3
        kernel = cursor.kernel
        self.descs = predecode_kernel(kernel)
        self.num_instrs = len(kernel.instrs)
        self.fetch_want = self.wants_fetch()

    @property
    def kernel(self) -> Union[HsailKernel, Gcn3Kernel]:
        return self.cursor.kernel

    @property
    def done(self) -> bool:
        return self.cursor.done

    def instr_at(self, index: int) -> AnyInstr:
        return self.cursor.kernel.instrs[index]

    def instr_size(self, index: int) -> int:
        return self.descs[index].size_bytes

    def instr_address(self, index: int) -> int:
        if self.is_gcn3:
            kernel = self.cursor.kernel
            return self.code_base + kernel.pc_of_index[index]  # type: ignore[union-attr]
        return self.code_base + HSAIL_INSTR_BYTES * index

    # -- instruction buffer ------------------------------------------------

    def ib_head(self) -> Optional[int]:
        return self.ib[0][0] if self.ib else None

    def ib_pop(self) -> None:
        if self.ib:
            self.ib.pop(0)

    def flush_ib(self, new_pc: int) -> None:
        """Discard buffered instructions and refetch from ``new_pc``."""
        self.ib.clear()
        self.fetch_index = new_pc
        self.fetch_epoch += 1
        self.fetch_inflight = False

    def wants_fetch(self) -> bool:
        return (
            not self.cursor.done
            and not self.fetch_inflight
            and self.fetch_index < self.num_instrs
            and len(self.ib) < self.ib_capacity
        )

    # -- HSAIL scoreboard -----------------------------------------------------

    def slots_ready(self, slots: Sequence[int], now: int) -> bool:
        busy = self.busy_slots
        mem_busy = self.mem_busy_slots
        if not busy and not mem_busy:
            return True
        for slot in slots:
            if busy.get(slot, 0) > now:
                return False
            if slot in mem_busy:
                return False
        return True

    def slots_ready_hint(self, slots: Sequence[int], now: int) -> Optional[int]:
        """Earliest cycle the time-based part of the scoreboard clears."""
        worst = None
        busy = self.busy_slots
        for slot in slots:
            release = busy.get(slot, 0)
            if release > now:
                worst = release if worst is None else max(worst, release)
        return worst

    def mark_busy(self, slots: Sequence[int], until: int) -> None:
        busy = self.busy_slots
        for slot in slots:
            prev = busy.get(slot, 0)
            if until > prev:
                busy[slot] = until

    def mark_mem_busy(self, slots: Sequence[int]) -> None:
        for slot in slots:
            self.mem_busy_slots[slot] = self.mem_busy_slots.get(slot, 0) + 1

    def release_mem_busy(self, slots: Sequence[int]) -> None:
        for slot in slots:
            count = self.mem_busy_slots.get(slot, 0) - 1
            if count <= 0:
                self.mem_busy_slots.pop(slot, None)
            else:
                self.mem_busy_slots[slot] = count
