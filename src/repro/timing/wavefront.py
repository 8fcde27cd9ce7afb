"""Timing-side wavefront state: instruction buffer, dependency state,
and fetch bookkeeping around the replay cursor that stands in for the
functional register state (semantics ran earlier, in the functional
pass; see :mod:`repro.timing.funcsim`).

This object is touched on every simulated cycle, so it is deliberately
lean: ``slots=True`` (no per-instance ``__dict__``), the static
facts of its kernel predecoded once into ``descs`` and the fetch tables
(:mod:`repro.timing.predecode`), one ``state`` the issue scan tests
instead of three conditions, and a maintained ``fetch_want`` flag so the
CU's fetch arbiter counts candidates instead of re-deriving
``wants_fetch`` per wavefront per cycle.

The instruction buffer is a length, not a list: fetch fills it in
program order from ``fetch_index`` and issue drains it from the front,
and a flush empties it and moves ``fetch_index``, so it always holds
exactly the instruction indices ``[fetch_index - ib_len, fetch_index)``.
A fill and a flush return the new ``fetch_want``.  The HSAIL scoreboard
is two per-slot lists (:func:`~repro.timing.predecode.scoreboard_size`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .predecode import (IssueDesc, fetch_tables, predecode_kernel,
                        scoreboard_size)
from .replay import ReplayCursor

#: ``TimingWavefront.state`` values; every one but READY keeps the
#: wavefront out of the issue scan.
READY = 0
PARKED = 1       # waits on an event (fetch fill, memory completion)
AT_BARRIER = 2   # waits for its workgroup's barrier to open
DONE = 3


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

    ib_capacity: int = 12
    fetch_width_bytes: int = 32
    ib_len: int = 0                 # buffered instructions (see module doc)
    fetch_index: int = 0            # next instruction index to fetch
    fetch_inflight: bool = False
    fetch_epoch: int = 0            # bumped on flush to drop stale fills

    # Dependency state.
    pending_vmem: int = 0
    pending_lgkm: int = 0
    # HSAIL scoreboard per slot: release cycle, in-flight memory refcount.
    busy_slots: List[int] = field(init=False, default_factory=list)
    mem_busy_slots: List[int] = field(init=False, default_factory=list)

    state: int = READY
    next_issue_cycle: int = 0
    # Traced runs only: why and since when the wavefront is parked (the
    # stall interval is charged when the completion event wakes it).
    park_reason: str = ""
    parked_at: int = 0

    # Derived, filled in by __post_init__ (static for the WF's lifetime
    # except fetch_want, which the owning CU keeps in sync).
    is_gcn3: bool = field(init=False, default=False)
    descs: Tuple[IssueDesc, ...] = field(init=False, default=())
    num_instrs: int = field(init=False, default=0)
    fetch_lines: Tuple[int, ...] = field(init=False, default=())
    fetch_fill: Tuple[int, ...] = field(init=False, default=())
    #: not done, no fetch in flight, code left and room in the buffer —
    #: maintained by the CU at every fetch/IB/done transition that can
    #: change it, so the fetch arbiter can count candidates per CU.
    fetch_want: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        cursor = self.cursor
        self.is_gcn3 = cursor.is_gcn3
        kernel = cursor.kernel
        self.descs = predecode_kernel(kernel)
        self.num_instrs = len(kernel.instrs)
        self.fetch_lines, self.fetch_fill = fetch_tables(
            kernel, self.code_base, self.fetch_width_bytes)
        size = scoreboard_size(kernel)
        self.busy_slots = [0] * size
        self.mem_busy_slots = [0] * size
        # A fresh wavefront is an empty buffer fetching from pc 0.
        self.fetch_want = self.flush_ib(0)

    @property
    def done(self) -> bool:
        return self.cursor.done

    # -- instruction buffer ------------------------------------------------

    def fill_ib(self) -> bool:
        """Deliver the fetch in flight: the instructions a fetch-width
        read from ``fetch_index`` holds, as far as the buffer has room.
        Returns the new fetch-candidate flag."""
        index = self.fetch_index
        count = self.fetch_fill[index]
        ib_len = self.ib_len
        room = self.ib_capacity - ib_len
        if count > room:
            count = room
        self.ib_len = ib_len = ib_len + count
        self.fetch_index = index = index + count
        self.fetch_inflight = False
        return (ib_len < self.ib_capacity and index < self.num_instrs
                and not self.cursor.done)

    def flush_ib(self, new_pc: int) -> bool:
        """Discard buffered instructions and refetch from ``new_pc``.
        Returns the new fetch-candidate flag."""
        self.ib_len = 0
        self.fetch_index = new_pc
        self.fetch_epoch += 1
        self.fetch_inflight = False
        return (0 < self.ib_capacity and new_pc < self.num_instrs
                and not self.cursor.done)

    # -- HSAIL scoreboard -----------------------------------------------------

    def slot_release(self, slots: Sequence[int], now: int) -> int:
        """One pass over the scoreboard for ``slots`` at ``now``: 0 when
        every slot is free, else the cycle the latest time-based
        reservation clears, or -1 when only in-flight memory (released
        by its completion event, not by time) holds one."""
        busy = self.busy_slots
        mem_busy = self.mem_busy_slots
        worst = 0
        on_mem = False
        for slot in slots:
            release = busy[slot]
            if release > worst:
                worst = release
            if mem_busy[slot]:
                on_mem = True
        if worst > now:
            return worst
        return -1 if on_mem else 0

    def mark_busy(self, slots: Sequence[int], until: int) -> None:
        busy = self.busy_slots
        for slot in slots:
            if until > busy[slot]:
                busy[slot] = until

    def mark_mem_busy(self, slots: Sequence[int]) -> None:
        for slot in slots:
            self.mem_busy_slots[slot] += 1

    def release_mem_busy(self, slots: Sequence[int]) -> None:
        for slot in slots:
            self.mem_busy_slots[slot] -= 1
