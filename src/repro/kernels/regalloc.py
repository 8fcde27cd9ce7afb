"""Generic liveness analysis and linear-scan register allocation.

Both code generators use this engine: the HSAIL generator allocates one
class of 32-bit slots (budget 2,048, never spills in practice), and the
GCN3 finalizer runs it twice — once for SGPRs (budget 102) and once for
VGPRs (budget 256) — inserting scratch spill code and re-running when the
budget is exceeded.

The instruction space is abstract: callers provide per-instruction
``uses``/``defs`` (virtual register ids) and a successor map.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..common.errors import RegisterAllocationError


@dataclass
class LiveInterval:
    """Conservative linear live range of one virtual register."""

    vreg: int
    start: int
    end: int
    width: int  # slots (1 or 2)


def compute_live_in(
    num_vregs: int,
    uses: Sequence[Sequence[int]],
    defs: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
) -> List[int]:
    """Per-instruction live-in sets as bit masks over vreg ids."""
    n = len(uses)
    use_mask = [0] * n
    def_mask = [0] * n
    for i in range(n):
        for v in uses[i]:
            use_mask[i] |= 1 << v
        for v in defs[i]:
            def_mask[i] |= 1 << v
    live_in = [0] * n
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            live_out = 0
            for s in succs[i]:
                live_out |= live_in[s]
            new = use_mask[i] | (live_out & ~def_mask[i])
            if new != live_in[i]:
                live_in[i] = new
                changed = True
    _ = num_vregs
    return live_in


def build_intervals(
    num_vregs: int,
    uses: Sequence[Sequence[int]],
    defs: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
    width_of: Callable[[int], int],
) -> List[LiveInterval]:
    """Collapse liveness into one conservative interval per register."""
    live_in = compute_live_in(num_vregs, uses, defs, succs)
    n = len(uses)
    start = [n] * num_vregs
    end = [-1] * num_vregs
    for i in range(n):
        for v in defs[i]:
            if i < start[v]:
                start[v] = i
            if i > end[v]:
                end[v] = i
        for v in uses[i]:
            if i > end[v]:
                end[v] = i
    # Fold the live-in masks in a single ascending and a single
    # descending sweep, visiting each register's bit only at its first
    # (= min) and last (= max) live instruction instead of every one.
    seen = 0
    for i in range(n):
        new = live_in[i] & ~seen
        while new:
            v = (new & -new).bit_length() - 1
            new &= new - 1
            if i < start[v]:
                start[v] = i
        seen |= live_in[i]
    seen = 0
    for i in range(n - 1, -1, -1):
        new = live_in[i] & ~seen
        while new:
            v = (new & -new).bit_length() - 1
            new &= new - 1
            if i > end[v]:
                end[v] = i
        seen |= live_in[i]
    out: List[LiveInterval] = []
    for v in range(num_vregs):
        if end[v] >= 0:
            out.append(LiveInterval(vreg=v, start=start[v], end=end[v], width=width_of(v)))
    return out


@dataclass
class AllocationResult:
    """Outcome of one linear-scan pass."""

    slot_of: Dict[int, int]   # vreg -> base slot
    slots_used: int           # high-water mark (1 + max slot index)
    spilled: List[int]        # vregs that did not fit, by spill choice


class _SlotPool:
    """First-fit pool of 32-bit slots with even alignment for pairs.

    Free slots are kept sorted in two lists: ``pairs`` (even bases of
    fully free aligned pairs) and ``singles`` (free, partner taken or
    past the budget).  One slot prefers the lowest single, so pairs keep
    finding aligned homes (avoids fragmentation livelock when spill temps
    need pairs in saturated regions).
    """

    def __init__(self, budget: int, reserved: Set[int]) -> None:
        self.budget = budget
        self.free = free = [i not in reserved for i in range(budget)]
        self.high_water = 0
        for r in reserved:
            if r < budget:
                self.high_water = max(self.high_water, r + 1)
        self.pairs = [i for i in range(0, budget - 1, 2)
                      if free[i] and free[i + 1]]
        self.singles = [i for i in range(budget) if free[i]
                        and not (i ^ 1 < budget and free[i ^ 1])]

    def take(self, width: int) -> int:
        if width == 1:
            if self.singles:
                i = self.singles.pop(0)
            elif self.pairs:  # the odd half of the lowest free pair
                base = self.pairs.pop(0)
                insort(self.singles, base)
                i = base + 1
            else:
                return -1
            self.free[i] = False
            self.high_water = max(self.high_water, i + 1)
            return i
        if width == 2:
            if not self.pairs:
                return -1
            i = self.pairs.pop(0)
            self.free[i] = self.free[i + 1] = False
            self.high_water = max(self.high_water, i + 2)
            return i
        raise RegisterAllocationError(f"unsupported register width {width}")

    def release(self, base: int, width: int) -> None:
        free = self.free
        for i in range(base, base + width):
            if free[i]:
                continue
            free[i] = True
            partner = i ^ 1
            if partner < self.budget and free[partner]:
                # The aligned pair is whole again.
                del self.singles[bisect_left(self.singles, partner)]
                insort(self.pairs, i & ~1)
            else:
                insort(self.singles, i)


def linear_scan(
    intervals: Sequence[LiveInterval],
    budget: int,
    reserved: Set[int] = frozenset(),
    no_spill: Set[int] = frozenset(),
) -> AllocationResult:
    """Classic linear scan.  Intervals that do not fit are reported as
    spilled (furthest-end-first eviction), not assigned.

    ``no_spill`` intervals (spill-code temporaries) are never reported as
    spilled themselves; when one cannot be placed, spillable occupants are
    evicted until it fits.
    """
    pool = _SlotPool(budget, set(reserved))
    slot_of: Dict[int, int] = {}
    spilled: List[int] = []
    # Sorted by end, equal ends in placement order; ``ends`` mirrors it
    # for bisection (``bisect``'s ``key=`` needs Python 3.10).
    active: List[LiveInterval] = []
    ends: List[int] = []
    for interval in sorted(intervals, key=lambda iv: (iv.start, iv.vreg)):
        # Expire finished intervals: a prefix of ``active``.
        done = bisect_left(ends, interval.start)
        for a in active[:done]:
            pool.release(slot_of[a.vreg], a.width)
        del active[:done], ends[:done]
        base = pool.take(interval.width)
        pinned = interval.vreg in no_spill
        while base < 0:
            # Prefer same-or-wider victims (one eviction frees the room);
            # a pinned newcomer may evict anything spillable, repeatedly,
            # until an aligned home opens up.
            candidates = [
                a for a in active
                if a.vreg not in no_spill
                and (a.width >= interval.width or pinned)
            ]
            victim = max(candidates, key=lambda a: (a.width >= interval.width, a.end),
                         default=None)
            outlives = victim is not None and victim.end > interval.end
            if victim is not None and (outlives or pinned):
                pool.release(slot_of.pop(victim.vreg), victim.width)
                at = active.index(victim)
                del active[at], ends[at]
                spilled.append(victim.vreg)
                base = pool.take(interval.width)
                continue
            break
        if base < 0:
            if pinned:
                raise RegisterAllocationError(
                    f"cannot place spill temporary %v{interval.vreg}"
                )
            spilled.append(interval.vreg)
            continue
        slot_of[interval.vreg] = base
        at = bisect_right(ends, interval.end)
        active.insert(at, interval)
        ends.insert(at, interval.end)
    return AllocationResult(slot_of=slot_of, slots_used=pool.high_water, spilled=spilled)


def allocate_registers(
    num_vregs: int,
    uses: Sequence[Sequence[int]],
    defs: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
    width_of: Callable[[int], int],
    budget: int,
    reserved: Set[int] = frozenset(),
    no_spill: Set[int] = frozenset(),
) -> AllocationResult:
    """Liveness + linear scan in one call."""
    intervals = build_intervals(num_vregs, uses, defs, succs, width_of)
    return linear_scan(intervals, budget, reserved, no_spill)


def succs_from_instrs(
    num_instrs: int,
    branch_target_of: Callable[[int], "Tuple[int, bool] | None"],
    is_return: Callable[[int], bool],
) -> List[List[int]]:
    """Successor map helper shared by the ISA-specific allocators."""
    succs: List[List[int]] = []
    for i in range(num_instrs):
        if is_return(i):
            succs.append([])
            continue
        bt = branch_target_of(i)
        if bt is None:
            succs.append([i + 1] if i + 1 < num_instrs else [])
            continue
        target, conditional = bt
        if conditional and i + 1 < num_instrs:
            succs.append(sorted({i + 1, target}))
        else:
            succs.append([target])
    return succs
