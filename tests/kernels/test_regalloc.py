"""Generic liveness / linear-scan allocator tests."""

import random
from typing import Set

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import RegisterAllocationError
from repro.kernels.regalloc import (
    _SlotPool,
    allocate_registers,
    build_intervals,
    compute_live_in,
    linear_scan,
    LiveInterval,
    succs_from_instrs,
)


def straight(uses, defs):
    n = len(uses)
    succs = [[i + 1] for i in range(n - 1)] + [[]]
    return uses, defs, succs


class TestLiveness:
    def test_simple_def_use(self):
        uses, defs, succs = straight([[], [0]], [[0], []])
        live_in = compute_live_in(1, uses, defs, succs)
        assert live_in[0] == 0          # defined here, not live in
        assert live_in[1] == 1          # used here

    def test_live_through(self):
        uses, defs, succs = straight([[], [], [0]], [[0], [], []])
        live_in = compute_live_in(1, uses, defs, succs)
        assert live_in[1] == 1

    def test_loop_carried_value(self):
        # 0: def v0 ; 1: use v0, def v0 ; 2: cbr->1 ; 3: use v0, ret
        uses = [[], [0], [], [0]]
        defs = [[0], [0], [], []]
        succs = [[1], [2], [1, 3], []]
        live_in = compute_live_in(1, uses, defs, succs)
        assert live_in[1] == 1
        assert live_in[2] == 1  # live around the backedge

    def test_intervals_cover_loop(self):
        uses = [[], [0], [], [0]]
        defs = [[0], [0], [], []]
        succs = [[1], [2], [1, 3], []]
        intervals = build_intervals(1, uses, defs, succs, lambda v: 1)
        assert intervals[0].start == 0
        assert intervals[0].end == 3

    def test_dead_value_has_no_interval(self):
        uses, defs, succs = straight([[], []], [[0], []])
        # v0 never used: still gets a point interval at its def
        intervals = build_intervals(1, uses, defs, succs, lambda v: 1)
        assert intervals[0].start == intervals[0].end == 0


class TestLinearScan:
    def test_reuses_freed_slots(self):
        intervals = [
            LiveInterval(vreg=0, start=0, end=1, width=1),
            LiveInterval(vreg=1, start=2, end=3, width=1),
        ]
        result = linear_scan(intervals, budget=16)
        assert result.slot_of[0] == result.slot_of[1]
        assert result.slots_used <= 2

    def test_overlapping_get_distinct_slots(self):
        intervals = [
            LiveInterval(vreg=0, start=0, end=5, width=1),
            LiveInterval(vreg=1, start=1, end=4, width=1),
        ]
        result = linear_scan(intervals, budget=16)
        assert result.slot_of[0] != result.slot_of[1]

    def test_pairs_are_even_aligned(self):
        intervals = [
            LiveInterval(vreg=0, start=0, end=9, width=1),
            LiveInterval(vreg=1, start=0, end=9, width=2),
        ]
        result = linear_scan(intervals, budget=16)
        assert result.slot_of[1] % 2 == 0

    def test_reserved_slots_avoided(self):
        intervals = [LiveInterval(vreg=0, start=0, end=1, width=1)]
        result = linear_scan(intervals, budget=8, reserved={0, 1, 2})
        assert result.slot_of[0] == 3

    def test_spills_when_budget_exceeded(self):
        intervals = [
            LiveInterval(vreg=v, start=0, end=10, width=1) for v in range(4)
        ]
        result = linear_scan(intervals, budget=2)
        assert len(result.spilled) == 2
        assert len(result.slot_of) == 2

    def test_furthest_end_evicted_first(self):
        intervals = [
            LiveInterval(vreg=0, start=0, end=100, width=1),  # long-lived
            LiveInterval(vreg=1, start=1, end=2, width=1),    # short
        ]
        result = linear_scan(intervals, budget=1)
        assert 0 in result.spilled
        assert 1 in result.slot_of

    @given(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 10),
                  st.sampled_from([1, 2])),
        min_size=1, max_size=24))
    def test_no_overlapping_assignments(self, raw):
        intervals = [
            LiveInterval(vreg=i, start=s, end=s + d, width=w)
            for i, (s, d, w) in enumerate(raw)
        ]
        result = linear_scan(intervals, budget=64)
        by_vreg = {iv.vreg: iv for iv in intervals}
        assigned = [(v, slot) for v, slot in result.slot_of.items()]
        for i, (v1, s1) in enumerate(assigned):
            for v2, s2 in assigned[i + 1:]:
                iv1, iv2 = by_vreg[v1], by_vreg[v2]
                overlap_time = not (iv1.end < iv2.start or iv2.end < iv1.start)
                r1 = set(range(s1, s1 + iv1.width))
                r2 = set(range(s2, s2 + iv2.width))
                if overlap_time:
                    assert not (r1 & r2), (v1, v2, result.slot_of)


class TestEndToEnd:
    def test_allocate_registers_smoke(self):
        uses = [[], [0], [0, 1], [2]]
        defs = [[0], [1], [2], []]
        succs = [[1], [2], [3], []]
        result = allocate_registers(
            num_vregs=3, uses=uses, defs=defs, succs=succs,
            width_of=lambda v: 1, budget=8,
        )
        assert not result.spilled
        assert set(result.slot_of) == {0, 1, 2}

    def test_succs_from_instrs(self):
        def branch_of(i):
            return (0, True) if i == 2 else None

        succs = succs_from_instrs(4, branch_of, lambda i: i == 3)
        assert succs == [[1], [2], [0, 3], []]


# ---------------------------------------------------------------------------
# _SlotPool against the first-fit scan it replaced
# ---------------------------------------------------------------------------


class _ScanSlotPool:
    """The first-fit scan ``_SlotPool`` replaced, kept verbatim as the
    oracle: every take is a scan over the whole budget."""

    def __init__(self, budget: int, reserved: Set[int]) -> None:
        self.budget = budget
        self.free = [i not in reserved for i in range(budget)]
        self.high_water = 0
        for r in reserved:
            if r < budget:
                self.high_water = max(self.high_water, r + 1)

    def take(self, width: int) -> int:
        if width == 1:
            # Prefer slots whose even-aligned partner is taken, so pairs
            # keep finding aligned homes (avoids fragmentation livelock
            # when spill temps need pairs in saturated regions).
            fallback = -1
            for i in range(self.budget):
                if not self.free[i]:
                    continue
                partner = i ^ 1
                if partner >= self.budget or not self.free[partner]:
                    self.free[i] = False
                    self.high_water = max(self.high_water, i + 1)
                    return i
                if fallback < 0:
                    fallback = i
            if fallback >= 0:
                # Take the odd half of a fully-free pair.
                i = fallback | 1 if (fallback | 1) < self.budget and self.free[fallback | 1] else fallback
                self.free[i] = False
                self.high_water = max(self.high_water, i + 1)
                return i
        elif width == 2:
            for i in range(0, self.budget - 1, 2):
                if self.free[i] and self.free[i + 1]:
                    self.free[i] = self.free[i + 1] = False
                    self.high_water = max(self.high_water, i + 2)
                    return i
        else:
            raise RegisterAllocationError(f"unsupported register width {width}")
        return -1

    def release(self, base: int, width: int) -> None:
        for i in range(base, base + width):
            self.free[i] = True


@pytest.mark.parametrize("seed", range(12))
def test_slot_pool_matches_first_fit_scan(seed):
    """Seeded take/release sequences of widths 1 and 2, on even and odd
    budgets with and without reserved slots: the filed pool returns the
    scan's slot at every take and agrees on the free map and the high
    water mark after every step."""
    rng = random.Random(seed)
    budget = rng.choice([1, 2, 3, 7, 8, 16, 33, 102, 256, 2048])
    reserved = {rng.randrange(budget + 2) for _ in range(rng.randrange(4))}
    pool = _SlotPool(budget, set(reserved))
    oracle = _ScanSlotPool(budget, set(reserved))
    held = []
    for _ in range(400 if budget < 2048 else 120):
        if held and rng.random() < 0.4:
            base, width = held.pop(rng.randrange(len(held)))
            pool.release(base, width)
            oracle.release(base, width)
        else:
            width = rng.choice([1, 1, 2])
            got = pool.take(width)
            assert got == oracle.take(width)
            if got >= 0:
                held.append((got, width))
        assert pool.free == oracle.free
        assert pool.high_water == oracle.high_water


def test_slot_pool_rejects_other_widths():
    with pytest.raises(RegisterAllocationError):
        _SlotPool(8, set()).take(3)
