"""VRF probe tests: bank conflicts, reuse distance, uniqueness."""

import numpy as np

from repro.common.stats import StatSet
from repro.timing.registerfile import VrfModel, unique_counts


def make_vrf():
    stats = StatSet()
    return VrfModel(num_banks=4, stats=stats), stats


class TestBankConflicts:
    def test_one_instruction_does_not_self_conflict(self):
        vrf, stats = make_vrf()
        vrf.note_access([0, 4, 8], now=0, duration=4)  # all bank 0
        vrf.flush()
        # the three operands occupy bank 0 but belong to one gather
        assert stats["vrf_bank_conflicts"] == 0

    def test_two_instructions_same_bank_conflict(self):
        vrf, stats = make_vrf()
        vrf.note_access([0], now=0, duration=4)
        vrf.note_access([4], now=0, duration=4)  # also bank 0
        vrf.flush()
        assert stats["vrf_bank_conflicts"] == 4  # overlap on all 4 cycles

    def test_different_banks_no_conflict(self):
        vrf, stats = make_vrf()
        vrf.note_access([0], now=0, duration=4)
        vrf.note_access([1], now=0, duration=4)
        vrf.flush()
        assert stats["vrf_bank_conflicts"] == 0

    def test_disjoint_windows_no_conflict(self):
        vrf, stats = make_vrf()
        vrf.note_access([0], now=0, duration=4)
        vrf.note_access([4], now=4, duration=4)
        vrf.flush()
        assert stats["vrf_bank_conflicts"] == 0

    def test_partial_overlap(self):
        vrf, stats = make_vrf()
        vrf.note_access([0], now=0, duration=4)
        vrf.note_access([4], now=2, duration=4)
        vrf.flush()
        assert stats["vrf_bank_conflicts"] == 2  # cycles 2 and 3

    def test_untraced_counts_eagerly_and_collect_never_double_counts(self):
        # Without per-cycle trace emission the model counts each conflict
        # the moment the overlapping gather is recorded (the per-cycle
        # totals are order-independent), so both overlap cycles are
        # visible immediately and collect()/flush() add nothing.
        vrf, stats = make_vrf()
        vrf.note_access([0], now=0, duration=2)
        vrf.note_access([4], now=0, duration=2)
        assert stats["vrf_bank_conflicts"] == 2
        vrf.collect(1)
        vrf.collect(10)
        vrf.flush()
        assert stats["vrf_bank_conflicts"] == 2

    def test_expired_windows_never_conflict_with_later_issues(self):
        vrf, stats = make_vrf()
        vrf.note_access([0], now=0, duration=2)   # bank 0, window [0, 2)
        vrf.note_access([4], now=5, duration=2)   # bank 0, but [0,2) ended
        assert stats["vrf_bank_conflicts"] == 0
        vrf.note_access([8], now=5, duration=2)   # overlaps the live window
        assert stats["vrf_bank_conflicts"] == 2
        # the untraced fast path keeps no per-cycle state at all
        assert vrf._pending == {}

    def test_empty_slots_noop(self):
        vrf, stats = make_vrf()
        vrf.note_access([], now=0, duration=4)
        vrf.flush()
        assert stats["vrf_bank_conflicts"] == 0


class TestReuseDistance:
    def test_distance_counted_between_accesses(self):
        vrf, stats = make_vrf()
        tracker = {}
        vrf.record_reuse(tracker, 1, [5])
        vrf.record_reuse(tracker, 4, [5])
        assert stats.reuse_distance.count == 1
        assert stats.reuse_distance.median == 3

    def test_first_access_records_nothing(self):
        vrf, stats = make_vrf()
        vrf.record_reuse({}, 1, [5, 6, 7])
        assert stats.reuse_distance.count == 0

    def test_per_slot_tracking(self):
        vrf, stats = make_vrf()
        tracker = {}
        vrf.record_reuse(tracker, 1, [1])
        vrf.record_reuse(tracker, 2, [2])
        vrf.record_reuse(tracker, 10, [1, 2])
        dist = stats.reuse_distance
        assert dist.count == 2
        assert dist.total == (10 - 1) + (10 - 2)


class TestUniqueness:
    def test_all_same_value(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        regs[1][:] = 7
        assert unique_counts(regs, [1], np.ones(64, dtype=bool), 64) == [1]

    def test_all_unique_values(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        regs[1] = np.arange(64)
        assert unique_counts(regs, [1, 2], np.ones(64, dtype=bool),
                             64) == [64, 1]

    def test_only_active_lanes_counted(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        regs[1] = np.arange(64)
        mask = np.zeros(64, dtype=bool)
        mask[:8] = True
        assert unique_counts(regs, [1], mask, 8) == [8]

    def test_no_active_lanes_noop(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        assert unique_counts(regs, [1], np.zeros(64, dtype=bool), 0) == []
