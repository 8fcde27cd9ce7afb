"""Statistics container tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.categories import CATEGORY_ORDER, InstrCategory
from repro.common.stats import Distribution, RatioProbe, StatSet, merge_all


class TestDistribution:
    def test_median_odd(self):
        d = Distribution()
        for v in (1, 3, 2):
            d.add(v)
        assert d.median == 2

    def test_median_repeats(self):
        d = Distribution()
        d.add(5, count=100)
        d.add(1000)
        assert d.median == 5

    def test_mean_and_total(self):
        d = Distribution()
        d.add(2, count=2)
        d.add(8)
        assert d.total == 12
        assert d.mean == 4

    def test_empty(self):
        d = Distribution()
        assert d.median == 0.0
        assert d.mean == 0.0

    def test_percentiles(self):
        d = Distribution()
        for v in range(1, 101):
            d.add(v)
        assert d.percentile(1) == 1
        assert d.percentile(50) == 50
        assert d.percentile(100) == 100

    def test_percentile_zero_returns_minimum(self):
        d = Distribution()
        for v in (7, 3, 9):
            d.add(v)
        # p=0 still targets the first sample (inclusive rank >= 1).
        assert d.percentile(0) == 3

    def test_percentile_hundred_returns_maximum(self):
        d = Distribution()
        for v in (7, 3, 9):
            d.add(v)
        assert d.percentile(100) == 9

    def test_percentile_single_sample_any_p(self):
        d = Distribution()
        d.add(42)
        for p in (0, 1, 50, 99, 100):
            assert d.percentile(p) == 42

    def test_percentile_key_cache_invalidated_by_add(self):
        """The sorted-key memo must never serve stale keys after add()."""
        d = Distribution()
        d.add(10)
        assert d.percentile(100) == 10   # primes the sorted-key cache
        d.add(5)                         # new smaller bucket
        assert d.percentile(0) == 5
        d.add(20)                        # new larger bucket
        assert d.percentile(100) == 20

    def test_percentile_key_cache_invalidated_by_merge(self):
        d = Distribution()
        d.add(10)
        assert d.percentile(50) == 10    # primes the sorted-key cache
        other = Distribution()
        other.add(1, count=10)
        d.merge(other)
        assert d.percentile(0) == 1
        assert d.percentile(50) == 1     # 10 of 11 samples sit at 1

    def test_percentile_cache_reuse_matches_fresh_distribution(self):
        """Repeated queries through the memo equal a cold computation."""
        d = Distribution()
        for v in (4, 9, 2, 9, 7):
            d.add(v)
        warm = [d.percentile(p) for p in (0, 25, 50, 75, 100)]
        fresh = Distribution()
        for v in (4, 9, 2, 9, 7):
            fresh.add(v)
        cold = [fresh.percentile(p) for p in (0, 25, 50, 75, 100)]
        assert warm == cold

    def test_percentile_on_merged_buckets(self):
        """Percentiles must respect counts accumulated into one bucket
        across merges, not just distinct values."""
        a, b = Distribution(), Distribution()
        a.add(1, count=98)
        b.add(1)          # same bucket as a's samples
        b.add(1000)
        a.merge(b)
        assert a.count == 100
        assert a.percentile(50) == 1
        assert a.percentile(99) == 1
        assert a.percentile(100) == 1000

    def test_percentile_empty_is_zero(self):
        assert Distribution().percentile(0) == 0.0
        assert Distribution().percentile(100) == 0.0

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            Distribution().percentile(101)
        with pytest.raises(ValueError):
            Distribution().percentile(-0.1)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            Distribution().add(1, count=0)

    def test_merge(self):
        a, b = Distribution(), Distribution()
        a.add(1, 10)
        b.add(3, 10)
        a.merge(b)
        assert a.count == 20
        assert a.mean == 2

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1))
    def test_median_is_within_samples(self, values):
        d = Distribution()
        for v in values:
            d.add(v)
        assert min(values) <= d.median <= max(values)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1))
    def test_median_matches_sorted_rank(self, values):
        d = Distribution()
        for v in values:
            d.add(v)
        ordered = sorted(values)
        expected = ordered[max(0, round(len(values) * 0.5) - 1)]
        assert d.median == expected


class TestRatioProbe:
    def test_value(self):
        p = RatioProbe()
        p.add(8, 32)
        p.add(32, 32)
        assert p.value == 40 / 64

    def test_empty_is_zero(self):
        assert RatioProbe().value == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RatioProbe().add(-1, 2)

    def test_merge(self):
        a, b = RatioProbe(), RatioProbe()
        a.add(1, 2)
        b.add(3, 2)
        a.merge(b)
        assert a.value == 1.0


class TestStatSet:
    def test_record_instruction(self):
        s = StatSet()
        s.record_instruction(InstrCategory.VALU, 3)
        s.record_instruction(InstrCategory.SALU)
        assert s.dynamic_instructions == 4
        assert s.instructions_by_category[InstrCategory.VALU] == 3

    def test_breakdown_order(self):
        s = StatSet()
        s.record_instruction(InstrCategory.MISC)
        breakdown = s.category_breakdown()
        assert [cat for cat, _ in breakdown] == list(CATEGORY_ORDER)
        assert breakdown[-1] == (InstrCategory.MISC, 1)

    def test_ipc(self):
        s = StatSet()
        s.record_instruction(InstrCategory.VALU, 100)
        s.bump("cycles", 50)
        assert s.ipc == 2.0

    def test_ipc_no_cycles(self):
        assert StatSet().ipc == 0.0

    def test_getitem_missing(self):
        assert StatSet()["nope"] == 0

    def test_merge_all(self):
        parts = []
        for i in range(3):
            s = StatSet()
            s.bump("cycles", 10)
            s.record_instruction(InstrCategory.VMEM, i + 1)
            s.reuse_distance.add(i + 1)
            parts.append(s)
        total = merge_all(parts)
        assert total.cycles == 30
        assert total.dynamic_instructions == 6
        assert total.reuse_distance.count == 3

    def test_snapshot_keys(self):
        s = StatSet()
        s.record_instruction(InstrCategory.LDS)
        s.bump("cycles", 5)
        s.simd_utilization.add(32, 64)
        snap = s.snapshot()
        assert snap["instr_lds"] == 1
        assert snap["cycles"] == 5
        assert snap["simd_utilization"] == 0.5
        assert "ipc" in snap

    def test_equal_content_compares_equal(self):
        """A sweep reuses a journaled encoding for an equal run, so a
        copy must compare equal and any accumulator that differs must
        not."""
        s = StatSet()
        s.bump("cycles", 5)
        s.record_instruction(InstrCategory.VALU, 2)
        s.reuse_distance.add(3)
        s.read_uniqueness.add(1, 4)
        assert s.copy() == s and s.copy().to_payload() == s.to_payload()
        for change in (lambda c: c.bump("cycles"),
                       lambda c: c.record_instruction(InstrCategory.SALU),
                       lambda c: c.reuse_distance.add(3),
                       lambda c: c.read_uniqueness.add(0, 1),
                       lambda c: c.write_uniqueness.add(1, 1),
                       lambda c: c.simd_utilization.add(1, 1)):
            other = s.copy()
            change(other)
            assert other != s


class TestCategories:
    def test_memory_flag(self):
        assert InstrCategory.VMEM.is_memory
        assert InstrCategory.SMEM.is_memory
        assert InstrCategory.LDS.is_memory
        assert not InstrCategory.VALU.is_memory
        assert not InstrCategory.BRANCH.is_memory
