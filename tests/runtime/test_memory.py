"""Simulated memory and segment allocator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.runtime.memory import (
    HEAP_BASE,
    Segment,
    SegmentAllocator,
    SimulatedMemory,
)


def _row(lanes):
    """One wavefront's lanes as a one-row group (``[1, 64]``), the shape
    ``gather``/``scatter`` take."""
    return lanes.reshape(1, -1)


class TestMapping:
    def test_access_below_heap_faults(self):
        mem = SimulatedMemory()
        with pytest.raises(MemoryError_):
            mem.load_scalar(0x100, 4)

    def test_unmapped_access_faults(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64)
        with pytest.raises(MemoryError_):
            mem.load_scalar(HEAP_BASE + 64, 4)

    def test_grows_on_demand(self):
        mem = SimulatedMemory(capacity=1 << 12)
        mem.map_range(HEAP_BASE, 1 << 20)
        mem.store_u32(HEAP_BASE + (1 << 19), 42)
        assert mem.load_u32(HEAP_BASE + (1 << 19)) == 42

    def test_map_below_base_rejected(self):
        with pytest.raises(MemoryError_):
            SimulatedMemory().map_range(0, 64)


class TestScalarAccess:
    def test_u32_u64_roundtrip(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64)
        mem.store_u32(HEAP_BASE, 0xDEADBEEF)
        mem.store_u64(HEAP_BASE + 8, 0x1122334455667788)
        assert mem.load_u32(HEAP_BASE) == 0xDEADBEEF
        assert mem.load_u64(HEAP_BASE + 8) == 0x1122334455667788

    def test_little_endian(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64)
        mem.store_u32(HEAP_BASE, 0x04030201)
        assert list(mem.read_block(HEAP_BASE, 4)) == [1, 2, 3, 4]

    def test_f64(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64)
        mem.write_array(HEAP_BASE, np.array([3.25], dtype=np.float64))
        assert mem.load_f64(HEAP_BASE) == 3.25


class TestVectorAccess:
    def test_gather_scatter_roundtrip(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 4096)
        addrs = np.uint64(HEAP_BASE) + np.arange(64, dtype=np.uint64) * 4
        values = np.arange(64, dtype=np.uint32) * 3
        mask = np.ones(64, dtype=bool)
        mem.scatter(_row(addrs), values, _row(mask))
        assert np.array_equal(mem.gather(_row(addrs), _row(mask))[0], values)

    def test_masked_lanes_return_zero(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 4096)
        addrs = np.uint64(HEAP_BASE) + np.arange(64, dtype=np.uint64) * 4
        mask = np.zeros(64, dtype=bool)
        mask[7] = True
        mem.scatter(_row(addrs), np.full(64, 9, dtype=np.uint32), _row(mask))
        out, _lines = mem.gather(_row(addrs), _row(np.ones(64, dtype=bool)))
        assert out[7] == 9
        assert out[6] == 0

    def test_unaligned_gather(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64)
        mem.write_block(HEAP_BASE, bytes(range(16)))
        addrs = np.full(64, HEAP_BASE + 1, dtype=np.uint64)
        mask = np.zeros(64, dtype=bool)
        mask[0] = True
        out, _lines = mem.gather(_row(addrs), _row(mask))
        assert out.tolist() == [0x04030201]

    def test_all_inactive_is_noop(self):
        mem = SimulatedMemory()
        addrs = np.zeros(64, dtype=np.uint64)  # would fault if accessed
        out, (lines,) = mem.gather(_row(addrs), _row(np.zeros(64, dtype=bool)))
        assert out.size == 0 and lines == []

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=64, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_gather_matches_numpy_reference(self, raw):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 4096)
        data = np.array(raw, dtype=np.uint32)
        mem.write_array(HEAP_BASE, data)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 64, 64)
        addrs = np.uint64(HEAP_BASE) + idx.astype(np.uint64) * 4
        mask = np.ones(64, dtype=bool)
        assert np.array_equal(mem.gather(_row(addrs), _row(mask))[0],
                              data[idx])


class TestFootprint:
    def test_device_access_tracked(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 4096)
        mem.load_scalar(HEAP_BASE, 4)
        assert mem.data_footprint_bytes == 64

    def test_host_access_untracked(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 4096)
        mem.write_array(HEAP_BASE, np.zeros(128, dtype=np.uint32))
        mem.read_block(HEAP_BASE, 64)
        mem.load_scalar(HEAP_BASE, 4, track=False)
        assert mem.data_footprint_bytes == 0

    def test_unique_lines_counted_once(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 4096)
        for _ in range(10):
            mem.load_scalar(HEAP_BASE + 4, 4)
        assert mem.data_footprint_bytes == 64

    def test_vector_footprint(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64 * 64)
        addrs = np.uint64(HEAP_BASE) + np.arange(64, dtype=np.uint64) * 64
        mem.gather(_row(addrs), _row(np.ones(64, dtype=bool)))
        assert mem.data_footprint_bytes == 64 * 64

    def test_reset(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64)
        mem.load_scalar(HEAP_BASE, 4)
        mem.reset_footprint()
        assert mem.data_footprint_bytes == 0


class TwoPassMemory:
    """The per-lane access code the one-pass ``gather``/``scatter``
    replaced, kept here as their oracle: every access recomputes the
    active addresses, a pair is two independent dword passes (lo at
    ``addr``, then hi at ``addr + 4``), the footprint is recorded per
    pass, and ``mem_lines`` comes from a third pass over the addresses."""

    def __init__(self, size):
        self.buf = np.zeros(size, dtype=np.uint8)
        self.footprint = set()

    def _touch(self, active):
        self.footprint.update((active >> np.uint64(6)).tolist())

    def gather_u32(self, addrs, mask):
        out = np.zeros(64, dtype=np.uint32)
        if not mask.any():
            return out
        active = addrs[mask].astype(np.uint64)
        self._touch(active)
        idx = active.astype(np.int64)
        b = self.buf
        out[mask] = (b[idx].astype(np.uint32)
                     | (b[idx + 1].astype(np.uint32) << 8)
                     | (b[idx + 2].astype(np.uint32) << 16)
                     | (b[idx + 3].astype(np.uint32) << 24))
        return out

    def scatter_u32(self, addrs, values, mask):
        if not mask.any():
            return
        active = addrs[mask].astype(np.uint64)
        vals = values[mask].astype(np.uint32)
        self._touch(active)
        idx = active.astype(np.int64)
        if not (idx & 3).any():
            self.buf.view(np.uint32)[idx >> 2] = vals  # later lanes win
            return
        for k in range(4):
            self.buf[idx + k] = ((vals >> (8 * k)) & 0xFF).astype(np.uint8)

    def load(self, addrs, mask, size):
        lo = self.gather_u32(addrs, mask)
        if size == 4:
            return lo
        hi = self.gather_u32(addrs + np.uint64(4), mask)
        return lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))

    def store(self, addrs, values, mask, size):
        if size == 4:
            self.scatter_u32(addrs, values, mask)
            return
        self.scatter_u32(addrs, (values & np.uint64(0xFFFFFFFF)).astype(np.uint32), mask)
        self.scatter_u32(addrs + np.uint64(4), (values >> np.uint64(32)).astype(np.uint32), mask)

    @staticmethod
    def lines(addrs, mask, size):
        active = addrs[mask]
        lines = set((active >> np.uint64(6)).tolist())
        if size > 4:
            lines.update(((active + np.uint64(size - 1)) >> np.uint64(6)).tolist())
        return sorted(lines)


def _lanes(bits):
    return np.array([(bits >> i) & 1 for i in range(64)], dtype=bool)


_ACCESS = settings(max_examples=200, deadline=None, derandomize=True)
_masks = st.one_of(st.just((1 << 64) - 1), st.just(0),
                   st.integers(0, (1 << 64) - 1))


class TestOnePassAccess:
    """``gather``/``scatter`` against the two-pass oracle: values, memory
    image (later lanes win, byte plane by byte plane), ``mem_lines`` and
    footprint, for aligned, unaligned, line-straddling and colliding
    lanes."""

    WINDOW = 512

    def _addresses(self, seed, align, span):
        # A narrow window makes lanes collide and overlap partially.
        rng = np.random.default_rng(seed)
        offs = rng.integers(0, span // align, 64) * align
        return (np.uint64(HEAP_BASE) + offs.astype(np.uint64))

    @given(st.integers(0, 2**31), st.sampled_from([1, 2, 4, 8]),
           st.sampled_from([16, 96, 480]), st.sampled_from([4, 8]), _masks)
    @_ACCESS
    def test_scatter_then_gather_match_two_pass(self, seed, align, span,
                                                size, mask_bits):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, self.WINDOW)
        ref = TwoPassMemory(HEAP_BASE + self.WINDOW)
        addrs = self._addresses(seed, align, span)
        mask = _lanes(mask_bits)
        rng = np.random.default_rng(seed + 1)
        values = rng.integers(0, 2**64, 64, dtype=np.uint64)
        if size == 4:
            values = (values & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        where = True if mask.all() else _row(mask)

        assert mem.scatter(_row(addrs), values, where, size)[0] \
            == ref.lines(addrs, mask, size)
        ref.store(addrs, values, mask, size)
        assert np.array_equal(mem.read_block(HEAP_BASE, self.WINDOW),
                              ref.buf[HEAP_BASE:])
        assert mem.touched_line_addresses() == ref.footprint

        # Loads from a second, differently shuffled set of addresses.
        addrs2 = self._addresses(seed + 2, align, span)
        got, (lines,) = mem.gather(_row(addrs2), where, size)
        assert np.array_equal(got, ref.load(addrs2, mask, size)[mask])
        assert lines == ref.lines(addrs2, mask, size)
        assert mem.touched_line_addresses() == ref.footprint

    def test_later_lane_wins_on_collision(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 64)
        addrs = np.full(64, HEAP_BASE + 8, dtype=np.uint64)
        mem.scatter(_row(addrs),
                    np.arange(64, dtype=np.uint64) + np.uint64(1 << 40),
                    True, 8)
        assert mem.load_u64(HEAP_BASE + 8) == 63 + (1 << 40)

    def test_pair_straddling_a_line_counts_both_lines(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 256)
        addrs = np.full(64, HEAP_BASE + 60, dtype=np.uint64)  # dword aligned
        _, (lines,) = mem.gather(_row(addrs), True, 8)
        assert lines == [HEAP_BASE >> 6, (HEAP_BASE >> 6) + 1]
        assert mem.data_footprint_bytes == 128

    def test_accesses_up_to_the_mapped_limit(self):
        mem = SimulatedMemory()
        mem.map_range(HEAP_BASE, 100)  # limit mid-line: the exact check decides
        last = _row(np.full(64, HEAP_BASE + 96, dtype=np.uint64))
        assert mem.gather(last, True, 4)[0].shape == (64,)
        with pytest.raises(MemoryError_):
            mem.gather(last, True, 8)
        with pytest.raises(MemoryError_):
            mem.scatter(last + np.uint64(1), np.zeros(64, np.uint32), True, 4)
        below = _row(np.full(64, HEAP_BASE - 4, dtype=np.uint64))
        with pytest.raises(MemoryError_):
            mem.gather(below, True, 4)
        # one lane out of bounds among in-bounds lanes, and masked off
        mixed = last.copy()
        mixed[0, 5] = HEAP_BASE + 4096
        with pytest.raises(MemoryError_):
            mem.gather(mixed, True, 4)
        mask = np.ones(64, dtype=bool)
        mask[5] = False
        assert mem.gather(mixed, _row(mask), 4)[0].shape == (63,)

    def test_growth_rebinds_the_word_views(self):
        mem = SimulatedMemory(capacity=HEAP_BASE + 64)
        mem.map_range(HEAP_BASE, 1 << 20)  # forces the buffer to grow
        addrs = np.uint64(HEAP_BASE + (1 << 19)) + np.arange(64, dtype=np.uint64) * 8
        values = np.arange(64, dtype=np.uint64) * np.uint64(3)
        mem.scatter(_row(addrs), values, True, 8)
        assert np.array_equal(mem.gather(_row(addrs), True, 8)[0], values)
        assert np.array_equal(
            mem.read_array(HEAP_BASE + (1 << 19), np.uint64, 64), values)


class TestAllocator:
    def test_alignment(self):
        alloc = SegmentAllocator(SimulatedMemory())
        a = alloc.alloc(10, align=256)
        assert a % 256 == 0

    def test_no_overlap(self):
        alloc = SegmentAllocator(SimulatedMemory())
        spans = []
        for i in range(20):
            addr = alloc.alloc(100 + i)
            spans.append((addr, addr + 100 + i))
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_zero_size_rejected(self):
        with pytest.raises(MemoryError_):
            SegmentAllocator(SimulatedMemory()).alloc(0)

    def test_per_process_reuses_private_frames(self):
        alloc = SegmentAllocator(SimulatedMemory(), policy="per_process")
        a = alloc.alloc(1024, Segment.PRIVATE, tag="frame:k")
        b = alloc.alloc(1024, Segment.PRIVATE, tag="frame:k")
        assert a == b

    def test_per_launch_always_fresh(self):
        alloc = SegmentAllocator(SimulatedMemory(), policy="per_launch")
        a = alloc.alloc(1024, Segment.PRIVATE, tag="frame:k")
        b = alloc.alloc(1024, Segment.PRIVATE, tag="frame:k")
        assert a != b

    def test_kernarg_never_reused(self):
        """Kernarg buffers are per-dispatch even per-process (the host
        overwrites them before each launch)."""
        alloc = SegmentAllocator(SimulatedMemory(), policy="per_process")
        a = alloc.alloc(64, Segment.KERNARG, tag="kernarg:k")
        b = alloc.alloc(64, Segment.KERNARG, tag="kernarg:k")
        assert a != b

    def test_bigger_request_reallocates(self):
        alloc = SegmentAllocator(SimulatedMemory(), policy="per_process")
        a = alloc.alloc(64, Segment.PRIVATE, tag="frame:k")
        b = alloc.alloc(128, Segment.PRIVATE, tag="frame:k")
        assert a != b

    def test_free_and_double_free(self):
        alloc = SegmentAllocator(SimulatedMemory())
        a = alloc.alloc(64)
        alloc.free(a)
        with pytest.raises(MemoryError_):
            alloc.free(a)

    def test_bad_policy_rejected(self):
        with pytest.raises(MemoryError_):
            SegmentAllocator(SimulatedMemory(), policy="whenever")

    def test_segment_ranges(self):
        alloc = SegmentAllocator(SimulatedMemory())
        g = alloc.alloc(64, Segment.GLOBAL)
        alloc.alloc(64, Segment.ARG)
        p = alloc.alloc(64, Segment.PRIVATE)
        ranges = alloc.segment_ranges({Segment.GLOBAL, Segment.PRIVATE})
        assert (g, g + 64) in ranges
        assert (p, p + 64) in ranges
        assert len(ranges) == 2

    def test_lookup(self):
        alloc = SegmentAllocator(SimulatedMemory())
        a = alloc.alloc(64, Segment.GLOBAL, tag="buf")
        record = alloc.lookup(a)
        assert record is not None and record.tag == "buf"
