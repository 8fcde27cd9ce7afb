"""Lane-mask and LDS helper tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.common.lanes import (
    FULL_MASK,
    LdsImage,
    bool_to_mask,
    mask_to_bool,
    row_access,
)


def lds_scatter_u32(lds, addrs, values, mask):
    LdsImage(lds).scatter(addrs, values, mask)


def lds_gather_u32(lds, addrs, mask):
    """Active lanes' dwords spread over 64 lanes; inactive lanes read 0."""
    out = np.zeros(64, dtype=np.uint32)
    out[mask] = LdsImage(lds).gather(addrs, mask)[0]
    return out


class TestMaskConversion:
    def test_full(self):
        assert mask_to_bool(FULL_MASK).all()
        assert bool_to_mask(np.ones(64, dtype=bool)) == FULL_MASK

    def test_empty(self):
        assert not mask_to_bool(0).any()

    def test_single_lane(self):
        m = mask_to_bool(1 << 17)
        assert m[17] and m.sum() == 1

    @given(st.integers(min_value=0, max_value=FULL_MASK))
    def test_roundtrip(self, bits):
        assert bool_to_mask(mask_to_bool(bits)) == bits


def _lines(addrs, mask, size):
    """The sorted unique lines of one wavefront's access."""
    return row_access(addrs[None], mask[None], size)[3][0]


class TestTouchedLines:
    def test_single_line(self):
        addrs = np.full(64, 128, dtype=np.uint64)
        mask = np.ones(64, dtype=bool)
        assert _lines(addrs, mask, 4) == [2]

    def test_straddling_access(self):
        addrs = np.full(64, 60, dtype=np.uint64)
        mask = np.zeros(64, dtype=bool)
        mask[0] = True
        # an 8-byte access at 60 touches lines 0 and 1
        assert _lines(addrs, mask, 8) == [0, 1]

    def test_inactive_lanes_ignored(self):
        addrs = np.arange(64, dtype=np.uint64) * 64
        mask = np.zeros(64, dtype=bool)
        assert _lines(addrs, mask, 4) == []

    def test_lines_per_wavefront(self):
        """One access over three wavefronts: each gets its own sorted
        lines, and the touched lines cover them all."""
        addrs = np.stack([np.arange(64, dtype=np.uint64)[::-1] * 64,
                          np.full(64, 4096, dtype=np.uint64),
                          np.zeros(64, dtype=np.uint64)])
        mask = np.ones((3, 64), dtype=bool)
        mask[2] = False
        idx, _align, touched, lines = row_access(addrs, mask, 4)
        assert idx.size == 128
        assert [lines[r] for r in range(3)] == [list(range(64)), [64], []]
        assert sorted(touched) == list(range(65))


class TestLdsAccess:
    def test_scatter_gather_roundtrip(self):
        lds = np.zeros(1024, dtype=np.uint8)
        addrs = (np.arange(64, dtype=np.uint64) * 4)
        values = np.arange(64, dtype=np.uint32) * 3 + 1
        mask = np.ones(64, dtype=bool)
        lds_scatter_u32(lds, addrs, values, mask)
        out = lds_gather_u32(lds, addrs, mask)
        assert np.array_equal(out, values)

    def test_masked_lanes_untouched(self):
        lds = np.zeros(256, dtype=np.uint8)
        addrs = np.arange(64, dtype=np.uint64) * 4
        values = np.full(64, 7, dtype=np.uint32)
        mask = np.zeros(64, dtype=bool)
        mask[3] = True
        lds_scatter_u32(lds, addrs, values, mask)
        assert lds.view(np.uint32)[3] == 7
        assert lds.view(np.uint32)[4] == 0

    def test_out_of_bounds_raises(self):
        lds = np.zeros(16, dtype=np.uint8)
        addrs = np.full(64, 14, dtype=np.uint64)
        mask = np.ones(64, dtype=bool)
        with pytest.raises(ExecutionError):
            lds_gather_u32(lds, addrs, mask)
        with pytest.raises(ExecutionError):
            lds_scatter_u32(lds, addrs, np.zeros(64, dtype=np.uint32), mask)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=64, unique=True),
           st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=64,
                    max_size=64))
    def test_gather_reads_what_scatter_wrote(self, lanes, raw_values):
        lds = np.zeros(512, dtype=np.uint8)
        addrs = np.arange(64, dtype=np.uint64) * 8
        values = np.array(raw_values, dtype=np.uint32)
        mask = np.zeros(64, dtype=bool)
        mask[lanes] = True
        lds_scatter_u32(lds, addrs, values, mask)
        out = lds_gather_u32(lds, addrs, mask)
        assert np.array_equal(out[mask], values[mask])
        assert (out[~mask] == 0).all()
