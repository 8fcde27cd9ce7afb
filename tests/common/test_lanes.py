"""Lane-mask and LDS helper tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.common.lanes import (
    FULL_MASK,
    LdsImage,
    pack_rows,
    row_access,
    unpack_rows,
)


def lds_scatter_u32(lds, addrs, values, mask):
    LdsImage(lds).scatter(addrs.reshape(1, -1), values, mask.reshape(1, -1))


def lds_gather_u32(lds, addrs, mask):
    """Active lanes' dwords spread over 64 lanes; inactive lanes read 0."""
    out = np.zeros(64, dtype=np.uint32)
    out[mask] = LdsImage(lds).gather(addrs.reshape(1, -1),
                                     mask.reshape(1, -1))[0]
    return out


def words(*bits):
    return np.array(bits, dtype=np.uint64)


class TestMaskConversion:
    """``pack_rows``/``unpack_rows``: bool[n, 64] lane rows <-> one
    64-bit mask word per row, lane ``i`` at bit ``i``."""

    def test_full(self):
        assert unpack_rows(words(FULL_MASK)).all()
        packed = pack_rows(np.ones((2, 64), dtype=bool))
        assert packed.dtype == np.uint64 and packed.tolist() == [FULL_MASK] * 2

    def test_empty(self):
        assert not unpack_rows(words(0, 0)).any()
        assert pack_rows(np.zeros((1, 64), dtype=bool)).tolist() == [0]

    def test_single_lane(self):
        rows = unpack_rows(words(1 << 17, 1 << 63))
        assert rows.shape == (2, 64)
        assert rows[0, 17] and rows[0].sum() == 1
        assert rows[1, 63] and rows[1].sum() == 1

    @given(st.lists(st.integers(min_value=0, max_value=FULL_MASK),
                    min_size=1, max_size=8))
    def test_roundtrip(self, bits):
        rows = unpack_rows(words(*bits))
        assert [[(b >> i) & 1 == 1 for i in range(64)] for b in bits] \
            == rows.tolist()
        assert pack_rows(rows).tolist() == bits


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
