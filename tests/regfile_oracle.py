"""The oracle behind the register-file tests of both ISAs: the
representation the typed views replaced.  Registers are a plain
row-major ``uint32[reg, lane]`` block; a 64-bit value is split into
(lo, hi) rows on every write and recombined on every read."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

FULL = (1 << 64) - 1
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)
masks = st.one_of(st.just(FULL), st.just(0), st.integers(0, FULL))
seeds = st.integers(min_value=0, max_value=2**31)

#: NaN with a payload, -0.0, +inf, a denormal, -NaN: bits a careless
#: copy or a rewrite of inactive lanes would lose.
SPECIAL32 = np.array([0x7FC12345, 0x80000000, 0x7F800000, 0x00000001,
                      0xFFC00001], dtype=np.uint32)


def lanes_of(bits):
    """64-bit mask -> bool[64]."""
    return np.array([(bits >> i) & 1 for i in range(64)], dtype=bool)


def bits_of(lanes):
    """bool[64] -> 64-bit mask."""
    return sum(1 << int(i) for i in np.flatnonzero(lanes))


def random_registers(seed, count):
    """uint32[count, 64] of random bits with the special patterns mixed in."""
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, 2**32, (count, 64), dtype=np.uint64).astype(np.uint32)
    regs[:, rng.integers(0, 64, 8)] = SPECIAL32[rng.integers(0, 5, 8)]
    return regs


def typed(raw64, np_dtype):
    """uint64[64] bit patterns as lanes of ``np_dtype`` (low half for a
    32-bit type)."""
    if np.dtype(np_dtype).itemsize == 4:
        raw64 = (raw64 & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    return raw64.view(np_dtype)


def read_register(regs, index, np_dtype):
    """Register ``index`` (a pair for a 64-bit type), recombined."""
    raw = regs[index].astype(np.uint64)
    if np.dtype(np_dtype).itemsize == 8:
        raw = raw | (regs[index + 1].astype(np.uint64) << np.uint64(32))
    return typed(raw, np_dtype)


def write_register(regs, index, values, mask):
    """Masked write of 32- or 64-bit ``values``, split into rows."""
    raw = np.ascontiguousarray(values)
    if raw.dtype.itemsize == 8:
        raw = raw.view(np.uint64)
        regs[index][mask] = (raw & np.uint64(0xFFFFFFFF)).astype(np.uint32)[mask]
        regs[index + 1][mask] = (raw >> np.uint64(32)).astype(np.uint32)[mask]
    else:
        regs[index][mask] = raw.view(np.uint32)[mask]


def same_bits(got, want, computed=None):
    """Bit equality of two register blocks -- except that in the one
    *computed* float destination, ``(row, np_dtype)``, a lane may be any
    NaN where the oracle is NaN (payload choice is the FPU's business)."""
    if computed is None or np.array_equal(got, want):
        return np.array_equal(got, want)
    row, np_dtype = computed
    both_nan = (np.isnan(read_register(want, row, np_dtype))
                & np.isnan(read_register(got, row, np_dtype)))
    loose = np.zeros(got.shape, dtype=bool)
    loose[row:row + np.dtype(np_dtype).itemsize // 4] = both_nan
    return np.array_equal(got[~loose], want[~loose])
