"""The typed register file under HSAIL: accessors, in-place predicated
writes, and the aliasing the zero-copy views make newly dangerous.

The oracle is the representation the views replaced: a plain row-major
``uint32[slot, lane]`` block where a 64-bit value is split into (lo, hi)
rows on every write and recombined on every read, and every instruction
computes into fresh vectors before it writes.  Each instruction runs as
the compiled step the functional pass's step table holds, on a one-row
state (``tests/trace_oracle.step_wavefront``), and must leave exactly
the oracle's bits.  ``derandomize=True`` keeps CI deterministic.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.exec_types import DispatchContext
from repro.common.lanes import (
    F32, F64, I32, U32, U64, VIEW_DTYPES, Executor, Group, reg_view, splat,
    write_lanes,
)
from repro.hsail.isa import HReg, HsailInstr, HsailKernel, Imm
from repro.hsail.semantics import HsailWavefronts
from repro.kernels.types import DType
from repro.runtime.memory import HEAP_BASE, Segment, SimulatedMemory
from tests.regfile_oracle import (
    SETTINGS as _SETTINGS,
    SPECIAL32,
    lanes_of,
    masks,
    random_registers,
    read_register,
    same_bits,
    seeds,
    typed,
    write_register,
)
from tests.trace_oracle import step_wavefront

SLOTS = 12
NP = {DType.U32: np.uint32, DType.B1: np.uint32, DType.S32: np.int32,
      DType.F32: np.float32, DType.U64: np.uint64, DType.F64: np.float64}
KIND = {DType.U32: U32, DType.B1: U32, DType.S32: I32, DType.F32: F32,
        DType.U64: U64, DType.F64: F64}


def random_slots(seed):
    return random_registers(seed, SLOTS)


def reg(dtype, index):
    return HReg("d" if dtype.is_wide else "s", index)


def ref_read(regs, op, dtype):
    if isinstance(op, Imm):
        return typed(np.full(64, op.pattern, dtype=np.uint64), NP[dtype])
    return read_register(regs, op.index, NP[dtype])


def ref_write(regs, index, dtype, values, mask):
    write_register(regs, index, np.ascontiguousarray(values).view(
        np.uint64 if dtype.is_wide else np.uint32), mask)


def make_wf(instr, regs, mask_bits):
    kernel = HsailKernel(
        name="t", instrs=[instr, HsailInstr(opcode="ret", dtype=DType.U32)],
        params=[], kernarg_bytes=0, group_bytes=0, private_bytes=0,
        spill_bytes=0, reg_slots_used=SLOTS)
    ctx = DispatchContext(grid_size=(64, 1, 1), wg_size=(64, 1, 1),
                          wg_id=(0, 0, 0), wf_index_in_wg=0)
    wf = HsailWavefronts(kernel, [ctx])
    slots(wf)[:] = regs
    wf.exec[0] = lanes_of(mask_bits)
    return wf


def slots(wf):
    """The wavefront's ``uint32[slot, lane]`` registers, a view."""
    return wf.views[U32][:SLOTS, 0]


def read_typed(wf, op, dtype):
    """Operand ``op`` of the wavefront as ``dtype`` lanes."""
    kind = KIND[dtype]
    read = splat(op.pattern, kind) if isinstance(op, Imm) \
        else reg_view(kind, op.index)
    lanes = read(Group(wf, [0], 0))
    return lanes[0] if lanes.ndim == 2 else lanes


def run_one(instr, regs, mask_bits, memory=None):
    """Final register bits after executing ``instr`` from ``regs`` under
    ``mask_bits``."""
    wf = make_wf(instr, regs, mask_bits)
    result = step_wavefront(wf, Executor(memory or SimulatedMemory()))
    assert result.next_pc is None and wf.pcs[0] == 1
    return np.array(slots(wf))


# ---------------------------------------------------------------------------
# Accessors: typed-view read/write == the lo/hi split
# ---------------------------------------------------------------------------


@given(seeds, masks, st.sampled_from(list(NP)), st.integers(0, SLOTS - 2))
@_SETTINGS
def test_write_typed_matches_the_split(seed, mask_bits, dtype, index):
    regs = random_slots(seed)
    wf = make_wf(HsailInstr(opcode="nop", dtype=DType.U32), regs, mask_bits)
    raw = np.random.default_rng(seed + 1).integers(0, 2**64, 64, dtype=np.uint64)
    if not dtype.is_wide:
        raw = (raw & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    values = raw.view(NP[dtype])
    mask = lanes_of(mask_bits)
    write_lanes(Group(wf, [0], 0), KIND[dtype], index,
                values.view(VIEW_DTYPES[KIND[dtype]])[None], mask[None])
    ref_write(regs, index, dtype, values, mask)
    assert np.array_equal(slots(wf), regs)  # odd and even pairs alike


@given(seeds, st.sampled_from(list(NP)), st.integers(0, SLOTS - 2))
@_SETTINGS
def test_read_typed_matches_the_recombination(seed, dtype, index):
    regs = random_slots(seed)
    wf = make_wf(HsailInstr(opcode="nop", dtype=DType.U32), regs, 0)
    got = read_typed(wf, reg(dtype, index), dtype)
    want = ref_read(regs, reg(dtype, index), dtype)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_even_pairs_are_views_and_odd_pairs_are_copies():
    wf = make_wf(HsailInstr(opcode="nop", dtype=DType.U32),
                 np.zeros((SLOTS, 64), dtype=np.uint32), 0)
    even = read_typed(wf, HReg("d", 4), DType.F64)
    assert np.shares_memory(even, slots(wf)) and even.dtype == np.float64
    assert np.shares_memory(read_typed(wf, HReg("s", 5), DType.F32), slots(wf))
    assert not np.shares_memory(read_typed(wf, HReg("d", 5), DType.U64),
                                slots(wf))
    slots(wf)[4] = 7  # a slot write is seen through the pair view
    assert read_typed(wf, HReg("d", 4), DType.U64)[0] == 7


# ---------------------------------------------------------------------------
# ALU leaves: in-place, predicated, alias-safe
# ---------------------------------------------------------------------------

_INT_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
               "and": np.bitwise_and, "or": np.bitwise_or,
               "xor": np.bitwise_xor, "min": np.minimum, "max": np.maximum}
_FLOAT_BINARY = {k: _INT_BINARY[k] for k in ("add", "sub", "mul", "min", "max")}
_FLOAT_BINARY["div"] = np.divide


def ref_alu(opcode, dtype, regs, dest, srcs, mask, **attrs):
    """The reference semantics: read everything, compute, then write."""
    read = [ref_read(regs, s, dtype) for s in srcs]
    if opcode in _FLOAT_BINARY or opcode in _INT_BINARY:
        values = {**_INT_BINARY, **_FLOAT_BINARY}[opcode](read[0], read[1])
    elif opcode in ("mad", "fma"):
        values = read[0] * read[1] + read[2]
    elif opcode == "mov":
        values = read[0]
    elif opcode == "neg":
        values = -read[0]
    elif opcode == "not":
        values = ~read[0]
    elif opcode == "abs":
        values = np.abs(read[0])
    elif opcode in ("shl", "shr"):
        wide = read[0].astype(np.int64 if dtype.is_signed else np.uint64)
        amount = (ref_read(regs, srcs[1], DType.U32)
                  & np.uint32(63 if dtype.is_wide else 31)).astype(wide.dtype)
        values = wide << amount if opcode == "shl" else wide >> amount
    elif opcode == "cmov":
        pred = ref_read(regs, srcs[0], DType.U32) != 0
        values = np.where(pred, ref_read(regs, srcs[1], dtype),
                          ref_read(regs, srcs[2], dtype))
    elif opcode == "cmp":
        fn = {"eq": np.equal, "ne": np.not_equal, "lt": np.less,
              "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}
        values = fn[attrs["cmp"]](read[0], read[1]).astype(np.uint32)
        dtype = DType.B1
    elif opcode == "cvt":
        values = ref_read(regs, srcs[0], attrs["src_dtype"]).astype(NP[dtype])
    else:
        raise AssertionError(opcode)
    ref_write(regs, dest.index, dtype, values.astype(NP[dtype]), mask)


def check(opcode, dtype, dest_index, src_indices, seed, mask_bits, **attrs):
    regs = random_slots(seed)
    src_dtype = attrs.get("src_dtype", dtype)
    srcs = tuple(reg(DType.U32 if (opcode in ("shl", "shr") and i == 1)
                     or (opcode == "cmov" and i == 0) else src_dtype, index)
                 for i, index in enumerate(src_indices))
    dest = reg(DType.B1 if opcode == "cmp" else dtype, dest_index)
    instr = HsailInstr(opcode=opcode, dtype=dtype, dest=dest, srcs=srcs,
                       attrs=dict(attrs))
    want = regs.copy()
    ref_alu(opcode, dtype, want, dest, srcs, lanes_of(mask_bits), **attrs)
    # mov/cmov/cmp move or produce exact bits; arithmetic may pick a NaN.
    computed = (dest_index, NP[dtype]) if dtype.is_float \
        and opcode not in ("mov", "cmov", "cmp") else None
    assert same_bits(run_one(instr, regs, mask_bits), want, computed), \
        f"{instr!r} under mask {mask_bits:#x}"


slot = st.integers(0, SLOTS - 2)


@given(st.sampled_from(sorted(_INT_BINARY)),
       st.sampled_from([DType.U32, DType.S32, DType.U64]),
       slot, slot, slot, seeds, masks)
@_SETTINGS
def test_integer_binary_any_overlap(opcode, dtype, d, a, b, seed, mask_bits):
    # d, a, b are unconstrained: equal indices (dest == src), odd pairs,
    # and pairs overlapping one half of another all occur.
    check(opcode, dtype, d, (a, b), seed, mask_bits)


@given(st.sampled_from(sorted(_FLOAT_BINARY)),
       st.sampled_from([DType.F32, DType.F64]), slot, slot, slot, seeds, masks)
@_SETTINGS
def test_float_binary_any_overlap(opcode, dtype, d, a, b, seed, mask_bits):
    check(opcode, dtype, d, (a, b), seed, mask_bits)


@given(st.sampled_from(["mad", "fma"]),
       st.sampled_from([DType.U32, DType.F32, DType.F64, DType.U64]),
       slot, slot, slot, slot, seeds, masks)
@_SETTINGS
def test_fused_multiply_add_any_overlap(opcode, dtype, d, a, b, c, seed,
                                        mask_bits):
    check(opcode, dtype, d, (a, b, c), seed, mask_bits)


@given(st.sampled_from(["mov", "neg", "not", "abs"]),
       st.sampled_from([DType.U32, DType.S32, DType.U64, DType.F32, DType.F64]),
       slot, slot, seeds, masks)
@_SETTINGS
def test_unary_any_overlap(opcode, dtype, d, a, seed, mask_bits):
    if opcode == "not" and dtype.is_float:
        dtype = DType.U64 if dtype.is_wide else DType.U32
    check(opcode, dtype, d, (a,), seed, mask_bits)


@given(st.sampled_from(["shl", "shr"]),
       st.sampled_from([DType.U32, DType.S32, DType.U64]),
       slot, slot, slot, seeds, masks)
@_SETTINGS
def test_shifts_any_overlap(opcode, dtype, d, a, n, seed, mask_bits):
    check(opcode, dtype, d, (a, n), seed, mask_bits)


@given(st.sampled_from([DType.U32, DType.F32, DType.U64, DType.F64]),
       slot, slot, slot, slot, seeds, masks)
@_SETTINGS
def test_cmov_any_overlap(dtype, d, p, t, f, seed, mask_bits):
    check("cmov", dtype, d, (p, t, f), seed, mask_bits)


@given(st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
       st.sampled_from([DType.U32, DType.S32, DType.F32, DType.U64, DType.F64]),
       slot, slot, slot, seeds, masks)
@_SETTINGS
def test_cmp_any_overlap(cond, dtype, d, a, b, seed, mask_bits):
    check("cmp", dtype, d, (a, b), seed, mask_bits, cmp=cond)


@given(st.sampled_from([(DType.U64, DType.U32), (DType.F64, DType.F32),
                        (DType.F32, DType.F64), (DType.F32, DType.S32),
                        (DType.F64, DType.U32), (DType.U32, DType.U64),
                        (DType.S32, DType.F32), (DType.U32, DType.F64)]),
       slot, slot, seeds, masks)
@_SETTINGS
def test_cvt_any_overlap(pair, d, a, seed, mask_bits):
    # Widening into a pair whose half is the source (cvt_u64_u32 $d[2:3],
    # $s3) is the partial overlap the views introduce.
    dst, src = pair
    check("cvt", dst, d, (a,), seed, mask_bits, src_dtype=src)


def test_inactive_lanes_keep_nan_payloads_and_negative_zero():
    regs = np.zeros((SLOTS, 64), dtype=np.uint32)
    regs[4] = np.resize(SPECIAL32, 64)
    regs[0] = np.float32(1.5).view(np.uint32)
    instr = HsailInstr(opcode="add", dtype=DType.F32, dest=HReg("s", 4),
                       srcs=(HReg("s", 4), HReg("s", 0)))
    mask_bits = 0x00000000FFFF0000
    got = run_one(instr, regs, mask_bits)
    inactive = ~lanes_of(mask_bits)
    assert np.array_equal(got[4][inactive], regs[4][inactive])
    assert not np.array_equal(got[4][~inactive], regs[4][~inactive])


def test_immediates_are_shared_and_read_only():
    instr = HsailInstr(opcode="add", dtype=DType.U32, dest=HReg("s", 1),
                       srcs=(HReg("s", 0), Imm(5, DType.U32)))
    wf = make_wf(instr, np.zeros((SLOTS, 64), dtype=np.uint32), (1 << 64) - 1)
    imm = read_typed(wf, Imm(5, DType.U32), DType.U32)
    assert imm is read_typed(wf, Imm(5, DType.U32), DType.U32)
    with pytest.raises(ValueError):
        imm[0] = 1
    step_wavefront(wf, Executor(SimulatedMemory()))
    assert (slots(wf)[1] == 5).all()


# ---------------------------------------------------------------------------
# Loads: the destination may be the load's own address pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dest_index", [2, 3, 5])  # the pair, its half, odd
@pytest.mark.parametrize("dtype", [DType.U32, DType.U64])
def test_load_into_its_own_address_pair(dtype, dest_index):
    memory = SimulatedMemory()
    memory.map_range(HEAP_BASE, 4096)
    data = np.arange(128, dtype=np.uint64) * np.uint64(0x100000001) + np.uint64(7)
    memory.write_array(HEAP_BASE, data)
    addrs = np.uint64(HEAP_BASE) + np.arange(64, dtype=np.uint64) * np.uint64(8)
    addr_index = 2 if dest_index != 5 else 5
    regs = random_slots(3)
    ref_write(regs, addr_index, DType.U64, addrs, np.ones(64, dtype=bool))
    instr = HsailInstr(opcode="ld", dtype=dtype, dest=reg(dtype, dest_index),
                       srcs=(HReg("d", addr_index),), segment=Segment.GLOBAL)
    mask_bits = 0xFFFFFFFF0000FFFF
    want = regs.copy()
    loaded = data[:64] if dtype.is_wide else data[:64].astype(np.uint32)
    ref_write(want, dest_index, dtype, loaded, lanes_of(mask_bits))
    assert np.array_equal(run_one(instr, regs, mask_bits, memory), want)
