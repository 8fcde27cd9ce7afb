"""The typed register file under GCN3: VGPR accessors, in-place
predicated writes, carries, and the aliasing the zero-copy views make
newly dangerous.  Same oracle and method as
``tests/hsail/test_register_file.py``: a row-major ``uint32[vgpr, lane]``
block with (lo, hi) split pairs and read-everything-then-write
instructions, compared bit for bit with the compiled step the
functional pass's step table holds, run on a one-row state
(``tests/trace_oracle.step_wavefront``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.exec_types import DispatchContext
from repro.common.lanes import U64, Executor, Group, write_lanes
from repro.gcn3.isa import Gcn3Instr, Gcn3Kernel, SImm, SReg, VCC, VReg
from repro.gcn3.semantics import Gcn3Wavefronts, _vsrc
from repro.runtime.memory import HEAP_BASE, SimulatedMemory
from tests.regfile_oracle import (
    FULL,
    SETTINGS as _SETTINGS,
    SPECIAL32,
    bits_of,
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

from .test_semantics import s64, vgpr as vgprs

VGPRS = 12
NP = {"u32": np.uint32, "b32": np.uint32, "i32": np.int32, "f32": np.float32,
      "u64": np.uint64, "b64": np.uint64, "i64": np.int64, "f64": np.float64}
vgpr = st.integers(0, VGPRS - 2)
ref_write = write_register


def random_vgprs(seed):
    return random_registers(seed, VGPRS)


def ref_read(regs, op, ty, sgpr):
    if isinstance(op, VReg):
        return read_register(regs, op.index, NP[ty])
    if isinstance(op, SImm):
        raw = op.pattern
    else:
        raw = int(sgpr[op.index]) | (int(sgpr[op.index + 1]) << 32)
    return typed(np.full(64, raw, dtype=np.uint64), NP[ty])


SGPR_SEED = np.arange(24, dtype=np.uint32) * np.uint32(0x01010101) + np.uint32(3)


def make_wf(instr, regs, exec_bits, vcc=0):
    kernel = Gcn3Kernel(
        name="t", instrs=[instr, Gcn3Instr(opcode="s_endpgm")],
        sgprs_used=24, vgprs_used=VGPRS, params=[], kernarg_bytes=0,
        group_bytes=0, private_bytes=0, spill_bytes=0, scratch_bytes=0)
    kernel.compute_layout()
    ctx = DispatchContext(grid_size=(64, 1, 1), wg_size=(64, 1, 1),
                          wg_id=(0, 0, 0), wf_index_in_wg=0)
    wf = Gcn3Wavefronts(kernel, [ctx])
    vgprs(wf)[:VGPRS] = regs
    wf.sgprs[0, :24] = SGPR_SEED
    wf.exec[0] = lanes_of(exec_bits)
    wf.vccs[0] = lanes_of(vcc)
    return wf


def read_v64(wf, op):
    """Vector source ``op`` of the wavefront read as 64-bit lanes."""
    return np.broadcast_to(_vsrc(op, U64)(Group(wf, [0], 0)), (1, 64))[0]


def run_one(instr, regs, exec_bits, vcc=0, memory=None):
    """(vgpr bits, vcc) after executing ``instr`` from that state."""
    wf = make_wf(instr, regs, exec_bits, vcc)
    result = step_wavefront(wf, Executor(memory or SimulatedMemory()))
    assert result.next_pc is None and wf.pcs[0] == 1
    return np.array(vgprs(wf)[:VGPRS]), bits_of(wf.vccs[0])


# ---------------------------------------------------------------------------
# Accessors
# ---------------------------------------------------------------------------


@given(seeds, masks, vgpr)
@_SETTINGS
def test_write_v64_matches_the_split(seed, mask_bits, index):
    regs = random_vgprs(seed)
    wf = make_wf(Gcn3Instr(opcode="s_nop"), regs, FULL)
    raw = np.random.default_rng(seed + 1).integers(0, 2**64, 64, dtype=np.uint64)
    mask = lanes_of(mask_bits)
    write_lanes(Group(wf, [0], 0), U64, index, raw[None], mask[None])
    ref_write(regs, index, raw, mask)
    assert np.array_equal(vgprs(wf)[:VGPRS], regs)  # odd and even pairs alike


@given(seeds, vgpr)
@_SETTINGS
def test_read_v64_matches_the_recombination(seed, index):
    regs = random_vgprs(seed)
    wf = make_wf(Gcn3Instr(opcode="s_nop"), regs, 0)
    assert np.array_equal(vgprs(wf)[:VGPRS], regs)
    pair = read_v64(wf, VReg(index, count=2))
    assert pair.dtype == np.uint64
    assert np.array_equal(pair, read_register(regs, index, np.uint64))
    assert np.shares_memory(pair, vgprs(wf)) == (index % 2 == 0)
    assert (read_v64(wf, SReg(4, count=2)) == s64(wf, 4)[0]).all()


# ---------------------------------------------------------------------------
# VALU leaves
# ---------------------------------------------------------------------------

_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "min": np.minimum, "max": np.maximum, "and": np.bitwise_and,
           "or": np.bitwise_or, "xor": np.bitwise_xor, "mul_lo": np.multiply}


def ref_valu(instr, regs, sgpr, exec_bits, vcc):
    """The reference semantics of one v_* instruction: read every source,
    compute into fresh vectors, then write.  Returns the new VCC."""
    op = instr.opcode
    mask = lanes_of(exec_bits)
    name, _, ty = op[2:].rpartition("_")
    srcs = instr.srcs
    dest = instr.dest.index
    if op in ("v_add_u32", "v_sub_u32", "v_subrev_u32", "v_addc_u32",
              "v_subb_u32"):
        a = ref_read(regs, srcs[0], "u32", sgpr).astype(np.int64)
        b = ref_read(regs, srcs[1], "u32", sgpr).astype(np.int64)
        if op == "v_subrev_u32":
            a, b = b, a
        cin = lanes_of(vcc).astype(np.int64) if op in ("v_addc_u32", "v_subb_u32") else 0
        total = a + b + cin if "add" in op else a - b - cin
        carry = (total > 0xFFFFFFFF) | (total < 0)
        ref_write(regs, dest, (total & 0xFFFFFFFF).astype(np.uint32), mask)
        return (vcc & ~exec_bits) | (bits_of(carry) & exec_bits)
    if name == "cndmask":
        sel = lanes_of(int(sgpr[srcs[2].index])
                       | (int(sgpr[srcs[2].index + 1]) << 32)
                       if len(srcs) > 2 else vcc)
        values = np.where(sel, ref_read(regs, srcs[1], "u32", sgpr),
                          ref_read(regs, srcs[0], "u32", sgpr))
    elif name.startswith("cvt_"):
        values = ref_read(regs, srcs[0], ty, sgpr).astype(NP[name[4:]])
    elif name in ("lshlrev", "lshrrev", "ashrrev"):
        amount = ref_read(regs, srcs[0], "u32", sgpr) & np.uint32(63 if ty.endswith("64") else 31)
        value = ref_read(regs, srcs[1], ty, sgpr)
        wide = value.astype(np.int64 if ty[0] == "i" else np.uint64)
        amount = amount.astype(wide.dtype)
        values = (wide << amount if name == "lshlrev" else wide >> amount).astype(NP[ty])
    else:
        read = [ref_read(regs, s, "u32" if ty == "u24" else ty, sgpr) for s in srcs]
        for i, flag in enumerate(instr.attrs.get("neg") or ()):
            if flag and i < len(read):
                read[i] = -read[i]
        if name in _BINARY:
            values = _BINARY[name](read[0], read[1])
        elif name in ("mov", "div_scale"):
            values = read[0]
        elif name == "not":
            values = ~read[0]
        elif name in ("fma", "div_fmas"):
            values = read[0] * read[1] + read[2]
        elif name == "div_fixup":
            values = read[2] / read[1]
        elif name == "mul_hi":
            wide = np.int64 if ty == "i32" else np.uint64
            values = ((read[0].astype(wide) * read[1].astype(wide)) >> 32).astype(NP[ty])
        elif name == "mad_u32":
            values = (read[0] & np.uint32(0xFFFFFF)) * (read[1] & np.uint32(0xFFFFFF)) + read[2]
        elif name == "bfe":
            values = (read[0] >> (read[1] & np.uint32(31))) \
                & ((np.uint32(1) << (read[2] & np.uint32(31))) - np.uint32(1))
        elif name == "rcp":
            values = NP[ty](1.0) / read[0]
        elif name == "sqrt":
            values = np.sqrt(read[0])
        else:
            raise AssertionError(op)
    ref_write(regs, dest, values, mask)
    return 0 if name == "div_scale" else vcc


def check(instr, seed, exec_bits, vcc=0):
    regs = random_vgprs(seed)
    want = regs.copy()
    want_vcc = ref_valu(instr, want, SGPR_SEED, exec_bits, vcc)
    ty = instr.opcode.rpartition("_")[2]
    if "cvt" in instr.opcode:
        ty = instr.opcode.split("_")[2]
    if "mov" in instr.opcode or "cndmask" in instr.opcode:
        ty = "b32"  # moved, not computed: exact bits
    computed = (instr.dest.index, NP[ty]) if ty in ("f32", "f64") else None
    got, got_vcc = run_one(instr, regs, exec_bits, vcc)
    assert same_bits(got, want, computed), \
        f"{instr!r} under EXEC {exec_bits:#x}"
    assert got_vcc == want_vcc, f"{instr!r}: VCC"


def operand(choice, index, wide=False):
    """A VGPR (pair), an SGPR (pair) or an inline constant."""
    if choice == "s":
        return SReg(4 + (index & 6), count=2 if wide else 1)
    if choice == "i":
        return SImm(index)
    return VReg(index, count=2 if wide else 1)


kinds = st.sampled_from(["v", "v", "v", "s", "i"])


@given(st.sampled_from(["v_add_u32", "v_sub_u32", "v_subrev_u32",
                        "v_addc_u32", "v_subb_u32"]),
       vgpr, vgpr, vgpr, kinds, seeds, masks, st.integers(0, FULL))
@_SETTINGS
def test_carry_ops_any_overlap(op, d, a, b, kind_a, seed, exec_bits, vcc):
    # dest == src0 or src1: the carry must come from the sources, not
    # from a destination already overwritten.
    check(Gcn3Instr(op, VReg(d), (operand(kind_a, a), VReg(b))),
          seed, exec_bits, vcc)


@given(st.sampled_from(["v_and_b32", "v_or_b32", "v_xor_b32", "v_min_u32",
                        "v_max_u32", "v_min_i32", "v_max_i32", "v_mul_lo_u32",
                        "v_mul_hi_u32", "v_mul_hi_i32", "v_add_f32",
                        "v_sub_f32", "v_mul_f32", "v_min_f32", "v_max_f32"]),
       vgpr, vgpr, vgpr, kinds, seeds, masks)
@_SETTINGS
def test_binary32_any_overlap(op, d, a, b, kind_a, seed, exec_bits):
    check(Gcn3Instr(op, VReg(d), (operand(kind_a, a), VReg(b))), seed, exec_bits)


@given(st.sampled_from(["v_add_f64", "v_mul_f64", "v_min_f64", "v_max_f64"]),
       vgpr, vgpr, vgpr, kinds, seeds, masks,
       st.tuples(st.booleans(), st.booleans()))
@_SETTINGS
def test_binary64_any_overlap(op, d, a, b, kind_a, seed, exec_bits, neg):
    # Odd pairs and pairs overlapping one half of another all occur.
    check(Gcn3Instr(op, VReg(d, 2), (operand(kind_a, a, True), VReg(b, 2)),
                    attrs={"neg": neg}), seed, exec_bits)


@given(st.sampled_from([("v_fma_f32", False), ("v_fma_f64", True),
                        ("v_div_fmas_f64", True), ("v_div_fixup_f64", True),
                        ("v_div_fixup_f32", False), ("v_mad_u32_u24", False),
                        ("v_bfe_u32", False)]),
       vgpr, vgpr, vgpr, vgpr, seeds, masks)
@_SETTINGS
def test_ternary_any_overlap(op_wide, d, a, b, c, seed, exec_bits):
    op, wide = op_wide
    n = 2 if wide else 1
    check(Gcn3Instr(op, VReg(d, n), (VReg(a, n), VReg(b, n), VReg(c, n))),
          seed, exec_bits)


@given(st.sampled_from([("v_mov_b32", False), ("v_not_b32", False),
                        ("v_rcp_f32", False), ("v_sqrt_f32", False),
                        ("v_rcp_f64", True), ("v_sqrt_f64", True),
                        ("v_div_scale_f64", True), ("v_div_scale_f32", False)]),
       vgpr, vgpr, kinds, seeds, masks, st.integers(0, FULL))
@_SETTINGS
def test_unary_any_overlap(op_wide, d, a, kind_a, seed, exec_bits, vcc):
    op, wide = op_wide
    check(Gcn3Instr(op, VReg(d, 2 if wide else 1), (operand(kind_a, a, wide),)),
          seed, exec_bits, vcc)


@given(st.sampled_from([("v_lshlrev_b32", False), ("v_lshrrev_b32", False),
                        ("v_ashrrev_i32", False), ("v_lshlrev_b64", True),
                        ("v_lshrrev_b64", True), ("v_ashrrev_i64", True)]),
       vgpr, vgpr, vgpr, kinds, seeds, masks)
@_SETTINGS
def test_shifts_any_overlap(op_wide, d, n, a, kind_n, seed, exec_bits):
    # v_lshlrev_b64 v[2:3], v3, v[2:3]: the amount is half of the pair
    # being shifted in place.
    op, wide = op_wide
    count = 2 if wide else 1
    check(Gcn3Instr(op, VReg(d, count), (operand(kind_n, n), VReg(a, count))),
          seed, exec_bits)


@given(st.sampled_from(["v_cvt_f32_u32", "v_cvt_f32_i32", "v_cvt_u32_f32",
                        "v_cvt_i32_f32", "v_cvt_f64_f32", "v_cvt_f32_f64",
                        "v_cvt_f64_u32", "v_cvt_f64_i32", "v_cvt_u32_f64",
                        "v_cvt_i32_f64"]),
       vgpr, vgpr, seeds, masks)
@_SETTINGS
def test_cvt_any_overlap(op, d, a, seed, exec_bits):
    _, _, dst, src = op.split("_")
    check(Gcn3Instr(op, VReg(d, 2 if dst == "f64" else 1),
                    (VReg(a, 2 if src == "f64" else 1),)), seed, exec_bits)


@given(vgpr, vgpr, vgpr, st.booleans(), seeds, masks, st.integers(0, FULL))
@_SETTINGS
def test_cndmask_any_overlap(d, f, t, explicit, seed, exec_bits, vcc):
    srcs = (VReg(f), VReg(t)) + ((SReg(6, count=2),) if explicit else ())
    check(Gcn3Instr("v_cndmask_b32", VReg(d), srcs), seed, exec_bits, vcc)


def test_addc_chain_is_a_64_bit_add():
    """v_add_u32 + v_addc_u32 writing over their own sources: the pair of
    32-bit adds the finalizer expands one HSAIL add_u64 into."""
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2**64, 64, dtype=np.uint64)
    b = rng.integers(0, 2**64, 64, dtype=np.uint64)
    regs = np.zeros((VGPRS, 64), dtype=np.uint32)
    ref_write(regs, 2, a, np.ones(64, dtype=bool))
    ref_write(regs, 4, b, np.ones(64, dtype=bool))
    wf = make_wf(Gcn3Instr("v_add_u32", VReg(2), (VReg(2), VReg(4))), regs, FULL)
    wf.kernel.instrs[1:1] = [Gcn3Instr("v_addc_u32", VReg(3), (VReg(3), VReg(5)))]
    executor = Executor(SimulatedMemory())
    step_wavefront(wf, executor)
    step_wavefront(wf, executor)
    assert np.array_equal(read_v64(wf, VReg(2, count=2)), a + b)


def test_inactive_lanes_keep_nan_payloads_and_negative_zero():
    regs = np.zeros((VGPRS, 64), dtype=np.uint32)
    regs[4] = np.resize(SPECIAL32, 64)
    regs[1] = np.float32(1.5).view(np.uint32)
    instr = Gcn3Instr("v_add_f32", VReg(4), (VReg(4), VReg(1)))
    exec_bits = 0x00000000FFFF0000
    got, _ = run_one(instr, regs, exec_bits)
    inactive = ~lanes_of(exec_bits)
    assert np.array_equal(got[4][inactive], regs[4][inactive])
    assert not np.array_equal(got[4][~inactive], regs[4][~inactive])


def test_v_cmp_masks_with_exec_and_leaves_vgprs_alone():
    regs = random_vgprs(9)
    exec_bits = 0x0F0F0F0F0F0F0F0F
    instr = Gcn3Instr("v_cmp_lt_u32", VCC, (VReg(1), VReg(2)))
    want = bits_of(regs[1] < regs[2]) & exec_bits
    got, vcc = run_one(instr, regs, exec_bits)
    assert vcc == want and np.array_equal(got, regs)


# ---------------------------------------------------------------------------
# Loads: the destination may be the load's own address pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dest_index,addr_index", [(2, 2), (3, 2), (5, 5)])
@pytest.mark.parametrize("op", ["flat_load_dword", "flat_load_dwordx2"])
def test_load_into_its_own_address_pair(op, dest_index, addr_index):
    memory = SimulatedMemory()
    memory.map_range(HEAP_BASE, 4096)
    data = np.arange(128, dtype=np.uint64) * np.uint64(0x100000001) + np.uint64(7)
    memory.write_array(HEAP_BASE, data)
    addrs = np.uint64(HEAP_BASE) + np.arange(64, dtype=np.uint64) * np.uint64(8)
    regs = random_vgprs(3)
    ref_write(regs, addr_index, addrs, np.ones(64, dtype=bool))
    wide = op.endswith("x2")
    instr = Gcn3Instr(op, VReg(dest_index, 2 if wide else 1),
                      (VReg(addr_index, 2),))
    exec_bits = 0xFFFFFFFF0000FFFF
    want = regs.copy()
    ref_write(want, dest_index, data[:64] if wide else data[:64].astype(np.uint32),
              lanes_of(exec_bits))
    got, _ = run_one(instr, regs, exec_bits, memory=memory)
    assert np.array_equal(got, want)
