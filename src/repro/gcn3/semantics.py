"""GCN3 functional semantics at wavefront granularity.

Unlike HSAIL, the execution mask (EXEC), the carry mask (VCC) and the
scalar condition code (SCC) are architectural state manipulated directly
by instructions; there is no simulator-side reconvergence stack.  Scalar
instructions execute once per wavefront; vector instructions execute the
active lanes of EXEC.

Functional simplifications (documented in DESIGN.md): the
``v_div_scale``/``v_div_fmas``/``v_div_fixup`` trio consumes and produces
the architecturally-correct registers, but the final ``v_div_fixup``
computes an exactly-rounded quotient rather than emulating the hardware's
fixup tables bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from ..common.bits import unpack_bfe_operand
from ..common.errors import ExecutionError
from ..common.exec_types import DispatchContext, ExecResult, MemKind
from ..common.lanes import (
    COMPARISONS, F32, F64, FULL_MASK, I32, I64, U32, U64, VIEW_DTYPES, WF_SIZE,
    ExecLanes,
    Executor,
    Step,
    atomic_add_op,
    barrier,
    bool_to_mask,
    convert,
    copy_lanes,
    end,
    fma,
    frame_addresses,
    lane_op,
    load_op,
    mask_to_bool,
    mul_hi,
    nop,
    reg_dest,
    reg_view,
    register_file,
    select,
    shift,
    splat,
    store_op,
    write_lanes,
)
from . import abi
from .isa import Gcn3Instr, Gcn3Kernel, SImm, SReg, SpecialReg, VCC, VReg

#: Register-file view (common/lanes.py) behind each opcode type suffix.
_KIND = {"b32": U32, "u32": U32, "u24": U32, "i32": I32, "f32": F32,
         "b64": U64, "u64": U64, "i64": I64, "f64": F64}


@dataclass
class Gcn3WfState(ExecLanes):
    """Architectural state of one GCN3 wavefront."""

    #: ISA discriminator shared with HsailWfState and ReplayCursor (see
    #: there); the ExecResult fields filled by Gcn3Executor — EXEC
    #: popcounts, s_branch targets, coalesced memory lines — are the
    #: trace-capture contract of timing/replay.py.
    is_gcn3 = True

    kernel: Gcn3Kernel
    ctx: DispatchContext
    #: typed ``[vgpr (pair), lane]`` views of the vector register file
    #: (:func:`repro.common.lanes.register_file`)
    views: Tuple[np.ndarray, ...] = field(init=False, default=(), repr=False)
    #: its ``uint32[vgpr, lane]`` view, indexable by VRF slot
    vgpr: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    sgpr: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    exec_mask: int = FULL_MASK
    vcc: int = 0
    scc: int = 0
    pc: int = 0  # instruction index
    done: bool = False
    #: (mask value, bool lanes) memo behind :meth:`exec_bool`
    _exec_cache: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        dims = getattr(self.kernel, "abi_dims", 1)
        rows = max(abi.first_free_vgpr(dims) + 1, self.kernel.vgprs_used)
        self.views = register_file(rows)
        self.vgpr = self.views[U32][:rows]
        self.sgpr = np.zeros(
            max(abi.first_free_sgpr(dims), self.kernel.sgprs_used) + 2,
            dtype=np.uint32,
        )
        self.exec_mask = self.ctx.active_mask_bits()
        abi.initialize_wavefront_registers(self.sgpr, self.vgpr, self.ctx, dims)

    # -- scalar operand access ----------------------------------------------

    def read_s32(self, op: object) -> int:
        if isinstance(op, SReg):
            return int(self.sgpr[op.index])
        if isinstance(op, SImm):
            return op.pattern & 0xFFFFFFFF
        if isinstance(op, SpecialReg):
            if op.name == "vcc":
                return self.vcc & 0xFFFFFFFF
            if op.name == "exec":
                return self.exec_mask & 0xFFFFFFFF
            if op.name == "scc":
                return self.scc
        raise ExecutionError(f"cannot read scalar operand {op!r}")

    def read_s64(self, op: object) -> int:
        if isinstance(op, SReg):
            return int(self.sgpr[op.index]) | (int(self.sgpr[op.index + 1]) << 32)
        if isinstance(op, SImm):
            return op.pattern & 0xFFFFFFFFFFFFFFFF
        if isinstance(op, SpecialReg):
            if op.name == "vcc":
                return self.vcc
            if op.name == "exec":
                return self.exec_mask
        raise ExecutionError(f"cannot read 64-bit scalar operand {op!r}")

    def write_s32(self, op: object, value: int) -> None:
        value &= 0xFFFFFFFF
        if isinstance(op, SReg):
            self.sgpr[op.index] = value
            return
        if isinstance(op, SpecialReg) and op.name == "vcc":
            self.vcc = (self.vcc & ~0xFFFFFFFF) | value
            return
        raise ExecutionError(f"cannot write scalar operand {op!r}")

    def write_s64(self, op: object, value: int) -> None:
        value &= 0xFFFFFFFFFFFFFFFF
        if isinstance(op, SReg):
            self.sgpr[op.index] = value & 0xFFFFFFFF
            self.sgpr[op.index + 1] = value >> 32
            return
        if isinstance(op, SpecialReg):
            if op.name == "exec":
                self.exec_mask = value
                return
            if op.name == "vcc":
                self.vcc = value
                return
        raise ExecutionError(f"cannot write 64-bit scalar operand {op!r}")

    # -- vector operand access ------------------------------------------------

    def read_v64(self, op: object) -> np.ndarray:
        return _vsrc(op, U64)(self)

    def write_v64(self, op: VReg, values: np.ndarray, mask: np.ndarray) -> None:
        raw = np.ascontiguousarray(values).view(np.uint64).reshape(-1)
        write_lanes(self, U64, op.index, raw, mask)


# ---------------------------------------------------------------------------
# Per-static-instruction compilation
# ---------------------------------------------------------------------------


def _vsrc(op: object, kind: int) -> Callable:
    """Accessor ``f(wf)`` of one vector-instruction source read as
    ``kind``: a VGPR view, a static splat, or a wavefront-uniform scalar
    broadcast at read time."""
    if isinstance(op, VReg):
        return reg_view(kind, op.index)
    if isinstance(op, SImm):
        return splat(op.pattern, kind)
    dtype = VIEW_DTYPES[kind]
    if kind >= U64:
        return lambda wf: np.full(WF_SIZE, np.uint64(wf.read_s64(op))).view(dtype)
    if isinstance(op, SReg):
        index = op.index
        return lambda wf: wf.sgpr[index:index + 1].repeat(WF_SIZE).view(dtype)
    return lambda wf: np.full(WF_SIZE, np.uint32(wf.read_s32(op))).view(dtype)


def _mad24(a, b, c, out, where=True) -> None:
    low = np.uint32(0xFFFFFF)
    np.add((a & low) * (b & low), c, out=out, where=where)


def _bfe(a, offset, width, out, where=True) -> None:
    field_mask = (np.uint32(1) << (width & np.uint32(31))) - np.uint32(1)
    np.bitwise_and(a >> (offset & np.uint32(31)), field_mask, out=out, where=where)


def _div_fixup(quotient, den, num, out, where=True) -> None:
    # Functional simplification (module docstring): the exact quotient.
    np.divide(num, den, out=out, where=where)


#: ``v_<name>_<type>`` -> ufunc or composite with the ufunc signature
#: (``lane_op``); the type suffix picks the register-file view.
_VALU = {
    "mov": copy_lanes, "not": np.invert, "and": np.bitwise_and,
    "or": np.bitwise_or, "xor": np.bitwise_xor,
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "min": np.minimum, "max": np.maximum,
    "mul_lo": np.multiply, "mul_hi": mul_hi, "mad_u32": _mad24, "bfe": _bfe,
    "fma": fma, "div_fmas": fma, "div_fixup": _div_fixup,
    "rcp": np.reciprocal, "sqrt": np.sqrt,
}
_REV_SHIFTS = {"lshlrev": np.left_shift, "lshrrev": np.right_shift,
               "ashrrev": np.right_shift}
_V_CARRY_OPS = frozenset(("v_add_u32", "v_sub_u32", "v_subrev_u32",
                          "v_addc_u32", "v_subb_u32"))


def compiled(instr: Gcn3Instr) -> Step:
    """The semantics of one static instruction as a step
    (:mod:`repro.common.lanes`).

    Opcode parsing, the register-file view of every operand, the ufunc
    and a branch's target are decided here, once, and memoized on the
    instruction; :meth:`Gcn3Executor.execute` and the functional pass's
    per-kernel step table run the same object.  ``s_waitcnt`` has no
    functional effect: the timing layer gates on the predecoded
    ``IssueDesc`` wait fields, and the thresholds ride in ``waitcnt``.
    """
    run = getattr(instr, "_run", None)
    if run is None:
        op = instr.opcode
        lead = op[0]
        if lead == "v":
            run = _compile_valu(instr)
        elif lead == "f" or lead == "d" or op.startswith("scratch_"):
            run = _compile_memory(instr)
        elif op in _FIXED:
            run = _FIXED[op]
        elif op == "s_waitcnt":
            run = _compile_waitcnt(instr)
        elif op.startswith("s_load"):
            run = _compile_smem(instr)
        elif op in _TAKEN:
            run = _compile_branch(instr)
        elif op.startswith("s_cmp_"):
            run = partial(_s_cmp, instr)
        elif op.startswith("s_"):
            run = partial(_salu, instr)
        else:
            raise ExecutionError(f"cannot execute {op!r}")
        instr._run = run
    return run


_FIXED = {"s_endpgm": end, "s_barrier": barrier, "s_nop": nop}


def _compile_valu(instr: Gcn3Instr) -> Callable:
    op = instr.opcode
    srcs = instr.srcs
    if op in _V_CARRY_OPS:
        return _compile_carry(instr)
    name, _, ty = op[2:].rpartition("_")
    kind = _KIND.get(ty)
    if kind is None:
        raise ExecutionError(f"unhandled VALU op {op!r}")
    if name.startswith("cmp_"):
        return _compile_cmp(instr, COMPARISONS[name[4:]], kind)
    if name == "readfirstlane":
        src = _vsrc(srcs[0], U32)

        def readfirstlane(wf, exe):
            low = wf.exec_mask & -wf.exec_mask  # lowest active lane, else 0
            wf.write_s32(instr.dest, int(src(wf)[max(low.bit_length() - 1, 0)]))
        return readfirstlane
    dest = reg_dest(kind, instr.dest.index)  # type: ignore[union-attr]
    if name == "cndmask":  # (false value, true value[, selector pair]); VCC if none
        chooser = srcs[2] if len(srcs) > 2 else VCC
        return lane_op(select, dest,
                       lambda wf: mask_to_bool(wf.read_s64(chooser)),
                       _vsrc(srcs[1], U32), _vsrc(srcs[0], U32))
    if name.startswith("cvt_"):  # v_cvt_<dst>_<src>
        return lane_op(convert, reg_dest(_KIND[name[4:]], instr.dest.index),  # type: ignore[union-attr]
                       _vsrc(srcs[0], kind))
    if name in _REV_SHIFTS:  # (amount, value)
        return lane_op(shift(_REV_SHIFTS[name], 64 if kind >= U64 else 32),
                       dest, _vsrc(srcs[1], kind), _vsrc(srcs[0], U32))
    reads = [_vsrc(o, kind) for o in srcs]
    if ty in ("f32", "f64"):
        for i, flag in enumerate(instr.attrs.get("neg") or ()):  # type: ignore[arg-type]
            if flag and i < len(reads):
                reads[i] = (lambda wf, _r=reads[i]: np.negative(_r(wf)))
    if name == "div_scale":
        # Functional simplification: no scaling; VCC cleared.
        copy = lane_op(copy_lanes, dest, reads[0])

        def div_scale(wf, exe):
            copy(wf, exe)
            wf.vcc = 0
        return div_scale
    fn = _VALU.get(name)
    if fn is None:
        raise ExecutionError(f"unhandled VALU op {op!r}")
    return lane_op(fn, dest, *reads)


def _compile_carry(instr: Gcn3Instr) -> Callable:
    """v_add/sub/subrev/addc/subb_u32: VCC receives the carry (borrow)
    of the active lanes.

    Carry detection stays in uint32: for wrapped x = a + b, overflow iff
    x < a; for x = a - b, borrow iff a < b; the carry-in step composes
    the same way.  Both are taken from the sources and fresh partial
    sums *before* the destination -- possibly a source -- is written.
    """
    op = instr.opcode
    a = _vsrc(instr.srcs[0], U32)
    b = _vsrc(instr.srcs[1], U32)
    if op == "v_subrev_u32":
        a, b = b, a
    adds = op in ("v_add_u32", "v_addc_u32")
    carry_in = op in ("v_addc_u32", "v_subb_u32")
    out = reg_view(U32, instr.dest.index)  # type: ignore[union-attr]

    def run(wf, exe):
        x = a(wf)
        y = b(wf)
        if adds:
            total = x + y
            carry = total < x
        else:
            total = x - y
            carry = x < y  # borrow
        if carry_in:
            subtotal = total
            cin = mask_to_bool(wf.vcc).astype(np.uint32)
            if adds:
                total = subtotal + cin
                carry |= total < subtotal
            else:
                total = subtotal - cin
                carry |= subtotal < cin
        np.copyto(out(wf), total, where=wf.lane_where())
        wf.vcc = (wf.vcc & ~wf.exec_mask) | (bool_to_mask(carry) & wf.exec_mask)
    return run


def _compile_cmp(instr: Gcn3Instr, fn: Callable, kind: int) -> Callable:
    a = _vsrc(instr.srcs[0], kind)
    b = _vsrc(instr.srcs[1], kind)
    dest = instr.dest if instr.dest is not None else VCC

    def run(wf, exe):
        wf.write_s64(dest, bool_to_mask(fn(a(wf), b(wf))) & wf.exec_mask)
    return run


def _compile_memory(instr: Gcn3Instr) -> Callable:
    op = instr.opcode
    srcs = instr.srcs
    offset = int(instr.attrs.get("offset", 0))
    if op == "flat_atomic_add":
        # Lanes serialize in ascending order (matching the HSAIL model
        # so cross-ISA results are bit-identical).
        dest = reg_dest(U32, instr.dest.index) if instr.dest is not None else None
        return atomic_add_op(_vsrc(srcs[0], I64), _vsrc(srcs[1], U32), dest)
    lds = op[0] == "d"
    scratch = op.startswith("scratch_")
    wide = op.endswith(("x2", "b64"))
    if lds:
        offs = _vsrc(srcs[0], U32)

        def address(wf):
            return offs(wf).astype(np.int64) + (wf.ctx.lds_base_offset + offset)
    elif scratch:
        def address(wf):
            return frame_addresses(wf.ctx, offset)
    else:
        address = _vsrc(srcs[0], I64)
    bits = U64 if wide else U32
    size = 8 if wide else 4
    if "store" in op or "write" in op:
        data = srcs[0] if scratch else srcs[1]
        return store_op(address, _vsrc(data, bits), size, lds)
    return load_op(address, reg_dest(bits, instr.dest.index), size, lds)  # type: ignore[union-attr]


def _salu(instr: Gcn3Instr, wf: Gcn3WfState, exe) -> None:
    op = instr.opcode
    d = instr.dest
    if op == "s_mov_b32":
        wf.write_s32(d, wf.read_s32(instr.srcs[0]))
        return
    if op == "s_mov_b64":
        wf.write_s64(d, wf.read_s64(instr.srcs[0]))
        return
    if op == "s_not_b32":
        a = wf.read_s32(instr.srcs[0])
        wf.write_s32(d, ~a & 0xFFFFFFFF)
        wf.scc = int((~a & 0xFFFFFFFF) != 0)
        return
    if op == "s_not_b64":
        a = wf.read_s64(instr.srcs[0])
        wf.write_s64(d, ~a & 0xFFFFFFFFFFFFFFFF)
        wf.scc = int((~a & 0xFFFFFFFFFFFFFFFF) != 0)
        return
    if op == "s_brev_b32":
        a = wf.read_s32(instr.srcs[0])
        wf.write_s32(d, int(f"{a:032b}"[::-1], 2))
        return
    if op in ("s_and_saveexec_b64", "s_or_saveexec_b64"):
        old = wf.exec_mask
        src = wf.read_s64(instr.srcs[0])
        wf.write_s64(d, old)
        wf.exec_mask = (old & src) if op.startswith("s_and") else (old | src)
        wf.scc = int(wf.exec_mask != 0)
        return
    if op in ("s_add_u32", "s_sub_u32", "s_addc_u32", "s_subb_u32"):
        a = wf.read_s32(instr.srcs[0])
        b = wf.read_s32(instr.srcs[1])
        carry_in = wf.scc if op in ("s_addc_u32", "s_subb_u32") else 0
        if op in ("s_add_u32", "s_addc_u32"):
            total = a + b + carry_in
            wf.scc = int(total > 0xFFFFFFFF)
        else:
            total = a - b - carry_in
            wf.scc = int(total < 0)
        wf.write_s32(d, total & 0xFFFFFFFF)
        return
    if op == "s_mul_i32":
        a = _s32(wf.read_s32(instr.srcs[0]))
        b = _s32(wf.read_s32(instr.srcs[1]))
        wf.write_s32(d, (a * b) & 0xFFFFFFFF)
        return
    if op in ("s_and_b32", "s_or_b32", "s_xor_b32"):
        a = wf.read_s32(instr.srcs[0])
        b = wf.read_s32(instr.srcs[1])
        if op == "s_and_b32":
            value = a & b
        elif op == "s_or_b32":
            value = a | b
        else:
            value = a ^ b
        wf.write_s32(d, value)
        wf.scc = int(value != 0)
        return
    if op in ("s_and_b64", "s_or_b64", "s_xor_b64", "s_andn2_b64"):
        a = wf.read_s64(instr.srcs[0])
        b = wf.read_s64(instr.srcs[1])
        if op == "s_and_b64":
            value = a & b
        elif op == "s_or_b64":
            value = a | b
        elif op == "s_xor_b64":
            value = a ^ b
        else:
            value = a & ~b & 0xFFFFFFFFFFFFFFFF
        wf.write_s64(d, value)
        wf.scc = int(value != 0)
        return
    if op in ("s_lshl_b32", "s_lshr_b32", "s_ashr_i32"):
        a = wf.read_s32(instr.srcs[0])
        amt = wf.read_s32(instr.srcs[1]) & 31
        if op == "s_lshl_b32":
            value = (a << amt) & 0xFFFFFFFF
        elif op == "s_lshr_b32":
            value = a >> amt
        else:
            value = (_s32(a) >> amt) & 0xFFFFFFFF
        wf.write_s32(d, value)
        wf.scc = int(value != 0)
        return
    if op in ("s_lshl_b64", "s_lshr_b64"):
        a = wf.read_s64(instr.srcs[0])
        amt = wf.read_s32(instr.srcs[1]) & 63
        value = (a << amt) & 0xFFFFFFFFFFFFFFFF if op == "s_lshl_b64" else a >> amt
        wf.write_s64(d, value)
        wf.scc = int(value != 0)
        return
    if op in ("s_min_u32", "s_max_u32", "s_min_i32", "s_max_i32"):
        a = wf.read_s32(instr.srcs[0])
        b = wf.read_s32(instr.srcs[1])
        if op.endswith("i32"):
            a, b = _s32(a), _s32(b)
        value = min(a, b) if "min" in op else max(a, b)
        wf.scc = int(value == a)  # SCC = "first operand selected"
        wf.write_s32(d, value & 0xFFFFFFFF)
        return
    if op == "s_bfe_u32":
        a = wf.read_s32(instr.srcs[0])
        offset, width = unpack_bfe_operand(wf.read_s32(instr.srcs[1]))
        value = (a >> offset) & ((1 << width) - 1) if width else 0
        wf.write_s32(d, value)
        wf.scc = int(value != 0)
        return
    if op in ("s_cselect_b32", "s_cselect_b64"):
        pick = instr.srcs[0] if wf.scc else instr.srcs[1]
        if op.endswith("b64"):
            wf.write_s64(d, wf.read_s64(pick))
        else:
            wf.write_s32(d, wf.read_s32(pick))
        return
    raise ExecutionError(f"unhandled SALU op {op!r}")


def _s_cmp(instr: Gcn3Instr, wf: Gcn3WfState, exe) -> None:
    _, _, cond, ty = instr.opcode.split("_")
    a = wf.read_s32(instr.srcs[0])
    b = wf.read_s32(instr.srcs[1])
    if ty == "i32":
        a, b = _s32(a), _s32(b)
    table = {
        "eq": a == b, "lg": a != b, "lt": a < b,
        "le": a <= b, "gt": a > b, "ge": a >= b,
    }
    wf.scc = int(table[cond])


def _compile_waitcnt(instr: Gcn3Instr) -> Step:
    waits = (instr.attrs.get("vmcnt"), instr.attrs.get("lgkmcnt"))
    return lambda wf, exe: ExecResult(waitcnt=waits)


def _compile_smem(instr: Gcn3Instr) -> Step:
    base = instr.srcs[0]
    offset = int(instr.attrs.get("offset", 0))
    count = {"s_load_dword": 1, "s_load_dwordx2": 2, "s_load_dwordx4": 4}[instr.opcode]
    dest = instr.dest
    assert isinstance(dest, SReg)

    def smem(wf, exe):
        addr = wf.read_s64(base) + offset
        for i in range(count):
            wf.sgpr[dest.index + i] = exe.memory.load_scalar(addr + 4 * i, 4) & 0xFFFFFFFF
        return ExecResult(mem_kind=MemKind.SCALAR_LOAD,
                          mem_lines=sorted({(addr + 4 * i) >> 6 for i in range(count)}))
    return smem


#: When each branch is taken.
_TAKEN = {
    "s_branch": lambda wf: True,
    "s_cbranch_scc0": lambda wf: wf.scc == 0,
    "s_cbranch_scc1": lambda wf: wf.scc == 1,
    "s_cbranch_vccz": lambda wf: wf.vcc == 0,
    "s_cbranch_vccnz": lambda wf: wf.vcc != 0,
    "s_cbranch_execz": lambda wf: wf.exec_mask == 0,
    "s_cbranch_execnz": lambda wf: wf.exec_mask != 0,
}


def _compile_branch(instr: Gcn3Instr) -> Step:
    target = instr.target
    if target is None:
        raise ExecutionError(f"{instr.opcode} without target")
    taken = _TAKEN[instr.opcode]

    def branch(wf, exe):
        if taken(wf):
            return ExecResult(branch_taken=True, next_pc=target)
        return ExecResult(branch_taken=False)
    return branch


class Gcn3Executor(Executor):
    """Executes GCN3 instructions for the wavefronts of one workgroup."""

    compiled = staticmethod(compiled)


def _s32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value
