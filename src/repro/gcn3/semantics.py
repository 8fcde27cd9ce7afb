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

from typing import Callable, Sequence

import numpy as np

from ..common.errors import ExecutionError
from ..common.exec_types import DispatchContext, ExecResult, MemKind
from ..common.lanes import (
    COMPARISONS, F32, F64, FULL_MASK, I32, I64, U32, U64, VIEW_DTYPES, WF_SIZE,
    Group,
    RowLines,
    Step,
    Wavefronts,
    atomic_add_op,
    barrier,
    convert,
    copy_lanes,
    end,
    fma,
    frame_addresses,
    lane_op,
    load_op,
    mul_hi,
    nop,
    pack_rows,
    reg_dest,
    reg_view,
    select,
    shift,
    splat,
    store_op,
    unpack_rows,
)
from . import abi
from .isa import Gcn3Instr, Gcn3Kernel, SImm, SReg, SpecialReg, VCC, VReg

#: Register-file view (common/lanes.py) behind each opcode type suffix.
_KIND = {"b32": U32, "u32": U32, "u24": U32, "i32": I32, "f32": F32,
         "b64": U64, "u64": U64, "i64": I64, "f64": F64}


class Gcn3Wavefronts(Wavefronts):
    """Architectural state of a set of GCN3 wavefronts: the shared vector
    register file and EXEC (:class:`~repro.common.lanes.Wavefronts`)
    plus each wavefront's SGPRs (``uint32[wf, sgpr]``), VCC (bool lanes,
    like EXEC) and SCC, initialized per the kernel ABI."""

    #: ISA discriminator shared with the HSAIL state and ReplayCursor
    #: (see there); the ExecResult fields the steps fill — EXEC
    #: popcounts, s_branch targets, coalesced memory lines — are the
    #: trace-capture contract of timing/replay.py.
    is_gcn3 = True

    def __init__(self, kernel: Gcn3Kernel,
                 contexts: Sequence[DispatchContext]) -> None:
        dims = getattr(kernel, "abi_dims", 1)
        self.vgprs = max(abi.first_free_vgpr(dims) + 1, kernel.vgprs_used)
        super().__init__(kernel, contexts, self.vgprs)
        count = max(abi.first_free_sgpr(dims), kernel.sgprs_used) + 2
        rows = len(contexts)
        self.sgprs = np.zeros((rows, count + (count & 1)), dtype=np.uint32)
        self.vccs = np.zeros((rows, WF_SIZE), dtype=bool)
        self.sccs = np.zeros(rows, dtype=bool)
        abi.initialize_wavefront_registers(self.sgprs, self.views[U32],
                                           contexts, self.local_ids, dims)

    def bind(self, g: Group) -> None:
        lo, hi = g.lo, g.hi
        g.sgpr = self.sgprs[lo:hi]
        g.vcc = self.vccs[lo:hi]
        g.scc = self.sccs[lo:hi]
        g.rpcs = _NO_RPCS


_NO_RPCS: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Scalar operands: one value per member wavefront
# ---------------------------------------------------------------------------

_LOW32 = np.uint64(0xFFFFFFFF)
_HIGH = np.uint64(32)


def _sread(op: object, bits: int) -> Callable:
    """Accessor ``f(g)`` of a scalar operand as one unsigned ``bits``-wide
    value per window row (``uint32``/``uint64[wf]``), or one constant
    for all of them."""
    wide = bits == 64
    if isinstance(op, SImm):
        return lambda g, _c=(np.uint64(op.pattern & FULL_MASK) if wide
                             else np.uint32(op.pattern & 0xFFFFFFFF)): _c
    if isinstance(op, SReg):
        index = op.index
        if not wide:
            return lambda g: g.sgpr[:, index]
        return lambda g: (g.sgpr[:, index].astype(np.uint64)
                          | (g.sgpr[:, index + 1].astype(np.uint64) << _HIGH))
    if isinstance(op, SpecialReg) and op.name in ("vcc", "exec"):
        lanes = ((lambda g: g.vcc) if op.name == "vcc"
                 else (lambda g: g.exec))
        if wide:
            return lambda g: pack_rows(lanes(g))
        return lambda g: (pack_rows(lanes(g)) & _LOW32).astype(np.uint32)
    if isinstance(op, SpecialReg) and op.name == "scc" and not wide:
        return lambda g: g.scc.astype(np.uint32)
    raise ExecutionError(f"cannot read {bits}-bit scalar operand {op!r}")


def _swrite(op: object, bits: int) -> Callable:
    """``f(g, values)``: write a scalar destination of the members from
    one value per window row (or one for all)."""
    wide = bits == 64
    if isinstance(op, SReg):
        index = op.index

        def sreg(g, values):
            np.copyto(g.sgpr[:, index], values & _LOW32 if wide else values,
                      where=g.member, casting="unsafe")
            if wide:
                np.copyto(g.sgpr[:, index + 1], values >> _HIGH,
                          where=g.member, casting="unsafe")
        return sreg
    if isinstance(op, SpecialReg) and op.name in ("vcc", "exec"):
        is_exec = op.name == "exec"

        def mask(g, values):
            words = np.broadcast_to(np.asarray(values, dtype=np.uint64),
                                    (len(g.exec),))
            lanes = unpack_rows(words)
            if is_exec:
                if wide:
                    g.set_exec(lanes)
                    return
                g.set_exec(np.concatenate((lanes[:, :32], g.exec[:, 32:]), 1))
                return
            if wide:
                np.copyto(g.vcc, lanes, where=g.member_col)
            else:
                np.copyto(g.vcc[:, :32], lanes[:, :32], where=g.member_col)
        return mask
    raise ExecutionError(f"cannot write {bits}-bit scalar operand {op!r}")


# ---------------------------------------------------------------------------
# Per-static-instruction compilation
# ---------------------------------------------------------------------------


def _vsrc(op: object, kind: int) -> Callable:
    """Accessor ``f(g)`` of one vector-instruction source read as
    ``kind``: a VGPR view, a static splat, or a wavefront-uniform scalar
    as a ``[wf, 1]`` column that broadcasts over the lanes."""
    if isinstance(op, VReg):
        return reg_view(kind, op.index)
    if isinstance(op, SImm):
        return splat(op.pattern, kind)
    dtype = VIEW_DTYPES[kind]
    if isinstance(op, SReg) and kind < U64:
        index = op.index
        return lambda g: g.sgpr[:, index:index + 1].view(dtype)
    read = _sread(op, 64 if kind >= U64 else 32)
    return lambda g: read(g)[:, None].view(dtype)


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
    instruction, where :meth:`Gcn3Wavefronts.steps` finds it.
    ``s_waitcnt`` has no functional effect: the timing layer gates on
    the predecoded ``IssueDesc`` wait fields, and the thresholds ride in
    ``waitcnt``.
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
        elif op == "s_branch" or op in _TAKEN:
            run = _compile_branch(instr)
        elif op.startswith("s_cmp_"):
            run = _compile_scmp(instr)
        elif op in _SALU:
            run = _compile_salu(instr)
        elif op in ("s_and_saveexec_b64", "s_or_saveexec_b64"):
            run = _compile_saveexec(instr)
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
        write = _swrite(instr.dest, 32)

        def readfirstlane(g, exe):
            lanes = g.exec
            first = lanes.argmax(axis=1)  # lowest active lane, else 0
            values = np.broadcast_to(src(g), lanes.shape)
            write(g, values[np.arange(len(lanes)), first])
        return readfirstlane
    dest = reg_dest(kind, instr.dest.index)  # type: ignore[union-attr]
    if name == "cndmask":  # (false value, true value[, selector pair]); VCC if none
        return lane_op(select, dest, _lane_mask(srcs[2] if len(srcs) > 2 else VCC),
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
                reads[i] = (lambda g, _r=reads[i]: np.negative(_r(g)))
    if name == "div_scale":
        # Functional simplification: no scaling; VCC cleared.
        copy = lane_op(copy_lanes, dest, reads[0])

        def div_scale(g, exe):
            copy(g, exe)
            np.copyto(g.vcc, False, where=g.member_col)
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

    def run(g, exe):
        x = a(g)
        y = b(g)
        if adds:
            total = x + y
            carry = total < x
        else:
            total = x - y
            carry = x < y  # borrow
        if carry_in:
            subtotal = total
            cin = g.vcc.astype(np.uint32)
            if adds:
                total = subtotal + cin
                carry |= total < subtotal
            else:
                total = subtotal - cin
                carry |= subtotal < cin
        np.copyto(out(g), total, where=g.where)
        np.copyto(g.vcc, carry, where=g.lanes)
    return run


def _lane_mask(op: object) -> Callable:
    """Accessor of a 64-bit scalar operand read as bool lanes
    ``[wf, 64]``: VCC and EXEC as they are, an SGPR pair unpacked."""
    if op == VCC:
        return lambda g: g.vcc
    if isinstance(op, SpecialReg) and op.name == "exec":
        return lambda g: g.exec
    read = _sread(op, 64)
    return lambda g: unpack_rows(np.broadcast_to(read(g), (len(g.exec),)))


def _compile_cmp(instr: Gcn3Instr, fn: Callable, kind: int) -> Callable:
    a = _vsrc(instr.srcs[0], kind)
    b = _vsrc(instr.srcs[1], kind)
    dest = instr.dest if instr.dest is not None else VCC
    if dest == VCC:
        def to_vcc(g, exe):
            np.copyto(g.vcc, fn(a(g), b(g)) & g.exec, where=g.member_col)
        return to_vcc
    write = _swrite(dest, 64)

    def run(g, exe):
        write(g, pack_rows(np.broadcast_to(fn(a(g), b(g)), g.exec.shape)
                           & g.exec))
    return run


def _compile_memory(instr: Gcn3Instr) -> Callable:
    op = instr.opcode
    srcs = instr.srcs
    offset = int(instr.attrs.get("offset", 0))
    if op == "flat_atomic_add":
        # Lanes serialize in ascending order (matching the HSAIL model
        # so cross-ISA results are bit-identical).
        return atomic_add_op(_vsrc(srcs[0], I64), _vsrc(srcs[1], U32),
                             reg_dest(U32, instr.dest.index))  # type: ignore[union-attr]
    lds = op[0] == "d"
    scratch = op.startswith("scratch_")
    wide = op.endswith(("x2", "b64"))
    if lds:
        offs = _vsrc(srcs[0], U32)

        def address(g):
            return offs(g).astype(np.int64) + offset
    elif scratch:
        def address(g):
            return frame_addresses(g, offset)
    else:
        address = _vsrc(srcs[0], I64)
    bits = U64 if wide else U32
    size = 8 if wide else 4
    if "store" in op or "write" in op:
        data = srcs[0] if scratch else srcs[1]
        return store_op(address, _vsrc(data, bits), size, lds)
    return load_op(address, reg_dest(bits, instr.dest.index), size, lds)  # type: ignore[union-attr]


def _s32(values):
    return values.astype(np.int32)


def _bitrev32(a):
    a = np.uint32(a) if np.ndim(a) == 0 else a
    for shift, mask in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F),
                        (8, 0x00FF00FF)):
        m = np.uint32(mask)
        a = ((a >> np.uint32(shift)) & m) | ((a & m) << np.uint32(shift))
    return (a >> np.uint32(16)) | (a << np.uint32(16))


def _s_bfe(a, operand):
    offset = operand & np.uint32(0x1F)
    width = np.minimum((operand >> np.uint32(16)) & np.uint32(0x7F), 32)
    field = (np.uint64(1) << width.astype(np.uint64)) - np.uint64(1)
    return (a.astype(np.uint64) >> offset.astype(np.uint64)) & field


def _add(a, b, cin):
    total = a.astype(np.uint64) + b + cin
    return total, total > _LOW32


def _sub(a, b, cin):
    total = a.astype(np.int64) - b - cin
    return total, total < 0


def _min_max(pick, signed):
    def run(a, b):
        if signed:
            a, b = _s32(a), _s32(b)
        value = pick(a, b)
        return value, value == a  # SCC = "first operand selected"
    return run


def _nonzero(fn):
    """An op whose SCC is "result != 0"."""
    def run(*args):
        value = fn(*args)
        return value, value != 0
    return run


def _plain(fn):
    """An op that leaves SCC alone."""
    return lambda *args: (fn(*args), None)


#: ``s_<op>`` -> (source widths, destination width, whether SCC is an
#: input, ``fn(*sources[, scc]) -> (value, new SCC or None)``), every
#: operand one value per member wavefront.
_SALU = {
    "s_mov_b32": ((32,), 32, False, _plain(lambda a: a)),
    "s_mov_b64": ((64,), 64, False, _plain(lambda a: a)),
    "s_not_b32": ((32,), 32, False, _nonzero(lambda a: ~a)),
    "s_not_b64": ((64,), 64, False, _nonzero(lambda a: ~a)),
    "s_brev_b32": ((32,), 32, False, _plain(_bitrev32)),
    "s_add_u32": ((32, 32), 32, False, lambda a, b: _add(a, b, 0)),
    "s_addc_u32": ((32, 32), 32, True, _add),
    "s_sub_u32": ((32, 32), 32, False, lambda a, b: _sub(a, b, 0)),
    "s_subb_u32": ((32, 32), 32, True, _sub),
    "s_mul_i32": ((32, 32), 32, False,
                  _plain(lambda a, b: _s32(a).astype(np.int64) * _s32(b))),
    "s_and_b32": ((32, 32), 32, False, _nonzero(np.bitwise_and)),
    "s_or_b32": ((32, 32), 32, False, _nonzero(np.bitwise_or)),
    "s_xor_b32": ((32, 32), 32, False, _nonzero(np.bitwise_xor)),
    "s_and_b64": ((64, 64), 64, False, _nonzero(np.bitwise_and)),
    "s_or_b64": ((64, 64), 64, False, _nonzero(np.bitwise_or)),
    "s_xor_b64": ((64, 64), 64, False, _nonzero(np.bitwise_xor)),
    "s_andn2_b64": ((64, 64), 64, False, _nonzero(lambda a, b: a & ~b)),
    "s_lshl_b32": ((32, 32), 32, False,
                   _nonzero(lambda a, n: a << (n & np.uint32(31)))),
    "s_lshr_b32": ((32, 32), 32, False,
                   _nonzero(lambda a, n: a >> (n & np.uint32(31)))),
    "s_ashr_i32": ((32, 32), 32, False,
                   _nonzero(lambda a, n: _s32(a) >> _s32(n & np.uint32(31)))),
    "s_lshl_b64": ((64, 32), 64, False, _nonzero(
        lambda a, n: a << (n & np.uint32(63)).astype(np.uint64))),
    "s_lshr_b64": ((64, 32), 64, False, _nonzero(
        lambda a, n: a >> (n & np.uint32(63)).astype(np.uint64))),
    "s_min_u32": ((32, 32), 32, False, _min_max(np.minimum, False)),
    "s_max_u32": ((32, 32), 32, False, _min_max(np.maximum, False)),
    "s_min_i32": ((32, 32), 32, False, _min_max(np.minimum, True)),
    "s_max_i32": ((32, 32), 32, False, _min_max(np.maximum, True)),
    "s_bfe_u32": ((32, 32), 32, False, _nonzero(_s_bfe)),
    "s_cselect_b32": ((32, 32), 32, True,
                      _plain(lambda a, b, scc: np.where(scc, a, b))),
    "s_cselect_b64": ((64, 64), 64, True,
                      _plain(lambda a, b, scc: np.where(scc, a, b))),
}


def _compile_salu(instr: Gcn3Instr) -> Step:
    widths, bits, reads_scc, fn = _SALU[instr.opcode]
    reads = [_sread(src, width) for src, width in zip(instr.srcs, widths)]
    write = _swrite(instr.dest, bits)
    word = np.uint64 if bits == 64 else np.uint32

    def run(g, exe):
        args = [read(g) for read in reads]
        if reads_scc:
            args.append(g.scc)
        value, scc = fn(*args)
        write(g, np.asarray(value).astype(word))  # modulo 2**bits
        if scc is not None:
            np.copyto(g.scc, scc, where=g.member)
    return run


def _compile_saveexec(instr: Gcn3Instr) -> Step:
    """s_and/or_saveexec_b64: the old EXEC to the destination, EXEC
    combined with the source, SCC = "EXEC != 0"."""
    combine = np.logical_and if instr.opcode.startswith("s_and") \
        else np.logical_or
    mask = _lane_mask(instr.srcs[0])
    write = _swrite(instr.dest, 64)

    def run(g, exe):
        old = g.exec.copy()
        lanes = combine(old, mask(g))
        write(g, pack_rows(old))
        g.set_exec(lanes)
        np.copyto(g.scc, lanes.any(axis=1), where=g.member)
    return run


_SCMP = {"eq": np.equal, "lg": np.not_equal, "lt": np.less,
         "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}


def _compile_scmp(instr: Gcn3Instr) -> Step:
    _, _, cond, ty = instr.opcode.split("_")
    fn = _SCMP[cond]
    a = _sread(instr.srcs[0], 32)
    b = _sread(instr.srcs[1], 32)
    signed = ty == "i32"

    def run(g, exe):
        x, y = a(g), b(g)
        if signed:
            x, y = _s32(x), _s32(y)
        np.copyto(g.scc, fn(x, y), where=g.member)
    return run


def _compile_waitcnt(instr: Gcn3Instr) -> Step:
    result = ExecResult(waitcnt=(instr.attrs.get("vmcnt"),
                                 instr.attrs.get("lgkmcnt")))
    return lambda g, exe: result


def _compile_smem(instr: Gcn3Instr) -> Step:
    base = _sread(instr.srcs[0], 64)
    offset = int(instr.attrs.get("offset", 0))
    count = {"s_load_dword": 1, "s_load_dwordx2": 2, "s_load_dwordx4": 4}[instr.opcode]
    dest = instr.dest
    assert isinstance(dest, SReg)
    first = dest.index

    def smem(g, exe):
        addrs = np.broadcast_to(base(g), (len(g.exec),))[g.pos].tolist()
        loaded = {}
        lines: list = []
        starts = []
        for addr in addrs:  # each distinct address loaded once
            hit = loaded.get(addr)
            if hit is None:
                start = addr + offset
                hit = loaded[addr] = (
                    [exe.memory.load_scalar(start + 4 * i, 4)
                     for i in range(count)],
                    sorted({(start + 4 * i) >> 6 for i in range(count)}))
            starts.append(len(lines))
            lines.extend(hit[1])
        g.sgpr[g.pos, first:first + count] = [loaded[addr][0] for addr in addrs]
        ends = starts[1:] + [len(lines)]
        return ExecResult(mem_kind=MemKind.SCALAR_LOAD, mem_lines=RowLines(
            np.array(lines, dtype=np.int64), starts, ends))
    return smem


#: When each conditional branch is taken, per window row.
_TAKEN = {
    "s_cbranch_scc0": lambda g: ~g.scc,
    "s_cbranch_scc1": lambda g: g.scc,
    "s_cbranch_vccz": lambda g: ~g.vcc.any(axis=1),
    "s_cbranch_vccnz": lambda g: g.vcc.any(axis=1),
    "s_cbranch_execz": lambda g: ~g.exec.any(axis=1),
    "s_cbranch_execnz": lambda g: g.exec.any(axis=1),
}
_NOT_TAKEN = ExecResult(branch_taken=False)


def _compile_branch(instr: Gcn3Instr) -> Step:
    target = instr.target
    if target is None:
        raise ExecutionError(f"{instr.opcode} without target")
    taken_all = ExecResult(branch_taken=True, next_pc=target)
    if instr.opcode == "s_branch":
        return lambda g, exe: taken_all
    taken = _TAKEN[instr.opcode]

    def branch(g, exe):
        rows = taken(g)[g.pos]
        if rows.all():
            return taken_all
        if not rows.any():
            return _NOT_TAKEN
        return ExecResult(branch_taken=rows.tolist(), next_pc=target)
    return branch


Gcn3Wavefronts.compiled = staticmethod(compiled)
