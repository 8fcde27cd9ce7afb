"""HSAIL functional semantics at wavefront granularity.

HSAIL instructions define per-work-item behaviour; the simulator (like
gem5's HSAIL model) executes them 64 lanes at a time under an active mask
maintained by a reconvergence stack (paper §III.C.1).  Lane storage is the
typed register file of :mod:`repro.common.lanes`: 32-bit slots, 64-bit
values in even-aligned slot pairs that read as one 64-bit element.

Key IL modeling artifacts reproduced here:

* ``ld_kernarg`` is serviced from simulator state at no memory cost,
* private/spill segments use a simulator-managed per-launch frame,
* divergence pushes (rpc, pending pc, mask) entries; reaching an RPC pops
  or switches paths — switches are the IB-flush-causing jumps of Fig. 3b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..common.errors import ExecutionError
from ..common.exec_types import DispatchContext, ExecResult
from ..common.lanes import (
    COMPARISONS, F32, F64, I32, I64, U32, U64, VIEW_DTYPES,
    Group,
    Step,
    Wavefronts,
    atomic_add_op,
    barrier,
    compare,
    convert,
    copy_lanes,
    end,
    fma,
    frame_addresses,
    lane_op,
    load_op,
    mul_hi,
    nop,
    reg_dest,
    reg_view,
    select,
    shift,
    splat,
    store_op,
)
from ..kernels.types import DType
from ..runtime.memory import Segment
from .isa import HReg, HsailInstr, HsailKernel, Imm

#: Register-file view (common/lanes.py) each HSAIL type reads and writes.
_KIND = {DType.U32: U32, DType.B1: U32, DType.S32: I32, DType.F32: F32,
         DType.U64: U64, DType.F64: F64}


@dataclass
class RsEntry:
    """One reconvergence-stack entry; the masks are ``bool[64]`` lane
    rows, EXEC's form."""

    rpc: int
    pending_pc: Optional[int]
    pending_mask: np.ndarray
    merged_mask: np.ndarray


class HsailWavefronts(Wavefronts):
    """Architectural state of a set of HSAIL wavefronts: the shared
    register file and EXEC (:class:`~repro.common.lanes.Wavefronts`)
    plus one reconvergence stack per wavefront."""

    #: ISA discriminator shared with the GCN3 state and ReplayCursor, so
    #: the timing layer can branch without isinstance checks.  Every
    #: ExecResult field the steps fill is part of the trace-capture
    #: contract (timing/replay.py): reconvergence jumps, branch targets,
    #: memory lines, active-lane counts must stay timing-invariant.
    is_gcn3 = False

    def __init__(self, kernel: HsailKernel,
                 contexts: Sequence[DispatchContext]) -> None:
        self.slots = max(2, kernel.reg_slots_used)
        super().__init__(kernel, contexts, self.slots)
        self.stacks: List[List[RsEntry]] = [[] for _ in contexts]

    def bind(self, g: Group) -> None:
        stacks = self.stacks
        g.rpcs = {stacks[row][-1].rpc for row in g.rows if stacks[row]}

    def reconverge(self, row: int) -> Optional[int]:
        """Handle RPC hits before wavefront ``row`` issues at its pc.

        Returns a new PC when a pending divergent path must run first (the
        simulator-initiated jump that flushes the IB), else None.
        """
        rs = self.stacks[row]
        while rs and self.pcs[row] == rs[-1].rpc:
            top = rs[-1]
            if top.pending_pc is not None and top.pending_pc != top.rpc:
                pc = top.pending_pc
                self.exec[row] = top.pending_mask
                top.pending_pc = None
                self.pcs[row] = pc
                return pc
            self.exec[row] = top.merged_mask
            rs.pop()
        return None


# ---------------------------------------------------------------------------
# Per-static-instruction compilation
# ---------------------------------------------------------------------------


def _operand(op: "HReg | Imm", kind: int) -> Callable:
    """Accessor ``f(g)`` of one source operand read as ``kind``."""
    if isinstance(op, Imm):
        return splat(op.pattern, kind)
    return reg_view(kind, op.index)


_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide, "min": np.minimum, "max": np.maximum,
           "and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor,
           "mulhi": mul_hi}
_UNARY = {"neg": np.negative, "not": np.invert, "abs": np.absolute,
          "rcp": np.reciprocal, "sqrt": np.sqrt}
_QUERY_FIELD = {"workgroupid": "wg_id", "workgroupsize": "wg_size",
                "gridsize": "grid_size"}
_MEMORY_OPS = frozenset(("ld", "st", "atomic_add"))


def compiled(instr: HsailInstr) -> Step:
    """The semantics of one static instruction as a step
    (:mod:`repro.common.lanes`).

    Everything that depends only on the instruction -- opcode and type
    dispatch, operand kinds, which register-file view each operand is,
    the ufunc, a branch's target -- is decided here, once, and memoized
    on the instruction, where :meth:`HsailWavefronts.steps` finds it.
    """
    run = getattr(instr, "_run", None)
    if run is None:
        opcode = instr.opcode
        if opcode in ("br", "cbr"):
            run = _compile_branch(instr)
        elif opcode in _MEMORY_OPS:
            run = _compile_memory(instr)
        else:
            run = _FIXED.get(opcode) or _compile_alu(instr)
        instr._run = run
    return run


_FIXED = {"ret": end, "barrier": barrier, "nop": nop}


def _compile_alu(instr: HsailInstr) -> Callable:
    opcode = instr.opcode
    dtype = instr.dtype
    if instr.dest is None:
        raise ExecutionError(f"ALU op {opcode} lacks a destination")
    kind = _KIND[dtype]
    bits = U64 if dtype.is_wide else U32  # the type's raw bit pattern
    index = instr.dest.index
    srcs = instr.srcs
    if opcode in _QUERY_FIELD or opcode.startswith("workitem"):
        return lane_op(copy_lanes, reg_dest(U32, index), _query(instr))
    if opcode == "mov":
        return lane_op(copy_lanes, reg_dest(bits, index), _operand(srcs[0], bits))
    if opcode == "cmp":
        return lane_op(compare(COMPARISONS[str(instr.attrs["cmp"])]),
                       reg_dest(U32, index),
                       _operand(srcs[0], kind), _operand(srcs[1], kind))
    if opcode == "cmov":
        return lane_op(select, reg_dest(bits, index), _operand(srcs[0], U32),
                       _operand(srcs[1], bits), _operand(srcs[2], bits))
    if opcode == "cvt":
        src_dtype: DType = instr.attrs["src_dtype"]  # type: ignore[assignment]
        return lane_op(convert, reg_dest(kind, index),
                       _operand(srcs[0], _KIND[src_dtype]))
    if opcode in ("shl", "shr"):
        # Left shifts move the same bits whatever the sign; only shr of
        # a signed type is arithmetic.
        if opcode == "shl" or not dtype.is_signed:
            kind = bits
        fn = shift(np.left_shift if opcode == "shl" else np.right_shift,
                   64 if dtype.is_wide else 32)
        return lane_op(fn, reg_dest(kind, index), _operand(srcs[0], kind),
                       _operand(srcs[1], U32))
    fn = fma if opcode in ("mad", "fma") \
        else _UNARY.get(opcode) or _BINARY.get(opcode)
    if fn is None:
        raise ExecutionError(f"unknown ALU op {opcode}")
    return lane_op(fn, reg_dest(kind, index),
                   *(_operand(op, kind) for op in srcs))


def _query(instr: HsailInstr) -> Callable:
    """Accessor of a dispatch query's per-lane (or uniform) value."""
    opcode = instr.opcode
    dim = int(instr.attrs.get("dim", 0))
    if opcode == "workitemabsid":
        return lambda g: g.state.absolute_ids[dim][g.lo:g.hi]
    if opcode == "workitemflatabsid":
        return lambda g: g.state.flat_ids[g.lo:g.hi]
    if opcode == "workitemid":
        return lambda g: g.state.local_ids[dim][g.lo:g.hi]
    if opcode == "workgroupid":
        return lambda g: g.state.wg_ids[g.lo:g.hi, dim:dim + 1]
    name = _QUERY_FIELD[opcode]
    return lambda g: np.uint32(getattr(g.state.contexts[0], name)[dim])


def _address(instr: HsailInstr) -> Callable:
    """Accessor of a memory instruction's per-lane byte addresses
    (``int64``): flat for global/readonly, an offset into the
    workgroup's LDS allocation for group, a slot in the work-item's
    frame for private/spill."""
    segment = instr.segment
    base = instr.srcs[0]
    if segment in (Segment.GLOBAL, Segment.READONLY):
        return _operand(base, I64)
    offs = _operand(base, U32)
    if segment == Segment.GROUP:
        return lambda g: offs(g).astype(np.int64)
    if segment in (Segment.PRIVATE, Segment.SPILL):
        spill = segment == Segment.SPILL

        def frame(g):
            area = g.state.kernel.private_bytes if spill else 0
            return frame_addresses(g, area) + offs(g)
        return frame
    raise ExecutionError(f"unsupported segment {segment}")


def _compile_memory(instr: HsailInstr) -> Callable:
    if instr.opcode == "atomic_add":
        # Atomic 32-bit add; lanes serialize in ascending order.
        return atomic_add_op(_operand(instr.srcs[0], I64),
                             _operand(instr.srcs[1], U32),
                             reg_dest(U32, instr.dest.index))  # type: ignore[union-attr]
    size = instr.dtype.size_bytes
    bits = U64 if instr.dtype.is_wide else U32
    lds = instr.segment == Segment.GROUP
    if instr.opcode == "st":
        return store_op(_address(instr), _operand(instr.srcs[1], bits), size, lds)
    dest = reg_dest(bits, instr.dest.index)  # type: ignore[union-attr]
    if instr.segment != Segment.KERNARG:
        return load_op(_address(instr), dest, size, lds)
    # Serviced from simulator state: no memory traffic (paper §III.A).
    offset = instr.srcs[0]
    if not isinstance(offset, Imm):
        raise ExecutionError("kernarg offset must be immediate")
    out, commit = dest
    word = VIEW_DTYPES[bits]

    def kernarg(g, exe):
        raw = exe.memory.load_scalar(
            g.state.contexts[0].kernarg_base + offset.pattern, size, track=False)
        np.copyto(out(g), word(raw), where=g.where)
        if commit is not None:
            commit(g)
    return kernarg


_NOT_TAKEN = ExecResult(branch_taken=False)


def _compile_branch(instr: HsailInstr) -> Step:
    target = instr.target
    if target is None:
        raise ExecutionError("branch without target")
    taken_all = ExecResult(branch_taken=True, next_pc=target)
    if instr.opcode == "br":
        return lambda g, exe: taken_all
    cond = _operand(instr.srcs[0], U32)
    invert = instr.invert

    def cbr(g, exe):
        values = cond(g)
        lanes = g.lanes
        taken = (values == 0 if invert else values != 0) & lanes
        any_taken = taken.any(axis=1)
        if not any_taken.any():
            return _NOT_TAKEN
        split = any_taken & (taken != lanes).any(axis=1)
        if split.any():
            # Divergence: run the taken path first, queue the fallthrough
            # path (none when it is the reconvergence point itself).
            pc = g.pc
            rpc = g.state.kernel.rpc_table.get(pc)
            if rpc is None:
                raise ExecutionError(f"divergent branch at {pc} lacks an RPC")
            pending = None if pc + 1 == rpc else pc + 1
            # ``lanes`` may be a view of EXEC, which set_exec rewrites:
            # an entry keeps copies.
            for r in np.flatnonzero(split).tolist():
                g.state.stacks[g.lo + r].append(RsEntry(
                    rpc=rpc, pending_pc=pending,
                    pending_mask=lanes[r] & ~taken[r],
                    merged_mask=lanes[r].copy()))
            g.set_exec(np.where(split[:, None], taken, g.exec))
            g.rpcs.add(rpc)
        taken_rows = any_taken[g.pos]
        if taken_rows.all():
            return taken_all
        return ExecResult(branch_taken=taken_rows.tolist(), next_pc=target)
    return cbr


HsailWavefronts.compiled = staticmethod(compiled)
