"""HSAIL -> GCN3 instruction selection.

This pass implements the code expansion the paper documents:

* **Table 1** — ``workitemabsid`` becomes an AQL-packet ``s_load``, an
  ``s_waitcnt``, an ``s_bfe`` to extract the workgroup size, an ``s_mul``
  by the workgroup id (s8) and a ``v_add`` with the in-workgroup id (v0).
  These ABI sequences are computed once in a kernel preamble (the
  finalizer hoists them), and the HSAIL instructions alias the results.
* **Table 2** — kernarg access: pointer/float kernargs move the kernarg
  base (s[6:7]) into VGPRs and issue a ``flat_load``; 32-bit integer args
  use ``s_load`` from the kernarg segment.
* **Table 3** — float division expands via :mod:`repro.finalizer.fdiv`.
* Private/spill segment access materializes the per-work-item address
  from the private segment descriptor (s[0:3]): base + absid * stride +
  offset — the "several offsets and stride sizes" of §III.A.2.
* Uniform integer work runs on the scalar pipeline (``s_*``); divergent
  or floating-point work on the VALU, with VOP2 operand legalization
  (src1 must be a VGPR) inserting the `v_mov`s real code contains.
"""

from __future__ import annotations

from typing import Tuple

from ..common.bits import pack_bfe_operand
from ..common.errors import FinalizerError
from ..gcn3 import abi
from ..gcn3.isa import SImm, SReg, VReg
from ..hsail.isa import HsailInstr, HsailKernel
from ..hsail.isa import Imm as HImm
from ..kernels.types import DType
from ..runtime.memory import Segment
from .context import FinalizeContext, GOperand
from .fdiv import expand_fdiv_f32, expand_fdiv_f64
from .uniformity import imm_pow2_shift

_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "min", "max"})

_VCMP_TYPE = {
    DType.U32: "u32",
    DType.S32: "i32",
    DType.U64: "u64",
    DType.F32: "f32",
    DType.F64: "f64",
}
_SWAPPED_CMP = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le", "eq": "eq", "ne": "ne"}
_SCMP_NAME = {"eq": "eq", "ne": "lg", "lt": "lt", "le": "le", "gt": "gt", "ge": "ge"}

#: AQL dispatch packet field offsets (runtime/packets.py mirrors these).
PACKET_WG_SIZE_OFFSET = 4     # workgroup_size_x | workgroup_size_y << 16
PACKET_WG_SIZE_Z_OFFSET = 8   # workgroup_size_z (16-bit) | reserved
PACKET_GRID_SIZE_OFFSET = 12  # grid_size_x; y at +4, z at +8


def _is_vgpr(op: GOperand) -> bool:
    return isinstance(op, VReg)


class Lowerer:
    """Translates one HSAIL kernel's instructions into GCN3 virtual code."""

    def __init__(self, ctx: FinalizeContext) -> None:
        self.ctx = ctx
        self.kernel: HsailKernel = ctx.kernel
        #: grid dimensions the ABI must enable; set by emit_preamble.
        self.dims = 1

    # ------------------------------------------------------------------
    # Preamble (hoisted ABI sequences)
    # ------------------------------------------------------------------

    def emit_preamble(self) -> None:
        ctx = self.ctx
        uses_private = self.kernel.private_bytes > 0 or self.kernel.spill_bytes > 0
        dims_needed: set = set()
        absid_dims: set = set()
        wgsize_dims: set = set()
        gridsize_dims: set = set()
        uses_flat = False
        for instr in self.kernel.virtual_instrs:
            if instr.opcode in ("ld", "st") and instr.segment in (Segment.PRIVATE, Segment.SPILL):
                uses_private = True
            dim = int(instr.attrs.get("dim", 0))
            if instr.opcode == "workitemabsid":
                absid_dims.add(dim)
                dims_needed.add(dim)
            elif instr.opcode == "workitemflatabsid":
                uses_flat = True
            elif instr.opcode == "workgroupsize":
                wgsize_dims.add(dim)
                dims_needed.add(dim)
            elif instr.opcode == "gridsize":
                gridsize_dims.add(dim)
                dims_needed.add(dim)
            elif instr.opcode in ("workitemid", "workgroupid"):
                dims_needed.add(dim)
        self.dims = max(dims_needed, default=0) + 1
        if (uses_private or uses_flat) and self.dims > 1:
            raise FinalizerError(
                "private/spill segments and workitemflatabsid require a 1-D "
                "dispatch (flat work-item indexing)"
            )
        if uses_private or uses_flat:
            absid_dims.add(0)
        for dim in sorted(absid_dims | wgsize_dims):
            self._preamble_wgsize(dim)
        for dim in sorted(absid_dims):
            self._preamble_absid(dim)
        for dim in sorted(gridsize_dims):
            self._preamble_gridsize(dim)
        if uses_private:
            self._preamble_frame_base()

    def _preamble_wgsize(self, dim: int) -> None:
        """Extract workgroup_size_<dim> from the AQL packet (Table 1)."""
        ctx = self.ctx
        dispatch_ptr = SReg(index=abi.SGPR_DISPATCH_PTR, count=2)
        size = ctx.new_s(1)
        if dim < 2:
            key = "wg_packed_xy"
            packed = ctx.cse.get(key)
            if packed is None:
                packed = ctx.new_s(1)
                ctx.emit("s_load_dword", packed, (dispatch_ptr,),
                         offset=PACKET_WG_SIZE_OFFSET)
                ctx.emit("s_waitcnt", None, (), lgkmcnt=0)
                ctx.cse[key] = packed
            ctx.emit("s_bfe_u32", size,
                     (packed, SImm(pack_bfe_operand(16 * dim, 16))))
        else:
            packed = ctx.new_s(1)
            ctx.emit("s_load_dword", packed, (dispatch_ptr,),
                     offset=PACKET_WG_SIZE_Z_OFFSET)
            ctx.emit("s_waitcnt", None, (), lgkmcnt=0)
            ctx.emit("s_bfe_u32", size, (packed, SImm(pack_bfe_operand(0, 16))))
        ctx.cse[f"wgsize:{dim}"] = size

    def _preamble_absid(self, dim: int) -> None:
        ctx = self.ctx
        wg_base = ctx.new_s(1)
        absid = ctx.new_v(1)
        ctx.emit(
            "s_mul_i32", wg_base,
            (ctx.cse[f"wgsize:{dim}"],
             SReg(index=abi.SGPR_WORKGROUP_ID_X + dim)),
        )
        ctx.emit("v_add_u32", absid, (wg_base, VReg(index=dim)))
        ctx.cse[f"absid:{dim}"] = absid

    def _preamble_gridsize(self, dim: int) -> None:
        ctx = self.ctx
        grid = ctx.new_s(1)
        dispatch_ptr = SReg(index=abi.SGPR_DISPATCH_PTR, count=2)
        ctx.emit("s_load_dword", grid, (dispatch_ptr,),
                 offset=PACKET_GRID_SIZE_OFFSET + 4 * dim)
        ctx.emit("s_waitcnt", None, (), lgkmcnt=0)
        ctx.cse[f"gridsize:{dim}"] = grid

    def _preamble_frame_base(self) -> None:
        """64-bit flat address of this work-item's private frame:
        s[0:1] + absid * s2 (descriptor base + id * stride)."""
        ctx = self.ctx
        frame = ctx.new_v(2)
        scaled = ctx.new_v(1)
        stride = SReg(index=abi.SGPR_PRIVATE_DESC + 2)
        base_lo = SReg(index=abi.SGPR_PRIVATE_DESC)
        base_hi = SReg(index=abi.SGPR_PRIVATE_DESC + 1)
        ctx.emit("v_mul_lo_u32", scaled, (stride, ctx.cse["absid:0"]))
        ctx.emit("v_add_u32", ctx.lo(frame), (base_lo, scaled))
        ctx.emit("v_mov_b32", ctx.hi(frame), (base_hi,))
        ctx.emit("v_addc_u32", ctx.hi(frame), (SImm(0), ctx.hi(frame)))
        ctx.cse["frame_base"] = frame

    # ------------------------------------------------------------------
    # Operand legalization helpers
    # ------------------------------------------------------------------

    def to_vector(self, op: GOperand, wide: bool = False) -> VReg:
        """Copy ``op`` into VGPR(s) unless it already is one."""
        ctx = self.ctx
        if isinstance(op, VReg):
            return op
        if wide:
            dest = ctx.new_v(2)
            ctx.emit("v_mov_b32", ctx.lo(dest), (ctx.lo(op),))
            ctx.emit("v_mov_b32", ctx.hi(dest), (ctx.hi(op),))
            return dest
        dest = ctx.new_v(1)
        ctx.emit("v_mov_b32", dest, (op,))
        return dest

    def _legalize_vop2(
        self, opcode_root: str, a: GOperand, b: GOperand
    ) -> Tuple[GOperand, GOperand]:
        """VOP2 requires src1 in a VGPR; exploit commutativity, else copy."""
        if _is_vgpr(b):
            return a, b
        if _is_vgpr(a) and opcode_root in _COMMUTATIVE:
            return b, a
        return a, self.to_vector(b)

    # ------------------------------------------------------------------
    # Main dispatch
    # ------------------------------------------------------------------

    def lower(self, instr: HsailInstr) -> None:
        handler = getattr(self, f"_op_{instr.opcode}", None)
        if handler is None:
            raise FinalizerError(f"finalizer cannot lower {instr.opcode!r}")
        handler(instr)

    # -- dispatch queries (aliases into the preamble) -----------------------

    @staticmethod
    def _dim(instr: HsailInstr) -> int:
        return int(instr.attrs.get("dim", 0))

    def _op_workitemabsid(self, instr: HsailInstr) -> None:
        self.ctx.alias(instr.dest.index,  # type: ignore[union-attr]
                       self.ctx.cse[f"absid:{self._dim(instr)}"])

    def _op_workitemflatabsid(self, instr: HsailInstr) -> None:
        # 1-D only (enforced in emit_preamble): flat id == absolute X id.
        self.ctx.alias(instr.dest.index, self.ctx.cse["absid:0"])  # type: ignore[union-attr]

    def _op_workitemid(self, instr: HsailInstr) -> None:
        self.ctx.alias(instr.dest.index,  # type: ignore[union-attr]
                       VReg(index=self._dim(instr)))

    def _op_workgroupid(self, instr: HsailInstr) -> None:
        self.ctx.alias(instr.dest.index,  # type: ignore[union-attr]
                       SReg(index=abi.SGPR_WORKGROUP_ID_X + self._dim(instr)))

    def _op_workgroupsize(self, instr: HsailInstr) -> None:
        self.ctx.alias(instr.dest.index,  # type: ignore[union-attr]
                       self.ctx.cse[f"wgsize:{self._dim(instr)}"])

    def _op_gridsize(self, instr: HsailInstr) -> None:
        self.ctx.alias(instr.dest.index,  # type: ignore[union-attr]
                       self.ctx.cse[f"gridsize:{self._dim(instr)}"])

    # -- moves ---------------------------------------------------------------

    def _op_mov(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        src = ctx.map_operand(instr.srcs[0])
        if isinstance(dest, VReg):
            if instr.dtype.is_wide:
                ctx.emit("v_mov_b32", ctx.lo(dest), (ctx.lo(src),))
                ctx.emit("v_mov_b32", ctx.hi(dest), (ctx.hi(src),))
            else:
                ctx.emit("v_mov_b32", dest, (src,))
        else:
            if isinstance(dest, SReg) and dest.count == 2 and instr.dtype != DType.B1:
                ctx.emit("s_mov_b32", ctx.lo(dest), (ctx.lo(src),))
                ctx.emit("s_mov_b32", ctx.hi(dest), (ctx.hi(src),))
            elif isinstance(dest, SReg) and dest.count == 2:
                ctx.emit("s_mov_b64", dest, (src,))
            else:
                ctx.emit("s_mov_b32", dest, (src,))

    # -- integer/bitwise binary ops ------------------------------------------

    def _binary_int(self, instr: HsailInstr, s_op: str, v_op: str) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        if isinstance(dest, SReg):
            ctx.emit(s_op, dest, (a, b))
        else:
            root = instr.opcode
            a, b = self._legalize_vop2(root, a, b)
            ctx.emit(v_op, dest, (a, b))

    def _op_add(self, instr: HsailInstr) -> None:
        dtype = instr.dtype
        if dtype == DType.F32:
            self._vop_float(instr, "v_add_f32")
        elif dtype == DType.F64:
            self._vop_float64(instr, "v_add_f64")
        elif dtype == DType.U64:
            self._add64(instr, subtract=False)
        else:
            self._binary_int(instr, "s_add_u32", "v_add_u32")

    def _op_sub(self, instr: HsailInstr) -> None:
        dtype = instr.dtype
        if dtype == DType.F32:
            self._vop_float(instr, "v_sub_f32")
        elif dtype == DType.F64:
            self._vop_float64(instr, "v_add_f64", neg_b=True)
        elif dtype == DType.U64:
            self._add64(instr, subtract=True)
        else:
            ctx = self.ctx
            dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
            a = ctx.map_operand(instr.srcs[0])
            b = ctx.map_operand(instr.srcs[1])
            if isinstance(dest, SReg):
                ctx.emit("s_sub_u32", dest, (a, b))
            else:
                b_v = b if _is_vgpr(b) else self.to_vector(b)
                ctx.emit("v_sub_u32", dest, (a, b_v))

    def _add64(self, instr: HsailInstr, subtract: bool) -> None:
        """64-bit integer add/sub: lo + carry into hi (2 instructions)."""
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        if isinstance(dest, SReg):
            if subtract:
                ctx.emit("s_sub_u32", ctx.lo(dest), (ctx.lo(a), ctx.lo(b)))
                ctx.emit("s_subb_u32", ctx.hi(dest), (ctx.hi(a), ctx.hi(b)))
            else:
                ctx.emit("s_add_u32", ctx.lo(dest), (ctx.lo(a), ctx.lo(b)))
                ctx.emit("s_addc_u32", ctx.hi(dest), (ctx.hi(a), ctx.hi(b)))
            return
        if subtract:
            b_lo = self._vgpr_half(ctx.lo(b))
            b_hi = self._vgpr_half(ctx.hi(b))
            ctx.emit("v_sub_u32", ctx.lo(dest), (ctx.lo(a), b_lo))
            ctx.emit("v_subb_u32", ctx.hi(dest), (ctx.hi(a), b_hi))
        else:
            a_lo, b_lo = self._legalize_vop2("add", ctx.lo(a), ctx.lo(b))
            a_hi, b_hi = ctx.hi(a), self._vgpr_half(ctx.hi(b))
            ctx.emit("v_add_u32", ctx.lo(dest), (a_lo, b_lo))
            ctx.emit("v_addc_u32", ctx.hi(dest), (a_hi, b_hi))

    def _vgpr_half(self, op: GOperand) -> GOperand:
        """Ensure a 32-bit half-operand is a VGPR (for VOP2 src1)."""
        return op if _is_vgpr(op) else self.to_vector(op)

    def _op_mul(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dtype = instr.dtype
        if dtype == DType.F32:
            self._vop_float(instr, "v_mul_f32")
            return
        if dtype == DType.F64:
            self._vop_float64(instr, "v_mul_f64")
            return
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        if dtype == DType.U64:
            shift = imm_pow2_shift(instr.srcs[1])
            if shift is not None:
                if isinstance(dest, SReg):
                    ctx.emit("s_lshl_b64", dest, (a, SImm(shift)))
                else:
                    a_v = a if _is_vgpr(a) else self.to_vector(a, wide=True)
                    ctx.emit("v_lshlrev_b64", dest, (SImm(shift), a_v))
                return
            self._mul64(dest, a, b)
            return
        if isinstance(dest, SReg):
            ctx.emit("s_mul_i32", dest, (a, b))
        else:
            # v_mul_lo_u32 is VOP3: operands are unconstrained.
            ctx.emit("v_mul_lo_u32", dest, (a, b))

    def _mul64(self, dest: GOperand, a: GOperand, b: GOperand) -> None:
        """Full 64x64 multiply expansion (6 instructions)."""
        ctx = self.ctx
        lo = ctx.lo(dest)
        t_hi = ctx.new_v(1)
        t_ab = ctx.new_v(1)
        t_ba = ctx.new_v(1)
        ctx.emit("v_mul_lo_u32", lo, (ctx.lo(a), ctx.lo(b)))
        ctx.emit("v_mul_hi_u32", t_hi, (ctx.lo(a), ctx.lo(b)))
        ctx.emit("v_mul_lo_u32", t_ab, (ctx.lo(a), ctx.hi(b)))
        ctx.emit("v_mul_lo_u32", t_ba, (ctx.hi(a), ctx.lo(b)))
        ctx.emit("v_add_u32", t_hi, (t_hi, t_ab))
        ctx.emit("v_add_u32", ctx.hi(dest), (t_hi, t_ba))

    def _op_mulhi(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        op = "v_mul_hi_i32" if instr.dtype == DType.S32 else "v_mul_hi_u32"
        ctx.emit(op, dest, (a, b))

    def _op_and(self, instr: HsailInstr) -> None:
        self._bitwise(instr, "and")

    def _op_or(self, instr: HsailInstr) -> None:
        self._bitwise(instr, "or")

    def _op_xor(self, instr: HsailInstr) -> None:
        self._bitwise(instr, "xor")

    def _bitwise(self, instr: HsailInstr, root: str) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        if instr.dtype == DType.B1:
            # Predicate logic runs on the scalar unit in both forms.
            a, b = self._as_mask_pair(instr, a, b)
            wide = isinstance(dest, SReg) and dest.count == 2
            ctx.emit(f"s_{root}_b64" if wide else f"s_{root}_b32", dest, (a, b))
            return
        if isinstance(dest, SReg):
            op = f"s_{root}_b64" if instr.dtype.is_wide else f"s_{root}_b32"
            ctx.emit(op, dest, (a, b))
            return
        if instr.dtype.is_wide:
            a_lo, b_lo = self._legalize_vop2(root, ctx.lo(a), ctx.lo(b))
            a_hi, b_hi = self._legalize_vop2(root, ctx.hi(a), ctx.hi(b))
            ctx.emit(f"v_{root}_b32", ctx.lo(dest), (a_lo, b_lo))
            ctx.emit(f"v_{root}_b32", ctx.hi(dest), (a_hi, b_hi))
        else:
            a, b = self._legalize_vop2(root, a, b)
            ctx.emit(f"v_{root}_b32", dest, (a, b))

    def _as_mask_pair(
        self, instr: HsailInstr, a: GOperand, b: GOperand
    ) -> Tuple[GOperand, GOperand]:
        """Promote uniform 0/1 predicates to lane masks when mixing."""
        dest = self.ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        if not (isinstance(dest, SReg) and dest.count == 2):
            return a, b
        return self._pred_to_mask(a), self._pred_to_mask(b)

    def _pred_to_mask(self, op: GOperand) -> GOperand:
        """0/1 scalar predicate -> all-lanes mask (-1/0)."""
        if isinstance(op, SReg) and op.count == 2:
            return op
        ctx = self.ctx
        mask = ctx.new_s(2)
        ctx.emit("s_cmp_lg_u32", None, (op, SImm(0)))
        ctx.emit("s_cselect_b64", mask, (SImm((1 << 64) - 1), SImm(0)))
        return mask

    def _op_shl(self, instr: HsailInstr) -> None:
        self._shift(instr, left=True)

    def _op_shr(self, instr: HsailInstr) -> None:
        self._shift(instr, left=False)

    def _shift(self, instr: HsailInstr, left: bool) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        value = ctx.map_operand(instr.srcs[0])
        amount = ctx.map_operand(instr.srcs[1])
        wide = instr.dtype.is_wide
        signed = instr.dtype == DType.S32
        if isinstance(dest, SReg):
            if wide:
                op = "s_lshl_b64" if left else "s_lshr_b64"
            else:
                op = "s_lshl_b32" if left else ("s_ashr_i32" if signed else "s_lshr_b32")
            ctx.emit(op, dest, (value, amount))
            return
        # Vector shifts are "rev" encoded: the shift amount is src0.
        if wide:
            op = "v_lshlrev_b64" if left else "v_lshrrev_b64"
            value_v = value if _is_vgpr(value) else self.to_vector(value, wide=True)
        else:
            op = "v_lshlrev_b32" if left else ("v_ashrrev_i32" if signed else "v_lshrrev_b32")
            value_v = value if _is_vgpr(value) else self.to_vector(value)
        ctx.emit(op, dest, (amount, value_v))

    def _op_min(self, instr: HsailInstr) -> None:
        self._minmax(instr, "min")

    def _op_max(self, instr: HsailInstr) -> None:
        self._minmax(instr, "max")

    def _minmax(self, instr: HsailInstr, root: str) -> None:
        ctx = self.ctx
        dtype = instr.dtype
        if dtype == DType.F64:
            self._vop_float64(instr, f"v_{root}_f64")
            return
        if dtype == DType.F32:
            self._vop_float(instr, f"v_{root}_f32")
            return
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        ty = "i32" if dtype == DType.S32 else "u32"
        if isinstance(dest, SReg):
            ctx.emit(f"s_{root}_{ty}", dest, (a, b))
        else:
            a, b = self._legalize_vop2(root, a, b)
            ctx.emit(f"v_{root}_{ty}", dest, (a, b))

    # -- floating point ------------------------------------------------------

    def _vop_float(self, instr: HsailInstr, opcode: str) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        root = instr.opcode
        a, b = self._legalize_vop2(root, a, b)
        ctx.emit(opcode, dest, (a, b))

    def _vop_float64(self, instr: HsailInstr, opcode: str, neg_b: bool = False) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        attrs = {"neg": (False, True)} if neg_b else {}
        ctx.emit(opcode, dest, (a, b), **attrs)

    def _op_div(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        num = ctx.map_operand(instr.srcs[0])
        den = ctx.map_operand(instr.srcs[1])
        if instr.dtype == DType.F64:
            num_v = num if _is_vgpr(num) else self.to_vector(num, wide=True)
            den_v = den if _is_vgpr(den) else self.to_vector(den, wide=True)
            expand_fdiv_f64(ctx, dest, num_v, den_v)
        elif instr.dtype == DType.F32:
            num_v = num if _is_vgpr(num) else self.to_vector(num)
            den_v = den if _is_vgpr(den) else self.to_vector(den)
            expand_fdiv_f32(ctx, dest, num_v, den_v)
        else:
            raise FinalizerError("integer division is not part of the kernel IR")

    def _op_fma(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        srcs = tuple(ctx.map_operand(s) for s in instr.srcs)
        op = "v_fma_f64" if instr.dtype == DType.F64 else "v_fma_f32"
        ctx.emit(op, dest, srcs)

    def _op_mad(self, instr: HsailInstr) -> None:
        """Integer multiply-add: v_mul_lo + v_add (2 instructions)."""
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        c = ctx.map_operand(instr.srcs[2])
        if isinstance(dest, SReg):
            tmp = ctx.new_s(1)
            ctx.emit("s_mul_i32", tmp, (a, b))
            ctx.emit("s_add_u32", dest, (tmp, c))
            return
        tmp = ctx.new_v(1)
        ctx.emit("v_mul_lo_u32", tmp, (a, b))
        t0, t1 = self._legalize_vop2("add", c, tmp)
        ctx.emit("v_add_u32", dest, (t0, t1))

    # -- unary ---------------------------------------------------------------

    def _op_neg(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        src = ctx.map_operand(instr.srcs[0])
        if instr.dtype == DType.F32:
            s = self._vgpr_half(src)
            ctx.emit("v_xor_b32", dest, (SImm(0x80000000), s))
        elif instr.dtype == DType.F64:
            s = src if _is_vgpr(src) else self.to_vector(src, wide=True)
            ctx.emit("v_mov_b32", ctx.lo(dest), (ctx.lo(s),))
            ctx.emit("v_xor_b32", ctx.hi(dest), (SImm(0x80000000), ctx.hi(s)))
        elif isinstance(dest, SReg):
            ctx.emit("s_sub_u32", dest, (SImm(0), src))
        else:
            s = self._vgpr_half(src)
            ctx.emit("v_sub_u32", dest, (SImm(0), s))

    def _op_not(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        src = ctx.map_operand(instr.srcs[0])
        if isinstance(dest, SReg):
            op = "s_not_b64" if dest.count == 2 else "s_not_b32"
            ctx.emit(op, dest, (src,))
        elif instr.dtype.is_wide:
            ctx.emit("v_not_b32", ctx.lo(dest), (ctx.lo(src),))
            ctx.emit("v_not_b32", ctx.hi(dest), (ctx.hi(src),))
        else:
            ctx.emit("v_not_b32", dest, (src,))

    def _op_abs(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        src = ctx.map_operand(instr.srcs[0])
        if instr.dtype == DType.F32:
            s = self._vgpr_half(src)
            ctx.emit("v_and_b32", dest, (SImm(0x7FFFFFFF), s))
        elif instr.dtype == DType.F64:
            s = src if _is_vgpr(src) else self.to_vector(src, wide=True)
            ctx.emit("v_mov_b32", ctx.lo(dest), (ctx.lo(s),))
            ctx.emit("v_and_b32", ctx.hi(dest), (SImm(0x7FFFFFFF), ctx.hi(s)))
        elif isinstance(dest, SReg):
            tmp = ctx.new_s(1)
            ctx.emit("s_sub_u32", tmp, (SImm(0), src))
            ctx.emit("s_max_i32", dest, (src, tmp))
        else:
            tmp = ctx.new_v(1)
            s = self._vgpr_half(src)
            ctx.emit("v_sub_u32", tmp, (SImm(0), s))
            ctx.emit("v_max_i32", dest, (s, tmp))

    def _op_rcp(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        src = ctx.map_operand(instr.srcs[0])
        op = "v_rcp_f64" if instr.dtype == DType.F64 else "v_rcp_f32"
        src = src if _is_vgpr(src) else self.to_vector(src, wide=instr.dtype.is_wide)
        ctx.emit(op, dest, (src,))

    def _op_sqrt(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        src = ctx.map_operand(instr.srcs[0])
        op = "v_sqrt_f64" if instr.dtype == DType.F64 else "v_sqrt_f32"
        src = src if _is_vgpr(src) else self.to_vector(src, wide=instr.dtype.is_wide)
        ctx.emit(op, dest, (src,))

    def _op_cvt(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        src = ctx.map_operand(instr.srcs[0])
        src_dtype: DType = instr.attrs["src_dtype"]  # type: ignore[assignment]
        dst_dtype = instr.dtype
        key = (src_dtype, dst_dtype)
        simple = {
            (DType.U32, DType.F32): "v_cvt_f32_u32",
            (DType.S32, DType.F32): "v_cvt_f32_i32",
            (DType.F32, DType.U32): "v_cvt_u32_f32",
            (DType.F32, DType.S32): "v_cvt_i32_f32",
            (DType.F32, DType.F64): "v_cvt_f64_f32",
            (DType.F64, DType.F32): "v_cvt_f32_f64",
            (DType.U32, DType.F64): "v_cvt_f64_u32",
            (DType.S32, DType.F64): "v_cvt_f64_i32",
            (DType.F64, DType.U32): "v_cvt_u32_f64",
            (DType.F64, DType.S32): "v_cvt_i32_f64",
        }
        if key in simple:
            ctx.emit(simple[key], dest, (src,))
            return
        if (src_dtype, dst_dtype) in (
            (DType.U32, DType.U64),
            (DType.S32, DType.U64),
        ):
            if isinstance(dest, SReg):
                ctx.emit("s_mov_b32", ctx.lo(dest), (src,))
                ctx.emit("s_mov_b32", ctx.hi(dest), (SImm(0),))
            else:
                ctx.emit("v_mov_b32", ctx.lo(dest), (src,))
                ctx.emit("v_mov_b32", ctx.hi(dest), (SImm(0),))
            return
        if src_dtype == DType.U64 and dst_dtype in (DType.U32, DType.S32):
            mov = "s_mov_b32" if isinstance(dest, SReg) else "v_mov_b32"
            ctx.emit(mov, dest, (ctx.lo(src),))
            return
        if {src_dtype, dst_dtype} == {DType.U32, DType.S32}:
            mov = "s_mov_b32" if isinstance(dest, SReg) else "v_mov_b32"
            ctx.emit(mov, dest, (src,))
            return
        raise FinalizerError(f"unsupported conversion {src_dtype} -> {dst_dtype}")

    # -- comparison and selection ---------------------------------------------

    def _op_cmp(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        a = ctx.map_operand(instr.srcs[0])
        b = ctx.map_operand(instr.srcs[1])
        cmp_op = str(instr.attrs["cmp"])
        if isinstance(dest, SReg) and dest.count == 1:
            # Uniform predicate: s_cmp sets SCC, materialize 0/1.
            ty = "i32" if instr.dtype == DType.S32 else "u32"
            ctx.emit(f"s_cmp_{_SCMP_NAME[cmp_op]}_{ty}", None, (a, b))
            ctx.emit("s_cselect_b32", dest, (SImm(1), SImm(0)))
            return
        # Divergent predicate: v_cmp into an SGPR-pair lane mask (VOP3).
        ty = _VCMP_TYPE[instr.dtype]
        wide = instr.dtype.is_wide
        if not _is_vgpr(b):
            if _is_vgpr(a):
                a, b = b, a
                cmp_op = _SWAPPED_CMP[cmp_op]
            else:
                b = self.to_vector(b, wide=wide)
        ctx.emit(f"v_cmp_{cmp_op}_{ty}", dest, (a, b))

    def _op_cmov(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        pred = ctx.map_operand(instr.srcs[0])
        t_val = ctx.map_operand(instr.srcs[1])
        f_val = ctx.map_operand(instr.srcs[2])
        wide = instr.dtype.is_wide
        if isinstance(dest, SReg):
            # Fully uniform select on the scalar unit.
            ctx.emit("s_cmp_lg_u32", None, (pred, SImm(0)))
            op = "s_cselect_b64" if wide else "s_cselect_b32"
            ctx.emit(op, dest, (t_val, f_val))
            return
        mask = self._pred_to_mask(pred)
        t_v = t_val if _is_vgpr(t_val) else self.to_vector(t_val, wide=wide)
        f_v = f_val if _is_vgpr(f_val) else self.to_vector(f_val, wide=wide)
        if wide:
            ctx.emit("v_cndmask_b32", ctx.lo(dest), (ctx.lo(f_v), ctx.lo(t_v), mask))
            ctx.emit("v_cndmask_b32", ctx.hi(dest), (ctx.hi(f_v), ctx.hi(t_v), mask))
        else:
            ctx.emit("v_cndmask_b32", dest, (f_v, t_v, mask))

    # -- memory ---------------------------------------------------------------

    def _op_ld(self, instr: HsailInstr) -> None:
        segment = instr.segment
        if segment == Segment.KERNARG:
            self._ld_kernarg(instr)
        elif segment in (Segment.GLOBAL, Segment.READONLY):
            self._ld_global(instr)
        elif segment == Segment.GROUP:
            self._lds_access(instr, store=False)
        elif segment in (Segment.PRIVATE, Segment.SPILL):
            self._private_access(instr, store=False)
        else:
            raise FinalizerError(f"cannot lower load from segment {segment}")

    def _op_st(self, instr: HsailInstr) -> None:
        segment = instr.segment
        if segment in (Segment.GLOBAL, Segment.READONLY):
            self._st_global(instr)
        elif segment == Segment.GROUP:
            self._lds_access(instr, store=True)
        elif segment in (Segment.PRIVATE, Segment.SPILL):
            self._private_access(instr, store=True)
        else:
            raise FinalizerError(f"cannot lower store to segment {segment}")

    def _ld_kernarg(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        offset_op = instr.srcs[0]
        if not isinstance(offset_op, HImm):
            raise FinalizerError("kernarg offsets are compile-time constants")
        offset = offset_op.pattern
        kernarg_ptr = SReg(index=abi.SGPR_KERNARG_PTR, count=2)
        if isinstance(dest, SReg):
            op = "s_load_dwordx2" if dest.count == 2 else "s_load_dword"
            ctx.emit(op, dest, (kernarg_ptr,), offset=offset)
            return
        # Table 2: move the kernarg base into VGPRs and flat-load.
        addr = ctx.new_v(2)
        if offset == 0:
            ctx.emit("v_mov_b32", ctx.lo(addr), (ctx.lo(kernarg_ptr),))
            ctx.emit("v_mov_b32", ctx.hi(addr), (ctx.hi(kernarg_ptr),))
        else:
            base = ctx.new_s(2)
            ctx.emit("s_add_u32", ctx.lo(base), (ctx.lo(kernarg_ptr), SImm(offset)))
            ctx.emit("s_addc_u32", ctx.hi(base), (ctx.hi(kernarg_ptr), SImm(0)))
            ctx.emit("v_mov_b32", ctx.lo(addr), (ctx.lo(base),))
            ctx.emit("v_mov_b32", ctx.hi(addr), (ctx.hi(base),))
        op = "flat_load_dwordx2" if instr.dtype.is_wide else "flat_load_dword"
        ctx.emit(op, dest, (addr,))

    def _ld_global(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        addr = ctx.map_operand(instr.srcs[0])
        addr_v = addr if _is_vgpr(addr) else self.to_vector(addr, wide=True)
        op = "flat_load_dwordx2" if instr.dtype.is_wide else "flat_load_dword"
        ctx.emit(op, dest, (addr_v,))

    def _st_global(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        addr = ctx.map_operand(instr.srcs[0])
        data = ctx.map_operand(instr.srcs[1])
        wide = instr.dtype.is_wide
        addr_v = addr if _is_vgpr(addr) else self.to_vector(addr, wide=True)
        data_v = data if _is_vgpr(data) else self.to_vector(data, wide=wide)
        op = "flat_store_dwordx2" if wide else "flat_store_dword"
        ctx.emit(op, None, (addr_v, data_v))

    def _lds_access(self, instr: HsailInstr, store: bool) -> None:
        ctx = self.ctx
        addr = ctx.map_operand(instr.srcs[0])
        addr_v = addr if _is_vgpr(addr) else self.to_vector(addr)
        wide = instr.dtype.is_wide
        if store:
            data = ctx.map_operand(instr.srcs[1])
            data_v = data if _is_vgpr(data) else self.to_vector(data, wide=wide)
            op = "ds_write_b64" if wide else "ds_write_b32"
            ctx.emit(op, None, (addr_v, data_v), offset=0)
        else:
            dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
            op = "ds_read_b64" if wide else "ds_read_b32"
            ctx.emit(op, dest, (addr_v,), offset=0)

    def _private_access(self, instr: HsailInstr, store: bool) -> None:
        """Private/spill segment access: frame base + area offset + offset,
        then a FLAT access (paper §III.A.2)."""
        ctx = self.ctx
        area_base = 0 if instr.segment == Segment.PRIVATE else self.kernel.private_bytes
        offset = ctx.map_operand(instr.srcs[0])
        frame = ctx.cse["frame_base"]
        addr: GOperand
        if isinstance(offset, SImm):
            total = offset.pattern + area_base
            if total == 0:
                addr = frame
            else:
                addr = ctx.new_v(2)
                ctx.emit("v_add_u32", ctx.lo(addr), (SImm(total), ctx.lo(frame)))
                ctx.emit("v_addc_u32", ctx.hi(addr), (SImm(0), ctx.hi(frame)))
        else:
            off_v = self._vgpr_half(offset)
            if area_base:
                bumped = ctx.new_v(1)
                ctx.emit("v_add_u32", bumped, (SImm(area_base), off_v))
                off_v = bumped
            addr = ctx.new_v(2)
            ctx.emit("v_add_u32", ctx.lo(addr), (ctx.lo(frame), off_v))
            ctx.emit("v_addc_u32", ctx.hi(addr), (SImm(0), ctx.hi(frame)))
        wide = instr.dtype.is_wide
        if store:
            data = ctx.map_operand(instr.srcs[1])
            data_v = data if _is_vgpr(data) else self.to_vector(data, wide=wide)
            op = "flat_store_dwordx2" if wide else "flat_store_dword"
            ctx.emit(op, None, (addr, data_v))
        else:
            dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
            op = "flat_load_dwordx2" if wide else "flat_load_dword"
            ctx.emit(op, dest, (addr,))

    # -- sync / misc -----------------------------------------------------------

    def _op_atomic_add(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        dest = ctx.value_of(instr.dest.index)  # type: ignore[union-attr]
        addr = ctx.map_operand(instr.srcs[0])
        data = ctx.map_operand(instr.srcs[1])
        addr_v = addr if _is_vgpr(addr) else self.to_vector(addr, wide=True)
        data_v = data if _is_vgpr(data) else self.to_vector(data)
        ctx.emit("flat_atomic_add", dest, (addr_v, data_v))

    def _op_barrier(self, instr: HsailInstr) -> None:
        ctx = self.ctx
        ctx.emit("s_waitcnt", None, (), vmcnt=0, lgkmcnt=0)
        ctx.emit("s_barrier", None, ())

    def _op_nop(self, instr: HsailInstr) -> None:
        self.ctx.emit("s_nop", None, ())

    def _op_ret(self, instr: HsailInstr) -> None:
        self.ctx.emit("s_endpgm", None, ())

    def _op_br(self, instr: HsailInstr) -> None:
        raise FinalizerError("branches are handled by the predication pass")

    _op_cbr = _op_br
