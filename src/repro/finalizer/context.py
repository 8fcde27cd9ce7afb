"""Finalization context: virtual registers, emission buffer, labels, CSE.

The context owns the growing GCN3 instruction list and the mapping from
HSAIL virtual registers to GCN3 virtual registers (vector or scalar,
decided by the uniformity analysis).  Labels attach to instruction
objects (``attrs['labels']``) so later passes may insert or reorder
instructions without breaking branch targets; they are resolved to
instruction indices at the very end of finalization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..common.errors import FinalizerError
from ..gcn3.isa import EXEC, SImm, SReg, SpecialReg, VCC, VReg, Gcn3Instr
from ..hsail.isa import HReg, HsailKernel
from ..hsail.isa import Imm as HImm
from ..kernels.types import DType
from .uniformity import UniformityInfo

GOperand = Union[SReg, VReg, SpecialReg, SImm]


class FinalizeContext:
    """Mutable state threaded through all finalizer passes."""

    def __init__(self, kernel: HsailKernel, uniformity: UniformityInfo) -> None:
        self.kernel = kernel
        self.uniformity = uniformity
        self.instrs: List[Gcn3Instr] = []
        self._next_virtual_v = 0
        self._next_virtual_s = 0
        self._next_label = 0
        self._pending_labels: List[str] = []
        #: HSAIL virtual register id -> GCN3 operand
        self.vmap: Dict[int, GOperand] = {}
        #: named single-computation values (preamble ABI sequences)
        self.cse: Dict[str, GOperand] = {}
        #: HSAIL vid -> dtype, gathered from defining instructions
        self.dtype_of: Dict[int, DType] = {}
        for instr in kernel.virtual_instrs:
            if instr.dest is not None:
                # A cmp's instruction dtype is the *comparison* type; its
                # destination is a predicate.
                dtype = DType.B1 if instr.opcode == "cmp" else instr.dtype
                self.dtype_of.setdefault(instr.dest.index, dtype)

    # -- virtual registers -------------------------------------------------

    def new_v(self, count: int = 1) -> VReg:
        reg = VReg(index=self._next_virtual_v, count=count, virtual=True)
        self._next_virtual_v += 1
        return reg

    def new_s(self, count: int = 1) -> SReg:
        reg = SReg(index=self._next_virtual_s, count=count, virtual=True)
        self._next_virtual_s += 1
        return reg

    # -- operand helpers -----------------------------------------------------

    @staticmethod
    def lo(op: GOperand) -> GOperand:
        """The low 32-bit half of a 64-bit operand."""
        if isinstance(op, VReg):
            if op.virtual:
                return VReg(index=op.index, count=2, virtual=True, part=0)
            return VReg(index=op.index)
        if isinstance(op, SReg):
            if op.virtual:
                return SReg(index=op.index, count=2, virtual=True, part=0)
            return SReg(index=op.index)
        if isinstance(op, SImm):
            return SImm(pattern=op.pattern & 0xFFFFFFFF)
        raise FinalizerError(f"cannot take lo() of {op!r}")

    @staticmethod
    def hi(op: GOperand) -> GOperand:
        """The high 32-bit half of a 64-bit operand."""
        if isinstance(op, VReg):
            if op.virtual:
                return VReg(index=op.index, count=2, virtual=True, part=1)
            return VReg(index=op.index + 1)
        if isinstance(op, SReg):
            if op.virtual:
                return SReg(index=op.index, count=2, virtual=True, part=1)
            return SReg(index=op.index + 1)
        if isinstance(op, SImm):
            return SImm(pattern=(op.pattern >> 32) & 0xFFFFFFFF)
        raise FinalizerError(f"cannot take hi() of {op!r}")

    def map_operand(self, src: Union[HReg, HImm]) -> GOperand:
        """Map an HSAIL source operand to its GCN3 counterpart."""
        if isinstance(src, HImm):
            float_kind = None
            if src.dtype == DType.F32:
                float_kind = "f32"
            elif src.dtype == DType.F64:
                float_kind = "f64"
            imm = SImm(pattern=src.pattern, float_kind=float_kind)
            if float_kind == "f64" and (src.pattern & 0xFFFFFFFF) != 0:
                from ..gcn3.isa import imm_is_inline

                if not imm_is_inline(imm):
                    # An f64 literal only carries its high dword in the
                    # encoding; constants with low-half bits must be
                    # materialized through scalar registers (as real
                    # finalizers do).  Materialized per use site: scalar
                    # code inside a bypassed (execz) block never runs, so
                    # caching across control flow would be unsound.
                    pair = self.new_s(2)
                    self.emit("s_mov_b32", self.lo(pair),
                              (SImm(src.pattern & 0xFFFFFFFF),))
                    self.emit("s_mov_b32", self.hi(pair),
                              (SImm(src.pattern >> 32),))
                    return pair
            return imm
        return self.value_of(src.index)

    def value_of(self, vid: int) -> GOperand:
        """The GCN3 register holding HSAIL virtual register ``vid``."""
        existing = self.vmap.get(vid)
        if existing is not None:
            return existing
        dtype = self.dtype_of.get(vid)
        if dtype is None:
            raise FinalizerError(f"use of undefined HSAIL register %v{vid}")
        divergent = self.uniformity.is_divergent(vid)
        if dtype == DType.B1:
            # Divergent predicates are 64-bit lane masks in an SGPR pair;
            # uniform predicates are a 0/1 scalar.
            reg: GOperand = self.new_s(2) if divergent else self.new_s(1)
        elif divergent:
            reg = self.new_v(dtype.reg_slots)
        else:
            reg = self.new_s(dtype.reg_slots)
        self.vmap[vid] = reg
        return reg

    def alias(self, vid: int, operand: GOperand) -> None:
        """Map an HSAIL register directly onto an existing operand
        (only valid for single-definition values)."""
        if self.uniformity.def_count.get(vid, 0) > 1:
            raise FinalizerError(f"cannot alias multiply-defined register %v{vid}")
        self.vmap[vid] = operand

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        opcode: str,
        dest: Optional[GOperand] = None,
        srcs: Tuple[GOperand, ...] = (),
        **attrs: object,
    ) -> Gcn3Instr:
        instr = Gcn3Instr(opcode=opcode, dest=dest, srcs=srcs, attrs=dict(attrs))
        if self._pending_labels:
            instr.attrs["labels"] = list(self._pending_labels)
            self._pending_labels.clear()
        self.instrs.append(instr)
        return instr

    def new_label(self, hint: str = "L") -> str:
        name = f"{hint}{self._next_label}"
        self._next_label += 1
        return name

    def place_label(self, name: str) -> None:
        """Attach ``name`` to the next emitted instruction."""
        self._pending_labels.append(name)


__all__ = ["FinalizeContext", "GOperand", "EXEC", "VCC"]
