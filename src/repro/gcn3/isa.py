"""GCN3-like machine instruction set.

Modeled on AMD's "Graphics Core Next Architecture, Generation 3" ISA as
the paper uses it:

* Wavefront-granularity vector semantics with an architecturally visible
  64-bit EXEC mask, VCC, and SCC.
* 256 VGPRs and 102 SGPRs per wavefront; 64-bit values occupy aligned
  register pairs.
* A scalar pipeline: SALU instructions, scalar memory (``s_load_*``
  through the scalar cache), and scalar branches.
* Software dependency management: ``s_waitcnt`` / ``s_nop`` instead of a
  hardware scoreboard.
* Variable-length encoding: 32-bit and 64-bit formats plus an optional
  32-bit literal dword (see :mod:`repro.gcn3.encoding`).

Deliberate simplifications (documented in DESIGN.md): register-spill
traffic uses compact ``scratch_load/store_*`` ops standing in for GCN3's
swizzled buffer ops, and a literal dword is permitted on 64-bit formats
(real GCN3 would materialize via ``s_mov``/``v_mov``; byte counts match
either way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..common.categories import InstrCategory
from ..common.errors import EncodingError

#: Architectural register budgets per wavefront (paper §V.B).
MAX_VGPRS = 256
MAX_SGPRS = 102


@dataclass(frozen=True)
class SReg:
    """Scalar register(s): ``count`` consecutive SGPRs starting at ``index``.

    During finalization, ``virtual=True`` marks an unallocated virtual
    register whose ``index`` is a virtual id; ``part`` selects one 32-bit
    half of a virtual pair (-1 = whole register).
    """

    index: int
    count: int = 1
    virtual: bool = False
    part: int = -1

    def __repr__(self) -> str:
        if self.virtual:
            suffix = "" if self.part < 0 else f".{'lo' if self.part == 0 else 'hi'}"
            return f"%s{self.index}{suffix}"
        if self.count == 1:
            return f"s{self.index}"
        return f"s[{self.index}:{self.index + self.count - 1}]"


@dataclass(frozen=True)
class VReg:
    """Vector register(s): ``count`` consecutive VGPRs starting at ``index``.

    Same virtual-register convention as :class:`SReg`.
    """

    index: int
    count: int = 1
    virtual: bool = False
    part: int = -1

    def __repr__(self) -> str:
        if self.virtual:
            suffix = "" if self.part < 0 else f".{'lo' if self.part == 0 else 'hi'}"
            return f"%v{self.index}{suffix}"
        if self.count == 1:
            return f"v{self.index}"
        return f"v[{self.index}:{self.index + self.count - 1}]"


@dataclass(frozen=True)
class SpecialReg:
    """VCC / EXEC / SCC as explicit operands."""

    name: str  # 'vcc' | 'exec' | 'scc'

    def __repr__(self) -> str:
        return self.name


VCC = SpecialReg("vcc")
EXEC = SpecialReg("exec")
SCC = SpecialReg("scc")


@dataclass(frozen=True)
class SImm:
    """An immediate.  ``pattern`` is the raw bit pattern; ``float_kind``
    marks float immediates so inline-constant matching works."""

    pattern: int
    float_kind: Optional[str] = None  # None | 'f32' | 'f64'

    def __repr__(self) -> str:
        return f"{self.pattern:#x}"


Operand = Union[SReg, VReg, SpecialReg, SImm]

# ---------------------------------------------------------------------------
# Opcode table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpInfo:
    fmt: str
    reads_vcc: bool = False
    writes_vcc: bool = False
    reads_scc: bool = False
    writes_scc: bool = False
    writes_exec: bool = False


def _table() -> Dict[str, OpInfo]:
    t: Dict[str, OpInfo] = {}

    def add(names: "List[str]", fmt: str, **flags: bool) -> None:
        for n in names:
            t[n] = OpInfo(fmt=fmt, **flags)

    # --- scalar ALU ---
    add(["s_mov_b32", "s_mov_b64", "s_not_b32", "s_not_b64", "s_brev_b32"], "SOP1")
    add(["s_and_saveexec_b64", "s_or_saveexec_b64"], "SOP1", writes_exec=True, writes_scc=True)
    add(
        ["s_add_u32", "s_sub_u32", "s_mul_i32", "s_and_b32", "s_and_b64",
         "s_or_b32", "s_or_b64", "s_xor_b32", "s_xor_b64", "s_andn2_b64",
         "s_lshl_b32", "s_lshr_b32", "s_ashr_i32", "s_min_u32", "s_min_i32",
         "s_max_u32", "s_max_i32", "s_bfe_u32", "s_lshl_b64", "s_lshr_b64"],
        "SOP2",
        writes_scc=True,
    )
    add(["s_addc_u32", "s_subb_u32"], "SOP2", reads_scc=True, writes_scc=True)
    add(["s_cselect_b32", "s_cselect_b64"], "SOP2", reads_scc=True)
    for cond in ("eq", "lg", "lt", "le", "gt", "ge"):
        for ty in ("i32", "u32"):
            add([f"s_cmp_{cond}_{ty}"], "SOPC", writes_scc=True)

    # --- scalar control / sync ---
    add(["s_branch"], "SOPP")
    add(["s_cbranch_scc0", "s_cbranch_scc1"], "SOPP", reads_scc=True)
    add(["s_cbranch_vccz", "s_cbranch_vccnz"], "SOPP", reads_vcc=True)
    add(["s_cbranch_execz", "s_cbranch_execnz"], "SOPP")
    add(["s_waitcnt", "s_nop", "s_barrier", "s_endpgm"], "SOPP")

    # --- scalar memory ---
    add(["s_load_dword", "s_load_dwordx2", "s_load_dwordx4"], "SMEM")

    # --- vector ALU, 32-bit encodings ---
    add(
        ["v_mov_b32", "v_not_b32", "v_rcp_f32", "v_sqrt_f32",
         "v_cvt_f32_u32", "v_cvt_f32_i32", "v_cvt_u32_f32", "v_cvt_i32_f32",
         "v_cvt_f64_f32", "v_cvt_f32_f64", "v_cvt_f64_u32", "v_cvt_f64_i32",
         "v_cvt_u32_f64", "v_cvt_i32_f64", "v_rcp_f64", "v_sqrt_f64",
         "v_readfirstlane_b32"],
        "VOP1",
    )
    add(["v_add_u32", "v_sub_u32", "v_subrev_u32"], "VOP2", writes_vcc=True)
    add(["v_addc_u32", "v_subb_u32"], "VOP2", reads_vcc=True, writes_vcc=True)
    add(
        ["v_and_b32", "v_or_b32", "v_xor_b32", "v_lshlrev_b32", "v_lshrrev_b32",
         "v_ashrrev_i32", "v_add_f32", "v_sub_f32", "v_mul_f32", "v_min_f32",
         "v_max_f32", "v_min_u32", "v_max_u32", "v_min_i32", "v_max_i32"],
        "VOP2",
    )
    # v_cndmask with an explicit SGPR-pair selector and v_cmp with an
    # explicit SGPR-pair destination are VOP3-encoded (the finalizer
    # always uses these forms; the VOP2/VOPC forms implicitly use VCC).
    add(["v_cndmask_b32"], "VOP3")
    for cond in ("eq", "ne", "lt", "le", "gt", "ge"):
        for ty in ("u32", "i32", "f32", "f64", "u64"):
            add([f"v_cmp_{cond}_{ty}"], "VOP3")

    # --- vector ALU, 64-bit encodings ---
    add(
        ["v_mul_lo_u32", "v_mul_hi_u32", "v_mul_hi_i32", "v_bfe_u32",
         "v_fma_f32", "v_fma_f64", "v_add_f64", "v_mul_f64", "v_min_f64",
         "v_max_f64", "v_lshlrev_b64", "v_lshrrev_b64", "v_ashrrev_i64",
         "v_mad_u32_u24"],
        "VOP3",
    )
    add(["v_div_scale_f32", "v_div_scale_f64"], "VOP3", writes_vcc=True)
    add(["v_div_fmas_f32", "v_div_fmas_f64"], "VOP3", reads_vcc=True)
    add(["v_div_fixup_f32", "v_div_fixup_f64"], "VOP3")

    # --- vector memory ---
    add(["flat_load_dword", "flat_load_dwordx2", "flat_store_dword",
         "flat_store_dwordx2", "flat_atomic_add"], "FLAT")
    add(["scratch_load_dword", "scratch_load_dwordx2", "scratch_store_dword",
         "scratch_store_dwordx2"], "SCRATCH")

    # --- LDS ---
    add(["ds_read_b32", "ds_read_b64", "ds_write_b32", "ds_write_b64"], "DS")

    return t


OPCODES: Dict[str, OpInfo] = _table()

_FMT_BYTES = {
    "SOP1": 4, "SOP2": 4, "SOPC": 4, "SOPP": 4,
    "VOP1": 4, "VOP2": 4, "VOPC": 4,
    "SMEM": 8, "VOP3": 8, "FLAT": 8, "SCRATCH": 8, "DS": 8,
}

_INLINE_FLOATS_F32 = {
    0x00000000, 0x3F000000, 0xBF000000, 0x3F800000, 0xBF800000,
    0x40000000, 0xC0000000, 0x40800000, 0xC0800000,
}
_INLINE_FLOATS_F64 = {
    0x0000000000000000, 0x3FE0000000000000, 0xBFE0000000000000,
    0x3FF0000000000000, 0xBFF0000000000000, 0x4000000000000000,
    0xC000000000000000, 0x4010000000000000, 0xC010000000000000,
}


def imm_is_inline(imm: SImm) -> bool:
    """True when the immediate fits a GCN3 inline constant."""
    if imm.float_kind == "f32":
        return imm.pattern in _INLINE_FLOATS_F32
    if imm.float_kind == "f64":
        return imm.pattern in _INLINE_FLOATS_F64
    value = imm.pattern
    if value >= (1 << 63):  # treat as negative 64-bit
        value -= 1 << 64
    return -16 <= value <= 64


def is_long_valu(opcode: str) -> bool:
    """Double-precision and transcendental VALU ops occupy the SIMD for
    twice the normal issue window (paper Table 4).  ISA-owned so the
    timing model's predecode table and any analysis tool agree."""
    return opcode.endswith("_f64") or opcode.startswith(("v_rcp", "v_sqrt", "v_div"))


def _categorize(opcode: str) -> InstrCategory:
    if opcode.startswith("v_"):
        return InstrCategory.VALU
    if opcode.startswith("s_load"):
        return InstrCategory.SMEM
    if opcode.startswith(("s_branch", "s_cbranch")):
        return InstrCategory.BRANCH
    if opcode in ("s_waitcnt", "s_nop", "s_barrier", "s_endpgm"):
        return InstrCategory.MISC
    if opcode.startswith("s_"):
        return InstrCategory.SALU
    if opcode.startswith(("flat_", "scratch_")):
        return InstrCategory.VMEM
    if opcode.startswith("ds_"):
        return InstrCategory.LDS
    raise EncodingError(f"cannot categorize {opcode!r}")


@dataclass
class Gcn3Instr:
    """One GCN3 machine instruction."""

    opcode: str
    dest: Optional[Operand] = None
    srcs: Tuple[Operand, ...] = ()
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        info = OPCODES.get(self.opcode)
        if info is None:
            raise EncodingError(f"unknown GCN3 opcode {self.opcode!r}")
        self.info = info
        self.category = _categorize(self.opcode)

    # -- encoding-facing -------------------------------------------------

    @property
    def fmt(self) -> str:
        return self.info.fmt

    @property
    def literal_dwords(self) -> int:
        return sum(
            1 for s in self.srcs if isinstance(s, SImm) and not imm_is_inline(s)
        )

    @property
    def size_bytes(self) -> int:
        return _FMT_BYTES[self.fmt] + 4 * self.literal_dwords

    # -- control flow ------------------------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.category == InstrCategory.BRANCH

    @property
    def is_conditional(self) -> bool:
        return self.opcode.startswith("s_cbranch")

    @property
    def target(self) -> Optional[int]:
        t = self.attrs.get("target")
        return int(t) if t is not None else None

    # -- register introspection -------------------------------------------

    def _regs(self, ops: "List[Operand]") -> "Tuple[List[int], List[int]]":
        vgpr: List[int] = []
        sgpr: List[int] = []
        for op in ops:
            if isinstance(op, VReg):
                vgpr.extend(range(op.index, op.index + op.count))
            elif isinstance(op, SReg):
                sgpr.extend(range(op.index, op.index + op.count))
        return vgpr, sgpr

    def vgpr_reads(self) -> List[int]:
        cached = getattr(self, "_vgpr_reads", None)
        if cached is None:
            cached = self._regs(list(self.srcs))[0]
            self._vgpr_reads = cached
        return cached

    def vgpr_writes(self) -> List[int]:
        cached = getattr(self, "_vgpr_writes", None)
        if cached is None:
            cached = self._regs([self.dest] if self.dest is not None else [])[0]
            self._vgpr_writes = cached
        return cached

    def sgpr_reads(self) -> List[int]:
        return self._regs(list(self.srcs))[1]

    def sgpr_writes(self) -> List[int]:
        return self._regs([self.dest] if self.dest is not None else [])[1]

    def __repr__(self) -> str:
        ops: List[str] = []
        if self.dest is not None:
            ops.append(repr(self.dest))
        ops.extend(repr(s) for s in self.srcs)
        shown = dict(self.attrs)
        neg = shown.pop("neg", None)
        if neg:
            for i, n in enumerate(neg):  # type: ignore[arg-type]
                if n and self.dest is not None and i + 1 < len(ops):
                    ops[i + 1] = f"-{ops[i + 1]}"
                elif n and self.dest is None and i < len(ops):
                    ops[i] = f"-{ops[i]}"
        text = f"{self.opcode} " + ", ".join(ops)
        if "offset" in shown:
            text += f" offset:{shown['offset']}"
        if self.opcode == "s_waitcnt":
            parts = []
            if "vmcnt" in shown:
                parts.append(f"vmcnt({shown['vmcnt']})")
            if "lgkmcnt" in shown:
                parts.append(f"lgkmcnt({shown['lgkmcnt']})")
            text = "s_waitcnt " + " ".join(parts)
        if self.target is not None:
            text += f" @{self.target}"
        return text.strip()


@dataclass
class Gcn3Kernel:
    """A finalized machine-code kernel plus its ABI metadata."""

    name: str
    instrs: List[Gcn3Instr]
    sgprs_used: int
    vgprs_used: int
    #: (name, dtype, kernarg offset) copied from the source kernel so the
    #: runtime can stage kernargs identically for both ISAs.
    params: List[Tuple[str, object, int]]
    kernarg_bytes: int
    group_bytes: int
    private_bytes: int   # DSL private segment, per work-item
    spill_bytes: int     # DSL spill segment, per work-item
    scratch_bytes: int   # regalloc spill scratch, per work-item
    #: grid dimensions the ABI initializes work-item/workgroup ids for
    abi_dims: int = 1
    code_base: int = 0   # set by the loader
    pc_of_index: List[int] = field(default_factory=list)
    code_bytes_total: int = 0

    def compute_layout(self) -> None:
        """Assign byte offsets to instructions (variable-length encoding)."""
        self.pc_of_index = []
        offset = 0
        for instr in self.instrs:
            self.pc_of_index.append(offset)
            offset += instr.size_bytes
        self.code_bytes_total = offset

    @property
    def static_instructions(self) -> int:
        return len(self.instrs)

    @property
    def code_bytes(self) -> int:
        if not self.code_bytes_total:
            self.compute_layout()
        return self.code_bytes_total

    def pretty(self) -> str:
        if not self.pc_of_index:
            self.compute_layout()
        lines = [
            f"gcn3 kernel {self.name} "
            f"(sgprs={self.sgprs_used} vgprs={self.vgprs_used} "
            f"code={self.code_bytes}B)"
        ]
        lines.extend(
            f"  {self.pc_of_index[i]:#06x}: {instr!r}"
            for i, instr in enumerate(self.instrs)
        )
        return "\n".join(lines)
