"""Predecoded issue descriptors: the static half of the issue stage.

Everything :class:`~repro.timing.cu.ComputeUnit` needs to know about an
instruction *before* executing it is a pure function of the static
instruction: which unit it issues to, how long the VALU holds the SIMD,
whether it is an ``s_waitcnt`` and with which thresholds, which VRF
slots it reads/writes, its encoded size.  The seed model recomputed all
of that per *dynamic* instruction — string ``startswith`` dispatch,
``attrs.get`` parsing, list concatenation — which is pure overhead on
the hottest loop in the simulator (GCN3 executes ~2x the dynamic
instructions, so it pays twice).

:func:`predecode_kernel` compiles each kernel once, at first placement,
into a frozen tuple of :class:`IssueDesc` indexed by instruction index
(= the functional PC).  The table is cached on the kernel object, so the
cost is per *static* kernel, not per wavefront or per dynamic
instruction.

Determinism: descriptors carry exactly the values the seed computed on
the fly — same category, same unit routing (BRANCH/MISC share the
scalar unit on GCN3 but have a dedicated branch unit under HSAIL, paper
Fig. 2), same long-VALU classification, same slot order (reads then
writes, duplicates preserved) — so issue decisions and statistics are
bit-identical.  ``tests/timing/test_predecode.py`` checks every
descriptor of every workload kernel in both ISAs against the raw
instruction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..common.categories import InstrCategory
from ..common.memo import kernel_memo
from ..gcn3 import isa as gcn3_isa
from ..gcn3.isa import Gcn3Instr, Gcn3Kernel
from ..hsail import isa as hsail_isa
from ..hsail.isa import HSAIL_INSTR_BYTES, HsailInstr, HsailKernel

AnyKernel = Union[HsailKernel, Gcn3Kernel]
AnyInstr = Union[HsailInstr, Gcn3Instr]

#: Issue-unit routing, resolved per ISA at predecode time so the issue
#: stage switches on a small int instead of (category, isa) pairs.
UNIT_SIMD = 0     # the per-SIMD vector ALU (checked by the scan itself)
UNIT_SCALAR = 1   # scalar ALU / scalar memory (and GCN3 branches)
UNIT_BRANCH = 2   # HSAIL's dedicated branch unit
UNIT_VMEM = 3     # global-memory pipeline
UNIT_LDS = 4      # LDS pipeline


@dataclass(frozen=True, slots=True)
class IssueDesc:
    """Frozen per-static-instruction issue metadata."""

    opcode: str
    category: InstrCategory
    unit: int                       # UNIT_* routing constant
    valu_mult: int                  # SIMD occupancy multiplier (2 = long op)
    is_memory: bool                 # category.is_memory
    is_waitcnt: bool
    wait_vm: Optional[int]          # parsed s_waitcnt vmcnt threshold
    wait_lgkm: Optional[int]        # parsed s_waitcnt lgkmcnt threshold
    read_slots: Tuple[int, ...]     # VRF slots read (operand gather)
    write_slots: Tuple[int, ...]    # VRF slots written (writeback)
    rw_slots: Tuple[int, ...]       # reads then writes, duplicates kept
    size_bytes: int                 # encoded size (IB fill budget)


_UNITS = {
    InstrCategory.VALU: UNIT_SIMD,
    InstrCategory.SALU: UNIT_SCALAR,
    InstrCategory.SMEM: UNIT_SCALAR,
    InstrCategory.VMEM: UNIT_VMEM,
    InstrCategory.LDS: UNIT_LDS,
}


def _unit_for(category: InstrCategory, is_gcn3: bool) -> int:
    if category in (InstrCategory.BRANCH, InstrCategory.MISC):
        return UNIT_SCALAR if is_gcn3 else UNIT_BRANCH
    return _UNITS[category]


def build_desc(instr: AnyInstr, is_gcn3: bool) -> IssueDesc:
    """Compile one static instruction into its issue descriptor."""
    category = instr.category
    if is_gcn3:
        reads: Tuple[int, ...] = tuple(instr.vgpr_reads())
        writes: Tuple[int, ...] = tuple(instr.vgpr_writes())
        long_valu = (category == InstrCategory.VALU
                     and gcn3_isa.is_long_valu(instr.opcode))
        size = instr.size_bytes
    else:
        reads = tuple(instr.vrf_slots_read())
        writes = tuple(instr.vrf_slots_written())
        long_valu = (category == InstrCategory.VALU
                     and hsail_isa.is_long_valu(instr))
        size = HSAIL_INSTR_BYTES
    is_waitcnt = is_gcn3 and instr.opcode == "s_waitcnt"
    wait_vm = wait_lgkm = None
    if is_waitcnt:
        vm = instr.attrs.get("vmcnt")
        lgkm = instr.attrs.get("lgkmcnt")
        wait_vm = None if vm is None else int(vm)
        wait_lgkm = None if lgkm is None else int(lgkm)
    return IssueDesc(
        opcode=instr.opcode,
        category=category,
        unit=_unit_for(category, is_gcn3),
        valu_mult=2 if long_valu else 1,
        is_memory=category.is_memory,
        is_waitcnt=is_waitcnt,
        wait_vm=wait_vm,
        wait_lgkm=wait_lgkm,
        read_slots=reads,
        write_slots=writes,
        rw_slots=reads + writes,
        size_bytes=size,
    )


def predecode_kernel(kernel: AnyKernel) -> Tuple[IssueDesc, ...]:
    """The kernel's issue-descriptor table, compiled once and cached.

    The cache key is the kernel object itself (kernels are immutable
    after finalization); repeated dispatches and every wavefront of a
    dispatch share one table.
    """
    return kernel_memo(kernel, "issue_descs", lambda: tuple(
        build_desc(instr, isinstance(kernel, Gcn3Kernel))
        for instr in kernel.instrs))


def fetch_tables(kernel: AnyKernel, code_base: int, fetch_width: int
                 ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(lines, fill)`` for the kernel loaded at ``code_base``.

    ``lines[i]`` is the 64-byte L1I line holding instruction ``i``;
    ``fill[i]`` is how many instructions one ``fetch_width``-byte fetch
    starting at ``i`` delivers: each next one while the bytes taken so
    far are under the width, up to the end of the kernel.  The
    instruction buffer's free room caps it at fill time.
    """
    def build():
        n = len(kernel.instrs)
        offsets = (kernel.pc_of_index if isinstance(kernel, Gcn3Kernel)
                   else [HSAIL_INSTR_BYTES * i for i in range(n)])
        return (tuple((code_base + offset) >> 6 for offset in offsets),
                tuple(bisect_left(offsets, offsets[i] + fetch_width, i) - i
                      for i in range(n)))

    return kernel_memo(kernel, ("fetch", code_base, fetch_width), build)


def read_banks(kernel: AnyKernel, num_banks: int) -> Tuple[Tuple[int, ...], ...]:
    """Per instruction, the distinct VRF banks its source operands read
    (slot ``s`` lives in bank ``s % num_banks``); equal bank sets share
    one tuple."""
    def build():
        shared: dict = {}
        return tuple(shared.setdefault(banks, banks) for banks in (
            tuple(sorted({slot % num_banks for slot in desc.read_slots}))
            for desc in predecode_kernel(kernel)))

    return kernel_memo(kernel, ("banks", num_banks), build)


def scoreboard_size(kernel: AnyKernel) -> int:
    """Entries of a wavefront's HSAIL scoreboard lists: one past the
    highest VRF slot an instruction of ``kernel`` reads or writes."""
    return kernel_memo(kernel, "scoreboard", lambda: 1 + max(
        [slot for desc in predecode_kernel(kernel) for slot in desc.rw_slots],
        default=-1))
