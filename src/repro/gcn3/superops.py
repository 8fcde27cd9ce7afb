"""GCN3 superop handlers: fusable-instruction closures for the
functional pass's superop chains (:mod:`repro.common.superops`).

A ``v_*`` instruction contributes the very closure the reference
interpreter runs for it (:func:`repro.gcn3.semantics.compiled`,
memoized on the instruction); scalar ops bind the interpreter's leaf
methods.  Either way a fused run takes the identical code path minus
the per-instruction dispatch.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..common.exec_types import ExecResult
from .semantics import Gcn3Executor, compiled

#: Memory-less executor (see hsail/superops.py): the fusable leaves
#: never touch ``self.memory``/``self.lds``.
_EXE = Gcn3Executor.__new__(Gcn3Executor)

def _writes_exec(instr) -> bool:
    """True when this op can change EXEC: the saveexec family, or any
    scalar op whose destination is the EXEC special register."""
    if "saveexec" in instr.opcode:
        return True
    return getattr(instr.dest, "name", None) == "exec"


def handler_for(kernel, pc: int,
                instr) -> Optional[Tuple[Callable, bool, bool]]:
    """(closure, is_branch, writes_exec) for one fusable instruction,
    else None.

    Unfusable: flat_*/ds_*/scratch_*/s_load* (they need the real
    memory-backed executor) and s_endpgm/s_barrier (the functional pass
    schedules wavefronts on them).  ``s_waitcnt`` *is* fusable — it has
    no functional effect, and the timing layer gates on the predecoded
    ``IssueDesc`` wait fields, never on the interpreter's
    ``result.waitcnt``.
    """
    op = instr.opcode
    lead = op[0]
    if lead == "f" or lead == "d" or op.startswith("scratch_") \
            or op.startswith("s_load") or op in ("s_endpgm", "s_barrier"):
        return None
    if op == "s_branch" or op.startswith("s_cbranch"):
        def branch(wf, _instr=instr, _pc=pc):
            # _branch computes the not-taken fallthrough as wf.pc + 1;
            # wf.pc still sits at the chain start during a fused run.
            wf.pc = _pc
            result = ExecResult()
            _EXE._branch(wf, _instr, result)
            return result.branch_taken
        return branch, True, False
    if op in ("s_nop", "s_waitcnt"):
        return (lambda wf: None), False, False
    if lead == "v":
        return compiled(instr), False, _writes_exec(instr)
    if op.startswith("s_cmp_"):
        def scmp(wf, _instr=instr):
            _EXE._s_cmp(wf, _instr)
        return scmp, False, False
    if op.startswith("s_"):
        def salu(wf, _instr=instr):
            _EXE._salu(wf, _instr)
        return salu, False, _writes_exec(instr)
    # Anything else is unknown to the interpreter too; leave it to the
    # raw path, which raises when it gets there.
    return None


__all__ = ["handler_for"]
