"""HSAIL superop handlers: fusable-instruction closures for the
functional pass's superop chains (:mod:`repro.common.superops`).

A fusable ALU or dispatch-query instruction contributes the very
closure the reference interpreter runs for it
(:func:`repro.hsail.semantics.compiled`, memoized on the instruction),
so there is no duplicated semantics to drift — the fused path is
:meth:`HsailExecutor.execute` minus the per-instruction dispatch,
``ExecResult`` allocation, and pc bookkeeping.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..common.exec_types import ExecResult
from .semantics import HsailExecutor, compiled

#: Memory-less executor: ``_branch`` reads only wavefront state, so one
#: bare instance serves every kernel in the process.  ``__new__`` skips
#: ``__init__`` to avoid allocating the 64 KiB LDS scratch this
#: instance must never touch.
_EXE = HsailExecutor.__new__(HsailExecutor)

#: Memory ops need the real executor (device memory, LDS, kernarg
#: frames); barrier/ret toggle wavefront lifecycle state the functional
#: pass must see one instruction at a time.
_UNFUSABLE = frozenset(("ld", "st", "atomic_add", "barrier", "ret"))


def handler_for(kernel, pc: int,
                instr) -> Optional[Tuple[Callable, bool, bool]]:
    """(closure, is_branch, writes_exec) for one fusable instruction,
    else None.

    Non-branch closures mutate wavefront registers only — never
    ``wf.pc``, never the execution mask (HSAIL masks change only via
    branches and reconvergence, both chain boundaries), and never
    simulated memory.  Branch closures run the full reference
    ``_branch`` (divergence pushes included, which also moves ``wf.pc``
    to the functional continuation) and return ``branch_taken``.
    """
    opcode = instr.opcode
    if opcode in _UNFUSABLE:
        return None
    if opcode in ("br", "cbr"):
        def branch(wf, _instr=instr, _pc=pc):
            # _branch derives the fallthrough and the RPC lookup from
            # wf.pc, which still sits at the chain start during a fused
            # run — point it at the branch itself first.
            wf.pc = _pc
            result = ExecResult()
            _EXE._branch(wf, _instr, result)
            return result.branch_taken
        return branch, True, True
    if opcode == "nop":
        return (lambda wf: None), False, False
    return compiled(instr), False, False


__all__ = ["handler_for"]
