"""Block-compiled *superop* chains: straight-line code without dispatch.

PR 4 predecoded the timing-side attributes of every static instruction
into frozen ``IssueDesc`` tables; this module applies the same trick to
the *functional* side.  Each static kernel is compiled once per process
into per-basic-block chains of handler closures ("superops") bound to
their instruction operands, so a straight-line run executes without
per-instruction opcode lookup, operand re-parsing, or attribute
chasing.  The functional pass (:mod:`repro.timing.funcsim`) is the only
consumer: it runs a whole chain per step and records one outcome per
op, so a trace is bit-identical to the raw interpreter's.

Chain boundaries are the basic-block leaders of
:func:`repro.kernels.cfg.basic_block_leaders` plus the successors of
unfusable instructions (memory ops, barriers, kernel end — the
functional pass must see those one at a time) and HSAIL reconvergence
points (a pending-path jump is checked between steps).  A branch may
appear only as a chain's *terminal* op, so a chain always runs to
completion.

``REPRO_SEMANTICS=raw`` compiles no chains: every instruction then
takes the reference interpreter, the chain-length-1 case.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..kernels.cfg import basic_block_leaders
from .errors import ConfigError

SEMANTICS_MODES = ("block", "raw")


def resolve_semantics() -> str:
    """Active semantics engine: ``block`` (default) or ``raw``.

    Read fresh on every call so tests can flip ``REPRO_SEMANTICS``
    without re-importing anything.
    """
    choice = os.environ.get("REPRO_SEMANTICS", "block")
    if choice not in SEMANTICS_MODES:
        raise ConfigError(
            f"unknown REPRO_SEMANTICS {choice!r}: pick block or raw"
        )
    return choice


class SuperOp:
    """One fused instruction: a pre-bound handler plus the VRF slots
    the functional pass probes around it."""

    __slots__ = ("pc", "run", "is_branch", "read_slots", "write_slots",
                 "has_probe_slots", "writes_exec", "fresh_lanes")

    def __init__(self, pc: int, run: Callable, is_branch: bool,
                 writes_exec: bool, desc) -> None:
        self.pc = pc
        self.run = run
        self.is_branch = is_branch
        self.read_slots = desc.read_slots
        self.write_slots = desc.write_slots
        self.has_probe_slots = bool(desc.read_slots or desc.write_slots)
        #: this op can change the execution mask (GCN3 saveexec or an
        #: EXEC-destination scalar op); the op *after* it must re-read
        #: the lane popcount.
        self.writes_exec = writes_exec
        #: recompute the active-lane popcount before this op (set by
        #: :func:`build_table`: True iff the previous chain op writes
        #: EXEC — the chain entry popcount covers everything else).
        self.fresh_lanes = False


def build_table(kernel, descs: Sequence,
                handler_for: Callable) -> "Dict[int, Tuple[SuperOp, ...]]":
    """Compile one kernel into chains keyed by their start pc.

    ``handler_for(kernel, pc, instr)`` returns ``(closure, is_branch,
    writes_exec)`` for a fusable instruction and ``None`` otherwise;
    unfusable pcs (and any pc without a chain) take the raw interpreter,
    so a partially-fusable kernel still runs correctly.
    """
    instrs = kernel.instrs
    n = len(instrs)
    handlers = [handler_for(kernel, pc, instr)
                for pc, instr in enumerate(instrs)]
    branches: List[Tuple[int, Optional[int]]] = []
    extra: List[int] = []
    for pc, handler in enumerate(handlers):
        if handler is None:
            extra.append(pc + 1)
        elif handler[1]:
            branches.append((pc, getattr(instrs[pc], "target", None)))
    rpc_table = getattr(kernel, "rpc_table", None)
    if rpc_table:
        extra.extend(rpc_table.values())
    leaders = basic_block_leaders(n, branches, extra)
    chains: Dict[int, Tuple[SuperOp, ...]] = {}
    for start in sorted(leaders):
        ops: List[SuperOp] = []
        pc = start
        while pc < n:
            handler = handlers[pc]
            if handler is None or (pc != start and pc in leaders):
                break
            run, is_branch, writes_exec = handler
            op = SuperOp(pc, run, is_branch, writes_exec, descs[pc])
            if ops and ops[-1].writes_exec:
                op.fresh_lanes = True
            ops.append(op)
            pc += 1
            if is_branch:
                break
        if ops:
            chains[start] = tuple(ops)
    return chains


def compile_kernel(kernel, is_gcn3: bool,
                   descs: Sequence) -> "Dict[int, Tuple[SuperOp, ...]]":
    """The kernel's superop table, compiled once and cached beside the
    ``IssueDesc`` table on the kernel object itself."""
    table = getattr(kernel, "_superops", None)
    if table is None:
        if is_gcn3:
            from ..gcn3.superops import handler_for
        else:
            from ..hsail.superops import handler_for
        table = build_table(kernel, descs, handler_for)
        kernel._superops = table
    return table


__all__ = [
    "SEMANTICS_MODES",
    "SuperOp",
    "build_table",
    "compile_kernel",
    "resolve_semantics",
]
