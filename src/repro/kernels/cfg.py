"""Control-flow analysis: post-dominators and reconvergence points.

The HSAIL simulator manages divergence with a reconvergence stack.  As the
paper describes (§III.C.1), when the IL does not mark reconvergence points
the simulator parses the kernel and identifies the *immediate
post-dominator* of each conditional branch; that instruction's PC becomes
the reconvergence PC (RPC) pushed on the stack.

This module implements that analysis at instruction granularity.  Nodes
are instruction indices; the graph shape is supplied by the caller, so the
analysis is ISA-agnostic (the tests also run it on synthetic graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..common.errors import KernelBuildError


@dataclass
class FlowGraph:
    """An instruction-level CFG.

    ``succs[i]`` lists the indices control may reach from instruction i.
    Terminators (ret) have no successors.
    """

    succs: List[List[int]]

    @property
    def num_nodes(self) -> int:
        return len(self.succs)

    def preds(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for i, ss in enumerate(self.succs):
            for s in ss:
                out[s].append(i)
        return out


def flow_graph_from_branches(
    num_instrs: int,
    branch_targets: Dict[int, int],
    conditional: Dict[int, bool],
    returns: Sequence[int],
) -> FlowGraph:
    """Build a CFG from branch/return annotations.

    ``branch_targets`` maps a branch instruction index to its target;
    ``conditional[i]`` says whether the branch also falls through;
    ``returns`` lists terminator instructions.
    """
    ret_set = set(returns)
    succs: List[List[int]] = []
    for i in range(num_instrs):
        if i in ret_set:
            succs.append([])
            continue
        if i in branch_targets:
            target = branch_targets[i]
            if not 0 <= target < num_instrs:
                raise KernelBuildError(f"branch at {i} targets out-of-range {target}")
            if conditional.get(i, False):
                nxt = i + 1
                if nxt >= num_instrs:
                    raise KernelBuildError(f"conditional branch at {i} falls off the end")
                succs.append(sorted({nxt, target}))
            else:
                succs.append([target])
            continue
        if i + 1 >= num_instrs:
            raise KernelBuildError(f"instruction {i} falls off the end of the kernel")
        succs.append([i + 1])
    return FlowGraph(succs=succs)


def post_dominator_sets(graph: FlowGraph) -> List[int]:
    """Post-dominator sets as bit masks (bit i set => i post-dominates).

    A virtual exit collects all return nodes; nodes that cannot reach any
    exit (malformed kernels) end up post-dominated by everything, which the
    ipdom step reports as an error.
    """
    n = graph.num_nodes
    preds = graph.preds()
    full = (1 << n) - 1
    pdom = [full] * n
    exits = [i for i, ss in enumerate(graph.succs) if not ss]
    for e in exits:
        pdom[e] = 1 << e
    # Iterate to fixpoint; reverse program order converges fast for
    # reducible kernels.
    order = list(range(n - 1, -1, -1))
    changed = True
    while changed:
        changed = False
        for i in order:
            if not graph.succs[i]:
                continue
            meet = full
            for s in graph.succs[i]:
                meet &= pdom[s]
            new = meet | (1 << i)
            if new != pdom[i]:
                pdom[i] = new
                changed = True
    # preds unused but kept for symmetry / debugging
    _ = preds
    return pdom


def immediate_post_dominators(graph: FlowGraph) -> List[Optional[int]]:
    """ipdom per node (None for exit nodes)."""
    pdom = post_dominator_sets(graph)
    n = graph.num_nodes
    out: List[Optional[int]] = [None] * n
    for i in range(n):
        strict = pdom[i] & ~(1 << i)
        if strict == 0:
            out[i] = None
            continue
        found = None
        rest = strict
        while rest:
            m = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if pdom[m] == strict:
                found = m
                break
        if found is None:
            raise KernelBuildError(f"no immediate post-dominator for node {i} (irreducible flow?)")
        out[i] = found
    return out


def reconvergence_table(
    num_instrs: int,
    branch_targets: Dict[int, int],
    conditional: Dict[int, bool],
    returns: Sequence[int],
) -> Dict[int, int]:
    """RPC per *conditional* branch instruction index.

    This is the table the HSAIL timing model consults when executing a
    divergent branch (paper Figure 3b).
    """
    graph = flow_graph_from_branches(num_instrs, branch_targets, conditional, returns)
    ipdom = immediate_post_dominators(graph)
    table: Dict[int, int] = {}
    for i, is_cond in conditional.items():
        if not is_cond:
            continue
        rpc = ipdom[i]
        if rpc is None:
            raise KernelBuildError(f"conditional branch at {i} has no reconvergence point")
        table[i] = rpc
    return table
