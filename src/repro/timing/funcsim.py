"""The functional pass: the one place instruction semantics execute.

Every simulation is trace-first.  A dispatch runs here to completion,
timing-free, and (given a :class:`~repro.timing.replay.TraceRecorder`)
leaves one :class:`~repro.timing.replay.WfStream` per wavefront behind;
the CU model then only ever replays streams (:mod:`repro.timing.gpu`).
Without a recorder this is the plain functional simulator the workload
verification tests use: both ISAs of one kernel must produce identical
memory results.

The wavefronts of a dispatch run in lockstep, the way a SIMT machine
runs lanes: the live ones are grouped by pc, and each step runs one
group's instruction for all of its members in one call (the register
file, EXEC and the per-wavefront scalars are arrays with a leading
wavefront axis, :mod:`repro.common.lanes`).  The group with the lowest
pc goes first, so groups that diverged (an HSAIL reconvergence-stack
switch, a GCN3 scalar branch taken by some wavefronts only) re-merge
when the trailing one reaches the leader's pc.  A group whose members
disagree on the next pc splits.  A wavefront that executes a barrier
waits until every live wavefront of its workgroup has (ended ones do not
count).  Wavefronts between barriers are independent, so a kernel that
communicates only through barriers gets the same memory image and the
same per-wavefront streams as under any other order; one that races
(unsynchronised scatters) gets this order's outcome under every timing
configuration, which is what makes a trace a function of program and
input alone.  A kernel with an atomic is the exception
(:func:`~repro.common.lanes.has_atomic`): every atomic returns its old
value, which depends on which wavefronts ran first, so such a kernel
keeps the canonical order -- workgroups in dispatch order, and a
workgroup's wavefronts take turns in index order, each running alone
until it reaches a barrier or ends -- through the same loop, in groups
of one.

Each ISA's ``compiled`` turns every static instruction into one step
(the protocol is in :mod:`repro.common.lanes`); a kernel is a per-pc
table of them, and the loop takes one step per group step: the HSAIL
reconvergence check, the probes, the step, then one record per member.

The sampled VRF value-uniqueness probes are taken here, not in the CU:
they read live register values under the live EXEC mask, which exist
only while semantics execute.  Each wavefront samples one of its own
instructions in four (the unique count per slot is the probe's cost,
and the ratio converges quickly); the mask is taken before execution
for both probes.  A probe copies its members' rows in one fancy index
when taken; the counts are computed a batch of probes at a time, in one
row-wise sort (:func:`~repro.timing.registerfile.unique_rows`).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import DeadlockError
from ..common.lanes import (U32, Executor, Group, RowLines, Step, Wavefronts,
                            has_atomic)
from ..gcn3.semantics import Gcn3Wavefronts
from ..hsail.semantics import HsailWavefronts
from ..obs.host import span
from ..runtime.process import Dispatch, GpuProcess
from .predecode import IssueDesc, predecode_kernel
from .registerfile import unique_rows
from .replay import _F_BARRIER, _F_ENDS, _F_MEM_SHIFT, _F_TAKEN, _F_TARGET, \
    _MEM_INDEX, TraceRecorder, WfStream

_DEFAULT_STEP_LIMIT = 5_000_000


def run_dispatch_functional(
    process: GpuProcess,
    dispatch: Dispatch,
    step_limit: int = _DEFAULT_STEP_LIMIT,
    recorder: Optional[TraceRecorder] = None,
) -> int:
    """Run one dispatch to completion; returns dynamic instruction count.

    With ``recorder``, each wavefront's outcomes are appended as the next
    stream — wavefront ids follow workgroup order then wavefront index,
    the numbering the dispatcher's placement uses.
    """
    with span("funcsim", isa=process.isa) as attrs:
        kernel = dispatch.kernel
        state_cls = Gcn3Wavefronts if dispatch.is_gcn3 else HsailWavefronts
        # Each workgroup's LDS allocation is its own slice of one image;
        # a wavefront reaches it through its context's LDS base.
        lds_bytes = max(kernel.group_bytes, 4)
        contexts = []
        workgroup_of = []
        for wg in range(dispatch.num_workgroups):
            wg_id = dispatch.workgroup_id(wg)
            for wf_index in range(dispatch.wavefronts_in_wg(wg)):
                contexts.append(dispatch.make_context(
                    wg_id, wf_index, lds_base_offset=wg * lds_bytes))
                workgroup_of.append(wg)
        state = state_cls(kernel, contexts)
        executor = Executor(
            process.memory,
            np.zeros(lds_bytes * dispatch.num_workgroups, dtype=np.uint8),
            lds_bytes)
        streams = (None if recorder is None else
                   [recorder.stream(len(recorder.streams)) for _ in contexts])
        executed = attrs["instructions"] = _Lockstep(
            state, executor, streams, workgroup_of,
            not has_atomic(kernel)).run(step_limit)
    dispatch.signal.decrement()
    return executed


_NEVER = float("inf")


class _Lockstep:
    """The group loop over one dispatch's wavefronts (module docstring).

    Every live wavefront is in exactly one group or waiting at a
    barrier.  ``lockstep`` groups wavefronts by pc and runs the lowest
    first; without it every wavefront is a group of its own and the
    lowest-numbered one that is not waiting runs, until it waits or ends
    -- the canonical order.
    """

    def __init__(self, state: Wavefronts, executor, streams, workgroup_of,
                 lockstep: bool) -> None:
        kernel = state.kernel
        self.state = state
        self.executor = executor
        self.steps: Sequence[Step] = state.steps(kernel)
        self.descs: Sequence[IssueDesc] = predecode_kernel(kernel)
        self.streams: Optional[List[WfStream]] = streams
        self.workgroup_of = workgroup_of
        self.lockstep = lockstep
        #: dynamic instructions of each wavefront so far (= its stream's
        #: record count), the counter its probe sampling keys on
        self.counts = [0] * len(workgroup_of)
        self.members: Dict[int, List[int]] = {}
        for row, wg in enumerate(workgroup_of):
            self.members.setdefault(wg, []).append(row)
        self.waiting: Dict[int, List[int]] = {}
        self.groups: Dict[int, Group] = {}

    def run(self, step_limit: int) -> int:
        state = self.state
        self.place(list(range(len(self.counts))), 0)
        executed = 0
        groups = self.groups
        while groups:
            key = min(groups)
            g = groups.pop(key)
            bound = min(groups) if self.lockstep and groups else _NEVER
            executed = self.run_group(g, bound, executed, step_limit)
        assert all(state.ended), "a wavefront neither ran nor ended"
        return executed

    def place(self, rows: List[int], pc: int) -> None:
        """Make ``rows`` (all at ``pc``) runnable: one group in lockstep,
        merged with the group already at ``pc``; else one per row."""
        state = self.state
        for row in rows:
            state.pcs[row] = pc
        if not self.lockstep:
            for row in rows:
                self.groups[row] = Group(state, [row], pc)
            return
        present = self.groups.get(pc)
        if present is not None:
            rows = sorted(present.rows + rows)
        self.groups[pc] = Group(state, rows, pc)

    def arrive(self, rows: List[int], ended: bool) -> None:
        """``rows`` executed a barrier (or ended): open the barrier of
        every workgroup whose live wavefronts all wait now."""
        state = self.state
        touched = set()
        for row in rows:
            wg = self.workgroup_of[row]
            touched.add(wg)
            if not ended:
                self.waiting.setdefault(wg, []).append(row)
        for wg in sorted(touched):
            waiting = self.waiting.get(wg)
            if not waiting:
                continue
            live = sum(1 for row in self.members[wg] if not state.ended[row])
            if len(waiting) == live:
                del self.waiting[wg]
                by_pc: Dict[int, List[int]] = {}
                for row in sorted(waiting):
                    by_pc.setdefault(state.pcs[row], []).append(row)
                for pc, released in by_pc.items():
                    self.place(released, pc)

    def run_group(self, g: Group, bound: float, executed: int,
                  step_limit: int) -> int:
        """Step ``g`` until its pc reaches ``bound`` (another group's),
        its members part or it waits or ends; returns the updated
        dynamic instruction count."""
        state = self.state
        steps = self.steps
        descs = self.descs
        executor = self.executor
        rows = g.rows
        width = len(rows)
        streams = self.streams
        recording = streams is not None
        if recording:
            records = _Records([streams[row] for row in rows])
            codes = records.codes
            flags = records.flags
            actives = records.actives
            samplers = self.samplers(g, records.streams)
            taken_steps = 0
        rpcs = g.rpcs
        pc = g.pc
        try:
            while pc < bound:
                g.pc = pc
                if rpcs and pc in rpcs:
                    if recording:
                        records.flush()
                    if self.reconverge(g):
                        return executed
                    rpcs = g.rpcs
                desc = descs[pc]
                active = g.active
                sub = None
                if recording:
                    sub = samplers[taken_steps & 3]
                    taken_steps += 1
                    if sub is not None:
                        if desc.rw_slots:
                            sub.before(g, desc, active)
                        else:
                            sub = None
                result = steps[pc](g, executor)
                executed += width
                if executed > step_limit:
                    raise DeadlockError(
                        "functional execution exceeded step limit")
                if recording:
                    if sub is not None:
                        sub.after(desc)
                    if result is None:
                        codes.append(pc)
                        flags.append(0)
                        actives.append(active)
                        pc += 1
                        continue
                    records.add(pc, result, active)
                elif result is None:
                    pc += 1
                    continue
                if result.ends_wavefront:
                    for row in rows:
                        state.ended[row] = True
                    self.arrive(rows, ended=True)
                    return executed
                if result.is_barrier:
                    for row in rows:
                        state.pcs[row] = pc + 1
                    self.arrive(rows, ended=False)
                    return executed
                taken = result.branch_taken
                if taken is None or taken is False:
                    pc += 1
                elif taken is True:
                    pc = result.next_pc
                else:
                    self.place([r for r, t in zip(rows, taken) if t],
                               result.next_pc)
                    self.place([r for r, t in zip(rows, taken) if not t],
                               pc + 1)
                    return executed
            self.place(rows, pc)
            return executed
        finally:
            if recording:
                for sub in samplers:
                    if sub is not None:
                        sub.flush()
                records.flush()
                counts = self.counts
                for row in rows:
                    counts[row] += taken_steps

    def samplers(self, g: Group, streams: List[WfStream]
                 ) -> List[Optional["_Samples"]]:
        """The probes of a run of ``g``, by step number mod 4: a member
        samples the steps that take its own counter to a multiple of
        four, so members whose counters differ mod 4 sample different
        steps."""
        phases: Dict[int, List[int]] = {}
        for m, row in enumerate(g.rows):
            phases.setdefault(~self.counts[row] & 3, []).append(m)
        samplers: List[Optional[_Samples]] = [None] * 4
        for phase, members in phases.items():
            if len(members) == len(g.rows):
                samplers[phase] = _Samples(
                    g.views[U32], None if g.member is True else g.index,
                    None, streams)
            else:
                samplers[phase] = _Samples(
                    g.views[U32], g.index[members], members,
                    [streams[m] for m in members])
        return samplers

    def reconverge(self, g: Group) -> bool:
        """HSAIL reconvergence at ``g.pc``: pop or switch each member
        whose stack top names this pc.  True when members jumped to a
        pending path (the group then split up, every part placed)."""
        state = self.state
        pc = g.pc
        jumped = []
        for row in g.rows:
            stack = state.stacks[row]
            if stack and stack[-1].rpc == pc:
                state.pcs[row] = pc
                new_pc = state.reconverge(row)
                if new_pc is not None:
                    jumped.append(row)
                    if self.streams is not None:
                        self.streams[row].jump(new_pc)
        if not jumped:
            g.refresh()
            state.bind(g)
            return False
        stay = [row for row in g.rows if row not in jumped]
        if stay:
            self.place(stay, pc)
        by_pc: Dict[int, List[int]] = {}
        for row in jumped:
            by_pc.setdefault(state.pcs[row], []).append(row)
        for new_pc, rows in by_pc.items():
            self.place(rows, new_pc)
        return True



class _Records:
    """The instruction records of one group run, held as columns shared
    by the members and written to every member's stream at once by
    :meth:`flush` (before a reconvergence jump is recorded, and when the
    run stops): the pc and flag byte of each step, the lane counts it
    saw (the group's ``active`` list, one object per EXEC state), and
    the branch targets and per-member memory lines of the steps that
    returned an :class:`ExecResult`.  A branch some members took and
    others did not ends the run, so only its record differs per
    member."""

    __slots__ = ("streams", "codes", "flags", "actives", "targets",
                 "lines", "split")

    def __init__(self, streams: List[WfStream]) -> None:
        self.streams = streams
        self.codes: List[int] = []
        self.flags = bytearray()
        self.actives: List[List[int]] = []
        self.targets: List[int] = []
        self.lines: List[RowLines] = []
        self.split: Optional[List[bool]] = None

    def reset(self) -> None:
        """Empty the columns in place (the loop appends to them)."""
        self.codes.clear()
        self.flags.clear()
        self.actives.clear()
        self.targets.clear()
        self.lines.clear()
        self.split = None

    def add(self, pc: int, result, active: List[int]) -> None:
        """The record of a step that returned ``result``."""
        kind = _MEM_INDEX[result.mem_kind]
        bits = kind << _F_MEM_SHIFT
        if result.ends_wavefront:
            bits |= _F_ENDS
        if result.is_barrier:
            bits |= _F_BARRIER
        taken = result.branch_taken
        if taken is True:
            bits |= _F_TAKEN | _F_TARGET
            self.targets.append(result.next_pc)
        elif taken:
            self.split = taken
            self.targets.append(result.next_pc)
        if kind:
            self.lines.append(result.mem_lines)
        self.codes.append(pc)
        self.flags.append(bits)
        self.actives.append(active)

    def flush(self) -> None:
        codes = self.codes
        if not codes:
            return
        code = array("i", codes)
        flags = bytes(self.flags)
        runs = []  # (lane counts, steps) per stretch of one EXEC state
        previous = None
        for active in self.actives:
            if active is previous:
                runs[-1][1] += 1
            else:
                runs.append([active, 1])
                previous = active
        targets = self.targets
        split = self.split
        for m, stream in enumerate(self.streams):
            stream.code.extend(code)
            stream.active.frombytes(b"".join(
                bytes((active[m],)) * steps for active, steps in runs))
            if split is None:
                stream.flags.frombytes(flags)
                stream.targets.extend(targets)
            elif split[m]:
                stream.flags.frombytes(flags[:-1])
                stream.flags.append(flags[-1] | _F_TAKEN | _F_TARGET)
                stream.targets.extend(targets)
            else:
                stream.flags.frombytes(flags)
                stream.targets.extend(targets[:-1])
            for lines in self.lines:
                start = lines.starts[m]
                end = lines.ends[m]
                stream.mem_counts.append(end - start)
                stream.mem_lines.frombytes(lines.lines[start:end].tobytes())
        self.reset()


class _Samples:
    """The uniqueness probes of the members of one group run that sample
    the same steps (all of them, unless their counters differ): one
    sample copies those members' lane masks and read registers before
    the step and their write registers after it, each in one fancy
    index; :meth:`flush` counts every pending register in one lane-wise
    sort and appends each member's EXEC popcounts and counts to its
    stream, in sampling order.

    A member whose lanes are all off records only its popcount (0); its
    registers are counted with the rest and dropped.
    """

    __slots__ = ("block", "sel", "members", "streams", "actives", "masks",
                 "reads", "read_widths", "writes", "write_widths")

    def __init__(self, views: np.ndarray, sel: Optional[np.ndarray],
                 members: Optional[List[int]],
                 streams: List[WfStream]) -> None:
        #: the window's registers as ``[wf, lane, reg]``
        self.block = views.transpose(1, 2, 0)
        #: the sampling members' window rows (None: the whole window)
        self.sel = sel
        #: their positions in the group (None: every member)
        self.members = members
        self.streams = streams
        self.reset()

    def reset(self) -> None:
        self.actives: List[List[int]] = []
        self.masks: List[np.ndarray] = []
        self.reads: List[np.ndarray] = []
        self.read_widths: List[int] = []
        self.writes: List[np.ndarray] = []
        self.write_widths: List[int] = []

    def before(self, g: Group, desc: IssueDesc, active: List[int]) -> None:
        members = self.members
        self.actives.append(active if members is None
                            else [active[m] for m in members])
        # No mask while every lane of the group is on (``where`` True).
        self.masks.append(None if g.where is True else
                          g.lanes.copy() if self.sel is None
                          else g.lanes[self.sel])
        self.read_widths.append(self._take(desc.read_slots, self.reads))

    def after(self, desc: IssueDesc) -> None:
        self.write_widths.append(self._take(desc.write_slots, self.writes))
        if len(self.actives) == _PROBE_BATCH:
            self.flush()

    def _take(self, slots: Tuple[int, ...], into: List[np.ndarray]) -> int:
        if slots:
            block = self.block if self.sel is None else self.block[self.sel]
            into.append(block[:, :, _slot_index(slots)])  # [wf, lane, slot]
        return len(slots)

    def flush(self) -> None:
        actives = self.actives
        if not actives:
            return
        streams = self.streams
        # Consecutive samples mostly share one EXEC state (one list).
        states = list({id(active): active for active in actives}.values())
        lanes_on = [all(active[m] for active in states)
                    for m in range(len(streams))]
        for m, stream in enumerate(streams):
            stream.probe_active.extend([active[m] for active in actives])
        masks = self.masks
        if all(mask is None for mask in masks):
            masks = None
        else:
            full = np.ones(self.block.shape[:2] if self.sel is None
                           else (len(self.sel), self.block.shape[1]), bool)
            masks = np.stack([full if mask is None else mask
                              for mask in masks], axis=2)
        for regs, widths, field in (
                (self.reads, self.read_widths, "probe_read"),
                (self.writes, self.write_widths, "probe_write")):
            if not regs:
                continue
            counts = unique_rows(
                np.concatenate(regs, axis=2),
                None if masks is None else np.repeat(masks, widths, axis=2),
                axis=1).tolist()
            for m, stream in enumerate(streams):
                own = counts[m]
                if not lanes_on[m]:
                    keep = [bool(active[m]) for active, times
                            in zip(actives, widths) for _ in range(times)]
                    own = [c for c, kept in zip(own, keep) if kept]
                getattr(stream, field).extend(own)
        self.reset()


#: Samples of a group run counted per lane-wise sort.
_PROBE_BATCH = 256


@lru_cache(maxsize=None)  # one entry per static operand list
def _slot_index(slots: Tuple[int, ...]) -> np.ndarray:
    return np.array(slots, dtype=np.intp)
