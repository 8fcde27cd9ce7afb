"""The functional pass: the one place instruction semantics execute.

Every simulation is trace-first.  A dispatch runs here to completion,
timing-free, and (given a :class:`~repro.timing.replay.TraceRecorder`)
leaves one :class:`~repro.timing.replay.WfStream` per wavefront behind;
the CU model then only ever replays streams (:mod:`repro.timing.gpu`).
Without a recorder this is the plain functional simulator the workload
verification tests use: both ISAs of one kernel must produce identical
memory results.

The inter-wavefront order is canonical, not a model of any schedule:
workgroups run one after another in dispatch order, and the wavefronts
of a workgroup take turns in index order, each running until it reaches
a barrier or ends.  A kernel whose wavefronts communicate only through
barriers cannot tell; one that races (atomics feeding control flow,
unsynchronised scatters) gets this order's outcome under every timing
configuration, which is what makes a trace a function of program and
input alone.

Each ISA's ``compiled`` turns every static instruction into one step
(the protocol is in :mod:`repro.common.lanes`); a kernel is a per-pc
table of them, the one its executor's ``execute`` looks up too, and the
loop takes one step per dynamic instruction: the HSAIL reconvergence
check, the probes, the step, then the record.

The sampled VRF value-uniqueness probes are taken here, not in the CU:
they read live register values under the live EXEC mask, which exist
only while semantics execute.  One instruction in four is sampled (the
unique count per slot is the probe's cost, and the ratio converges
quickly); the mask is taken before execution for both probes.  A probe
copies its rows when taken; the counts are computed a batch of probes at
a time, in one row-wise sort (:func:`~repro.timing.registerfile.unique_rows`).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import DeadlockError
from ..common.lanes import Step
from ..gcn3.semantics import Gcn3Executor, Gcn3WfState
from ..hsail.semantics import HsailExecutor, HsailWfState
from ..runtime.process import Dispatch, GpuProcess
from .predecode import IssueDesc, predecode_kernel
from .registerfile import unique_rows
from .replay import TraceRecorder, WfStream

_DEFAULT_STEP_LIMIT = 5_000_000

_LANES = 0xFFFFFFFFFFFFFFFF


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
    kernel = dispatch.kernel
    descs = predecode_kernel(kernel)
    executor_cls, state_cls = ((Gcn3Executor, Gcn3WfState) if dispatch.is_gcn3
                               else (HsailExecutor, HsailWfState))
    steps = executor_cls.steps(kernel)
    executed = 0

    for wg in range(dispatch.num_workgroups):
        lds = np.zeros(max(kernel.group_bytes, 4), dtype=np.uint8)
        executor = executor_cls(process.memory, lds)
        wg_id = dispatch.workgroup_id(wg)
        wavefronts = []
        streams: List[Optional[WfStream]] = []
        for wf_index in range(dispatch.wavefronts_in_wg(wg)):
            ctx = dispatch.make_context(wg_id, wf_index, lds_base_offset=0)
            wavefronts.append(state_cls(kernel, ctx))
            streams.append(None if recorder is None
                           else recorder.stream(len(recorder.streams)))
        executed += _run_workgroup(executor, wavefronts, streams, steps,
                                   descs, step_limit)
    dispatch.signal.decrement()
    return executed


def _run_workgroup(executor, wavefronts: List[object],
                   streams: "List[Optional[WfStream]]",
                   steps: Sequence[Step], descs: Sequence[IssueDesc],
                   step_limit: int) -> int:
    """Round-robin at barrier granularity: each round runs every live
    wavefront to its next barrier or its end, after which all of them
    have arrived (ended wavefronts do not count) and the barrier opens."""
    executed = 0
    live = list(zip(wavefronts, streams))
    while live:
        for wf, stream in live:
            executed += _run_wavefront(executor, wf, stream, steps, descs,
                                       step_limit - executed)
        live = [(wf, stream) for wf, stream in live if not wf.done]
    return executed


def _run_wavefront(executor, wf, stream: Optional[WfStream],
                   steps: Sequence[Step], descs: Sequence[IssueDesc],
                   budget: int) -> int:
    """Run ``wf`` until its next barrier or its end, recording into
    ``stream`` when there is one; returns the instructions executed.

    A stream holds one flag byte per instruction record, so its length
    is the wavefront's dynamic instruction count so far — the counter
    the one-in-four probe sampling keys on.  Probe counts are reserved
    in the stream when a probe is taken and filled in by :class:`_Probes`
    in batches, the last one before returning.
    """
    is_gcn3 = wf.is_gcn3
    regs = wf.vgpr if is_gcn3 else wf.regs
    recording = stream is not None
    counter = start = len(stream.flags) if recording else 0
    if recording:
        reads = _Probes(stream.probe_read)
        writes = _Probes(stream.probe_write)
        record = stream.record
        record_plain = stream.record_plain
    while counter - start <= budget:
        if not is_gcn3:
            # A pending-path switch at a reconvergence point is a
            # simulator-initiated jump (it flushes the IB at replay).
            rs = wf.rs
            if rs and wf.pc == rs[-1].rpc:
                new_pc = executor.check_reconvergence(wf)
                if new_pc is not None and recording:
                    stream.jump(new_pc)
        pc = wf.pc
        lanes = (wf.exec_mask & _LANES).bit_count()
        counter += 1
        probed = recording and not counter & 3 and bool(descs[pc].rw_slots)
        read_uniques = write_uniques = None
        if probed:
            desc = descs[pc]
            mask = wf.exec_bool()
            read_uniques = reads.take(regs, desc.read_slots, mask, lanes)
        result = steps[pc](wf, executor)
        if probed:
            write_uniques = writes.take(regs, desc.write_slots, mask, lanes)
        if result is None:
            wf.pc = pc + 1
            if recording:
                record_plain(pc, lanes, probed, read_uniques, write_uniques)
            continue
        result.active_lanes = lanes
        wf.pc = pc + 1 if result.next_pc is None else result.next_pc
        if recording:
            record(pc, result, probed, read_uniques, write_uniques)
        if result.is_barrier or result.ends_wavefront:
            break
    else:
        raise DeadlockError("functional execution exceeded step limit")
    if recording:
        reads.count()
        writes.count()
    return counter - start


class _Probes:
    """One stream side's (reads or writes) pending uniqueness probes.

    A probe copies its rows when taken (``regs[slot]`` is a live view
    later instructions overwrite) and the stream records placeholder
    counts, the last entries of ``out``, which :meth:`count` overwrites
    in one row-wise sort; at most ``_PROBE_BATCH`` probes are pending.
    """

    __slots__ = ("out", "rows", "masks")

    def __init__(self, out: array) -> None:
        self.out = out
        self.rows: List[np.ndarray] = []
        self.masks: List[np.ndarray] = []

    def take(self, regs: np.ndarray, slots: Sequence[int], mask: np.ndarray,
             lanes: int) -> Optional[List[int]]:
        """The placeholder counts to record (``None``: nothing to count)."""
        if not lanes or not slots:
            return None
        if len(self.rows) == _PROBE_BATCH:
            self.count()
        self.rows.append(regs[_row_index(slots)])
        self.masks.append(mask)
        return [0] * len(slots)

    def count(self) -> None:
        if not self.rows:
            return
        rows = np.concatenate(self.rows)
        masks = np.repeat(self.masks, [len(r) for r in self.rows], axis=0)
        self.out[len(self.out) - len(rows):] = array(
            "B", unique_rows(rows, masks).tolist())
        self.rows = []
        self.masks = []


#: Probes counted per row-wise sort, bounding the rows held at once.
_PROBE_BATCH = 64


@lru_cache(maxsize=None)  # one entry per static operand list
def _row_index(slots: Tuple[int, ...]) -> np.ndarray:
    return np.array(slots, dtype=np.intp)
