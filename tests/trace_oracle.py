"""The oracles behind the trace tests.

* :func:`walk_stream` is the per-issue accumulation the CU model
  performed before the statistics a trace determines moved into
  ``repro.timing.vector.FoldArtifact``.  One wavefront stream is walked
  record by record, exactly as the issue path used to visit it: a
  category count per instruction, a slot -> last-counter map emitting
  reuse distances, the one-in-four uniqueness probe outcomes read back
  from the probe side streams, one SIMD utilisation sample per VALU
  issue, one IB flush per reconvergence jump or taken branch with a
  target, and one request per memory record (a vector one covering at
  least one line).  :func:`walk_trace` adds the workgroup-level counts:
  one release per barrier the most-barriered wavefront of a workgroup
  reaches.  Nothing here shares code with the fold's array reductions,
  so agreement is evidence, not tautology.
* :func:`run_dispatch_reference` is the functional pass without
  lockstep groups: every wavefront is a one-row state of its own, run an
  instruction at a time by :func:`step_wavefront` (the helper the unit
  tests of both ISAs step with too), recorded with :func:`record` and
  probed one slot at a time with ``unique_counts``.  It must write the
  same trace bytes as ``repro.timing.funcsim``.
* :func:`record` is the per-issue encoder of the stream format: one
  ``ExecResult`` appended at a time, where ``funcsim._Records.flush``
  writes a whole group step's records at once.
"""

import numpy as np

from repro.common.exec_types import ExecResult, MemKind
from repro.common.lanes import U32, Executor, Group
from repro.common.stats import StatSet
from repro.gcn3.semantics import Gcn3Wavefronts
from repro.hsail.semantics import HsailWavefronts
from repro.obs.metrics import (BARRIERS, IB_FLUSHES, LDS_ACCESSES, METRICS,
                               SMEM_REQUESTS, VMEM_LINES, VMEM_REQUESTS,
                               WORKGROUPS_DISPATCHED, MetricClass)
from repro.timing.predecode import UNIT_SIMD, predecode_kernel
from repro.timing.registerfile import unique_counts
from repro.timing.replay import (_F_BARRIER, _F_ENDS, _F_MEM_SHIFT, _F_TAKEN,
                                 _F_TARGET, _MEM_INDEX, _MEM_KINDS)


def trace_determined(stats):
    """The trace-class part of a StatSet, as comparable plain data: every
    counter the metric registry declares ``trace``, and the accumulators
    (instruction mix, reuse distance, uniqueness probes, SIMD
    utilisation), which only the trace's fold writes."""
    payload = stats.to_payload()
    payload["counters"] = {name: value
                           for name, value in payload["counters"].items()
                           if METRICS.find(name).metric_class
                           is MetricClass.TRACE}
    return payload


def record(stream, pc, result, probed, read_uniques, write_uniques):
    """Append one issued instruction's functional outcome (an
    ``ExecResult``) to ``stream``; a probed one also appends its EXEC
    popcount and, with lanes active, one unique count per read and per
    write slot."""
    flags = _MEM_INDEX[result.mem_kind] << _F_MEM_SHIFT
    if result.branch_taken:
        flags |= _F_TAKEN
        if result.next_pc is not None:
            flags |= _F_TARGET
            stream.targets.append(result.next_pc)
    if result.ends_wavefront:
        flags |= _F_ENDS
    if result.is_barrier:
        flags |= _F_BARRIER
    stream.code.append(pc)
    stream.flags.append(flags)
    stream.active.append(result.active_lanes)
    if flags >> _F_MEM_SHIFT:
        stream.mem_counts.append(len(result.mem_lines))
        stream.mem_lines.extend(result.mem_lines)
    if probed:
        stream.probe_active.append(result.active_lanes)
        if result.active_lanes:
            stream.probe_read.extend(read_uniques or ())
            stream.probe_write.extend(write_uniques or ())


def record_reuse(stats, tracker, instr_counter, slots):
    """Update a wavefront's slot -> last-access map and the distribution."""
    for slot in slots:
        last = tracker.get(slot)
        if last is not None:
            stats.reuse_distance.add(instr_counter - last)
        tracker[slot] = instr_counter


def walk_stream(stream, kernel, stats=None):
    """Accumulate one recorded wavefront stream's statistics per issue."""
    stats = StatSet() if stats is None else stats
    descs = predecode_kernel(kernel)
    tracker = {}
    counter = 0
    probe = pread = pwrite = access = 0
    for pc in stream.code:
        if pc < 0:
            stats.bump(IB_FLUSHES)  # a reconvergence jump, not an instruction
            continue
        desc = descs[pc]
        counter += 1
        stats.record_instruction(desc.category)
        record_reuse(stats, tracker, counter, desc.rw_slots)
        flags = stream.flags[counter - 1]
        if flags & _F_TARGET:
            stats.bump(IB_FLUSHES)
        kind = _MEM_KINDS[flags >> _F_MEM_SHIFT]
        if kind == MemKind.SCALAR_LOAD:
            stats.bump(SMEM_REQUESTS)
        elif kind == MemKind.LDS_ACCESS:
            stats.bump(LDS_ACCESSES)
        elif kind != MemKind.NONE:
            stats.bump(VMEM_REQUESTS)
            stats.bump(VMEM_LINES, max(stream.mem_counts[access], 1))
        if kind != MemKind.NONE:
            access += 1
        if (counter & 3) == 0 and (desc.read_slots or desc.write_slots):
            active = stream.probe_active[probe]
            probe += 1
            if active:
                for _slot in desc.read_slots:
                    stats.read_uniqueness.add(stream.probe_read[pread], active)
                    pread += 1
                for _slot in desc.write_slots:
                    stats.write_uniqueness.add(stream.probe_write[pwrite],
                                               active)
                    pwrite += 1
        if desc.unit == UNIT_SIMD:
            stats.simd_utilization.add(stream.active[counter - 1], 64)
    assert (probe, pread, pwrite) == (len(stream.probe_active),
                                      len(stream.probe_read),
                                      len(stream.probe_write))
    return stats


def walk_trace(trace, kernel, wavefronts_per_wg):
    """Every wavefront of a single-kernel trace whose workgroups hold
    ``wavefronts_per_wg`` wavefronts each, accumulated into one
    StatSet."""
    stats = StatSet()
    streams = trace.streams
    for first in range(0, len(streams), wavefronts_per_wg):
        group = streams[first:first + wavefronts_per_wg]
        for stream in group:
            walk_stream(stream, kernel, stats)
        stats.bump(WORKGROUPS_DISPATCHED)
        releases = max(sum(1 for flags in stream.flags if flags & _F_BARRIER)
                       for stream in group)
        if releases:
            stats.bump(BARRIERS, releases)
    return stats


def step_wavefront(state, executor):
    """Run the instruction at the pc of one-row ``state`` (an
    ``HsailWavefronts``/``Gcn3Wavefronts`` of one context) as the group
    ``Group(state, [0], pc)`` and move its pc on the way the functional
    pass moves a group's.  Returns the step's outcome as that
    wavefront's own: its line list, its branch flag, ``next_pc`` only
    when taken, and ``active_lanes``, the lanes on before the step."""
    pc = state.pcs[0]
    g = Group(state, [0], pc)
    own = ExecResult(active_lanes=g.active[0])
    result = state.steps(state.kernel)[pc](g, executor)
    if result is not None:
        taken = result.branch_taken
        own.branch_taken = taken[0] if isinstance(taken, list) else taken
        own.next_pc = result.next_pc if own.branch_taken else None
        own.mem_kind = result.mem_kind
        own.mem_lines = result.mem_lines[0] if result.mem_lines else []
        own.ends_wavefront = state.ended[0] = result.ends_wavefront
        own.is_barrier = result.is_barrier
        own.waitcnt = result.waitcnt
    state.pcs[0] = pc + 1 if own.next_pc is None else own.next_pc
    return own


def run_dispatch_reference(process, dispatch, recorder=None):
    """Run one dispatch functionally, one wavefront and one instruction
    at a time; returns the dynamic instruction count.

    The order is funcsim's canonical one: workgroups in dispatch order,
    and within one the wavefronts take turns in index order, each
    running to its next barrier or its end.
    """
    kernel = dispatch.kernel
    descs = predecode_kernel(kernel)
    state_cls = Gcn3Wavefronts if dispatch.is_gcn3 else HsailWavefronts
    executed = 0
    for wg in range(dispatch.num_workgroups):
        lds = np.zeros(max(kernel.group_bytes, 4), dtype=np.uint8)
        executor = Executor(process.memory, lds)
        wg_id = dispatch.workgroup_id(wg)
        live = []
        for wf_index in range(dispatch.wavefronts_in_wg(wg)):
            state = state_cls(kernel, [dispatch.make_context(
                wg_id, wf_index, lds_base_offset=0)])
            live.append((state, None if recorder is None
                         else recorder.stream(len(recorder.streams))))
        while live:
            for state, stream in live:
                executed += _reference_wavefront(executor, state, stream,
                                                 descs)
            live = [(state, stream) for state, stream in live
                    if not state.ended[0]]
    dispatch.signal.decrement()
    return executed


def _reference_wavefront(executor, state, stream, descs):
    """``state``'s wavefront up to its next barrier or its end; one
    record per instruction, a probe on every fourth one that touches VRF
    slots."""
    regs = state.views[U32][:, 0]
    executed = 0
    while True:
        if not state.is_gcn3:
            new_pc = state.reconverge(0)
            if new_pc is not None and stream is not None:
                stream.jump(new_pc)
        pc = state.pcs[0]
        desc = descs[pc]
        probed = (stream is not None and (len(stream.flags) + 1) % 4 == 0
                  and bool(desc.rw_slots))
        if probed:
            mask = state.exec[0].copy()
            lanes = int(mask.sum())
            read_uniques = unique_counts(regs, desc.read_slots, mask, lanes)
        result = step_wavefront(state, executor)
        executed += 1
        if stream is not None:
            record(stream, pc, result, probed,
                   read_uniques if probed else None,
                   unique_counts(regs, desc.write_slots, mask, lanes)
                   if probed else None)
        if result.is_barrier or result.ends_wavefront:
            return executed
