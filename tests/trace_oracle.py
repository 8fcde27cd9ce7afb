"""The oracles behind the trace tests.

* :func:`walk_stream` is the per-issue accumulation the CU model
  performed before the statistics a trace determines moved into
  ``repro.timing.vector.FoldArtifact``.  One wavefront stream is walked
  record by record, exactly as the issue path used to visit it: a
  category count per instruction, a slot -> last-counter map emitting
  reuse distances, the one-in-four uniqueness probe outcomes read back
  from the probe side streams, one SIMD utilisation sample per VALU
  issue, and one IB flush per reconvergence jump or taken branch with a
  target.  Nothing here shares code with the fold's array reductions,
  so agreement is evidence, not tautology.
* :func:`run_dispatch_reference` is the functional pass as it ran
  before the per-pc step table: every instruction goes through the
  public ``execute()``, is recorded with ``WfStream.record`` and has its
  probes counted one slot at a time with ``unique_counts``.  It must
  write the same trace bytes as ``repro.timing.funcsim``.
"""

import numpy as np

from repro.common.stats import StatSet
from repro.gcn3.semantics import Gcn3Executor, Gcn3WfState
from repro.hsail.semantics import HsailExecutor, HsailWfState
from repro.obs.metrics import IB_FLUSHES
from repro.timing.predecode import UNIT_SIMD, predecode_kernel
from repro.timing.registerfile import unique_counts
from repro.timing.replay import _F_TARGET

#: StatSet payload entries fed by the fold (``counters`` contributes
#: ``dynamic_instructions`` and ``ib_flushes`` only); everything else is
#: timing-mediated.
FOLD_FED = ("by_category", "reuse_distance", "read_uniqueness",
            "write_uniqueness", "simd_utilization")


def trace_determined(stats):
    """The fold-fed part of a StatSet, as comparable plain data."""
    payload = stats.to_payload()
    picked = {key: payload[key] for key in FOLD_FED}
    picked["dynamic_instructions"] = stats.dynamic_instructions
    picked["ib_flushes"] = stats["ib_flushes"]
    return picked


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
    probe = pread = pwrite = 0
    for pc in stream.code:
        if pc < 0:
            stats.bump(IB_FLUSHES)  # a reconvergence jump, not an instruction
            continue
        desc = descs[pc]
        counter += 1
        stats.record_instruction(desc.category)
        record_reuse(stats, tracker, counter, desc.rw_slots)
        if stream.flags[counter - 1] & _F_TARGET:
            stats.bump(IB_FLUSHES)
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


def walk_trace(trace, kernel):
    """Every wavefront of a single-kernel trace, accumulated into one
    StatSet."""
    stats = StatSet()
    for stream in trace.streams:
        walk_stream(stream, kernel, stats)
    return stats


def run_dispatch_reference(process, dispatch, recorder=None):
    """Run one dispatch functionally, one ``execute()`` per instruction;
    returns the dynamic instruction count.

    The order is funcsim's canonical one: workgroups in dispatch order,
    and within one the wavefronts take turns in index order, each
    running to its next barrier or its end.
    """
    kernel = dispatch.kernel
    descs = predecode_kernel(kernel)
    executor_cls, state_cls = ((Gcn3Executor, Gcn3WfState) if dispatch.is_gcn3
                               else (HsailExecutor, HsailWfState))
    executed = 0
    for wg in range(dispatch.num_workgroups):
        lds = np.zeros(max(kernel.group_bytes, 4), dtype=np.uint8)
        executor = executor_cls(process.memory, lds)
        wg_id = dispatch.workgroup_id(wg)
        live = []
        for wf_index in range(dispatch.wavefronts_in_wg(wg)):
            wf = state_cls(kernel, dispatch.make_context(wg_id, wf_index,
                                                         lds_base_offset=0))
            live.append((wf, None if recorder is None
                         else recorder.stream(len(recorder.streams))))
        while live:
            for wf, stream in live:
                executed += _reference_wavefront(executor, wf, stream, descs)
            live = [(wf, stream) for wf, stream in live if not wf.done]
    dispatch.signal.decrement()
    return executed


def _reference_wavefront(executor, wf, stream, descs):
    """``wf`` up to its next barrier or its end; one record per
    instruction, a probe on every fourth one that touches VRF slots."""
    regs = wf.vgpr if wf.is_gcn3 else wf.regs
    executed = 0
    while True:
        if not wf.is_gcn3:
            new_pc = executor.check_reconvergence(wf)
            if new_pc is not None and stream is not None:
                stream.jump(new_pc)
        pc = wf.pc
        desc = descs[pc]
        probed = (stream is not None and (len(stream.flags) + 1) % 4 == 0
                  and bool(desc.rw_slots))
        if probed:
            mask = wf.exec_bool()
            lanes = int(mask.sum())
            read_uniques = unique_counts(regs, desc.read_slots, mask, lanes)
        result = executor.execute(wf)
        executed += 1
        if stream is not None:
            stream.record(pc, result, probed,
                          read_uniques if probed else None,
                          unique_counts(regs, desc.write_slots, mask, lanes)
                          if probed else None)
        if result.is_barrier or result.ends_wavefront:
            return executed
