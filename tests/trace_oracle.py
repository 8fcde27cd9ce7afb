"""The oracle behind the trace-fold tests: the per-issue accumulation the
CU model performed before the statistics a trace determines moved into
``repro.timing.vector.FoldArtifact``.

One wavefront stream is walked record by record, exactly as the issue
path used to visit it: a category count per instruction, a slot ->
last-counter map emitting reuse distances, the one-in-four uniqueness
probe outcomes read back from the probe side streams, and one SIMD
utilisation sample per VALU issue.  Nothing here shares code with the
fold's array reductions, so agreement is evidence, not tautology.
"""

from repro.common.stats import StatSet
from repro.timing.predecode import UNIT_SIMD, predecode_kernel

#: StatSet payload entries fed by the fold (``counters`` contributes
#: ``dynamic_instructions`` only); everything else is timing-mediated.
FOLD_FED = ("by_category", "reuse_distance", "read_uniqueness",
            "write_uniqueness", "simd_utilization")


def trace_determined(stats):
    """The fold-fed part of a StatSet, as comparable plain data."""
    payload = stats.to_payload()
    picked = {key: payload[key] for key in FOLD_FED}
    picked["dynamic_instructions"] = stats.dynamic_instructions
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
            continue  # a reconvergence jump, not an instruction
        desc = descs[pc]
        counter += 1
        stats.record_instruction(desc.category)
        record_reuse(stats, tracker, counter, desc.rw_slots)
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
