"""Work ceilings for the CU replay loop.

Statistics are pinned elsewhere (``tests/golden/cell_digests.json``);
this file pins how much host-side work the cycle model spends getting
them.  Counters are patched onto the tier-1 matrix (every workload x
ISA at ``small_config(2)``, scale 0.1, seed 7) per ISA:

* ``cycle``            — ``ComputeUnit.cycle`` entries (visited CU-cycles);
* ``try_issue``        — ``ComputeUnit._try_issue`` calls;
* ``fetches``          — instruction fetches (``MemorySystem.ifetch``);
* ``events``           — event-queue entries popped (fetch, VMEM, LGKM
  and LDS completions);
* ``dispatcher_steps`` — dispatcher loop iterations that move the clock
  (``EventQueue.advance`` calls outside ``advance_to``: each jumps to
  the earliest CU wake or pending event);
* ``calls_per_issue``  — Python-level calls (``call`` and ``c_call``
  profile events) inside ``Gpu._loop_scan`` per dynamic instruction,
  counted in a second pass with none of the patches above in place.
  numpy's own Python frames count too (about 0.17 per instruction), so
  the ceiling holds for one interpreter and numpy (pinned under CPython
  3.11 and numpy 2.4).

Beside the ceilings, the trace decode is counted: a stream shape
(``timing/vector.py`` ``StreamShape``) is built once per distinct
(kernel, code, flags, targets) of a run's trace, not once per wavefront.
And tracing only observes: a run with every trace category on makes
exactly the ``cycle`` entries and dispatcher steps of the untraced run,
cell by cell.

The committed numbers are ceilings: a change that re-adds work fails
here even when every statistic still matches, and a change that removes
work should lower them.  Visit counts describe the model's cost, never
its results.

``python tests/timing/test_cu_work.py`` (repo root, ``PYTHONPATH=src``)
prints ``calls_per_issue``, ``cycle`` and ``dispatcher_steps`` per ISA
as a Markdown table (CI writes it to the step summary).
"""

import gc
import heapq
import sys

import pytest

from repro.common import events as events_module
from repro.common.config import small_config
from repro.common.events import EventQueue
from repro.harness.runner import ISAS, run_workload
from repro.obs.trace import TraceConfig
from repro.timing.caches import MemorySystem
from repro.timing import gpu as gpu_module
from repro.timing.cu import ComputeUnit
from repro.timing.vector import StreamShape
from repro.workloads import all_workloads

#: Per ISA, the counts measured when the ceilings were last lowered.
CEILINGS = {
    "hsail": {"cycle": 15912, "try_issue": 11654, "fetches": 3912,
              "events": 4781, "dispatcher_steps": 15928,
              "calls_per_issue": 25.54},
    "gcn3": {"cycle": 16183, "try_issue": 12091, "fetches": 4326,
             "events": 5417, "dispatcher_steps": 16207,
             "calls_per_issue": 15.55},
}


class _CountingHeapq:
    """``heapq`` as the event queue module sees it, counting pops."""

    def __init__(self, counts):
        self.counts = counts
        self.heappush = heapq.heappush

    def heappop(self, heap):
        self.counts["events"] += 1
        return heapq.heappop(heap)


def _count(patch, counts, owner, name, key):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    patch.setattr(owner, name, counted)


def _count_steps(patch, counts):
    """Count ``EventQueue.advance`` calls made by the dispatcher, not
    those ``advance_to`` makes (the per-dispatch launch latency)."""
    advance, advance_to = EventQueue.advance, EventQueue.advance_to
    depth = [0]

    def counted_advance(self, limit):
        if not depth[0]:
            counts["dispatcher_steps"] += 1
        return advance(self, limit)

    def nested_advance_to(self, cycle):
        depth[0] += 1
        try:
            return advance_to(self, cycle)
        finally:
            depth[0] -= 1

    patch.setattr(EventQueue, "advance", counted_advance)
    patch.setattr(EventQueue, "advance_to", nested_advance_to)


def _run_matrix(isa):
    """Run the tier-1 matrix under ``isa``; the total dynamic
    instructions."""
    return sum(run_workload(workload.name, isa, scale=0.1, seed=7,
                            config=small_config(2)).dynamic_instructions
               for workload in all_workloads())


def _calls_per_issue(isa):
    """Profile events of the dispatcher loop per dynamic instruction."""
    calls = [0]
    loop = gpu_module.Gpu._loop_scan

    def counter(_frame, event, _arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    def profiled(self, *args):
        # No collection inside the loop: finalizers of garbage left by
        # earlier work would count as calls of this one.
        gc.collect()
        gc.disable()
        sys.setprofile(counter)
        try:
            return loop(self, *args)
        finally:
            sys.setprofile(None)
            gc.enable()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpu_module.Gpu, "_loop_scan", profiled)
        instructions = _run_matrix(isa)
    return round(calls[0] / instructions, 2)


def measure():
    """Every counter of :data:`CEILINGS` per ISA, plus the shape counts."""
    measured = {}
    for isa in ISAS:
        counts = dict.fromkeys(CEILINGS[isa], 0)
        counts.update(shapes=0, shape_keys=0, wavefronts=0)
        keys = set()
        decode = gpu_module.wf_decode

        def keyed(trace, wf_id, kernel, records=True):
            stream = trace.streams[wf_id]
            keys.add((id(kernel), stream.code.tobytes(),
                      stream.flags.tobytes(), stream.targets.tobytes()))
            counts["wavefronts"] += 1
            return decode(trace, wf_id, kernel, records)

        with pytest.MonkeyPatch.context() as patch:
            _count(patch, counts, ComputeUnit, "cycle", "cycle")
            _count(patch, counts, ComputeUnit, "_try_issue", "try_issue")
            _count(patch, counts, MemorySystem, "ifetch", "fetches")
            _count(patch, counts, StreamShape, "__init__", "shapes")
            _count_steps(patch, counts)
            patch.setattr(gpu_module, "wf_decode", keyed)
            patch.setattr(events_module, "heapq", _CountingHeapq(counts))
            for workload in all_workloads():
                # One trace per run: its shape memo starts empty.
                keys.clear()
                run_workload(workload.name, isa, scale=0.1, seed=7,
                             config=small_config(2))
                counts["shape_keys"] += len(keys)
        counts["calls_per_issue"] = _calls_per_issue(isa)
        measured[isa] = counts
    return measured


def _scheduling_steps(workload, isa, trace):
    """``cycle`` entries and dispatcher steps of one tier-1 cell."""
    counts = {"cycle": 0, "dispatcher_steps": 0}
    with pytest.MonkeyPatch.context() as patch:
        _count(patch, counts, ComputeUnit, "cycle", "cycle")
        _count_steps(patch, counts)
        run_workload(workload, isa, scale=0.1, seed=7, config=small_config(2),
                     trace=trace)
    return counts


@pytest.fixture(scope="module")
def work():
    return measure()


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("counter", sorted(CEILINGS["gcn3"]))
def test_work_within_ceiling(work, isa, counter):
    got = work[isa][counter]
    assert got > 0, f"{counter} was never counted: a patch point moved"
    assert got <= CEILINGS[isa][counter], (
        f"{isa} {counter}: {got} > ceiling {CEILINGS[isa][counter]}")


@pytest.mark.parametrize("isa", ISAS)
def test_one_shape_per_distinct_stream(work, isa):
    """Folding and decoding are paid per distinct recorded stream: the
    shapes built equal the distinct (kernel, code, flags, targets) keys,
    and lockstep wavefronts make those fewer than the wavefronts."""
    counts = work[isa]
    assert counts["shapes"] == counts["shape_keys"]
    assert 0 < counts["shapes"] < counts["wavefronts"]


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
@pytest.mark.parametrize("isa", ISAS)
def test_tracing_takes_the_untraced_steps(workload, isa):
    """A trace bus only observes: with every category on, the CUs are
    cycled and the clock is stepped exactly as without one."""
    assert (_scheduling_steps(workload, isa, TraceConfig())
            == _scheduling_steps(workload, isa, None))


if __name__ == "__main__":
    measured = measure()
    names = ("calls_per_issue", "cycle", "dispatcher_steps")
    print("| CU work (tier-1 matrix) | " + " | ".join(names) + " |")
    print("|---|" + "---:|" * len(names))
    for isa in ISAS:
        print(f"| {isa} | " + " | ".join(
            f"{measured[isa][name]} (ceiling {CEILINGS[isa][name]})"
            for name in names) + " |")
