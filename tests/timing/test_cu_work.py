"""Work ceilings for the CU replay loop.

Statistics are pinned elsewhere (``tests/golden/cell_digests.json``);
this file pins how much host-side work the cycle model spends getting
them.  Counters are patched onto the tier-1 matrix (every workload x
ISA at ``small_config(2)``, scale 0.1, seed 7) per ISA:

* ``cycle``         — ``ComputeUnit.cycle`` entries (visited CU-cycles);
* ``try_issue``     — ``ComputeUnit._try_issue`` calls;
* ``fetches``       — instruction fetches (``MemorySystem.ifetch``);
* ``events``        — event-queue entries popped (fetch, VMEM, LGKM
  and LDS completions);
* ``idle_advances`` — dispatcher jumps over cycles where nothing issued
  (each consults ``EventQueue.next_event_cycle`` once).

Beside the ceilings, the trace decode is counted: a stream shape
(``timing/vector.py`` ``StreamShape``) is built once per distinct
(kernel, code, flags, targets) of a run's trace, not once per wavefront.

The committed numbers are ceilings: a change that re-adds work fails
here even when every statistic still matches, and a change that removes
work should lower them.  Visit counts describe the model's cost, never
its results.
"""

import heapq

import pytest

from repro.common import events as events_module
from repro.common.config import small_config
from repro.common.events import EventQueue
from repro.harness.runner import ISAS, run_workload
from repro.timing.caches import MemorySystem
from repro.timing import gpu as gpu_module
from repro.timing.cu import ComputeUnit
from repro.timing.vector import StreamShape
from repro.workloads import all_workloads

#: Per ISA, the counts measured when the ceilings were last lowered.
CEILINGS = {
    "hsail": {"cycle": 21328, "try_issue": 11689, "fetches": 3912,
              "events": 4781, "idle_advances": 11872},
    "gcn3": {"cycle": 21578, "try_issue": 12115, "fetches": 4326,
             "events": 5417, "idle_advances": 8732},
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


@pytest.fixture(scope="module")
def work():
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
            _count(patch, counts, EventQueue, "next_event_cycle",
                   "idle_advances")
            _count(patch, counts, StreamShape, "__init__", "shapes")
            patch.setattr(gpu_module, "wf_decode", keyed)
            patch.setattr(events_module, "heapq", _CountingHeapq(counts))
            for workload in all_workloads():
                # One trace per run: its shape memo starts empty.
                keys.clear()
                run_workload(workload.name, isa, scale=0.1, seed=7,
                             config=small_config(2))
                counts["shape_keys"] += len(keys)
        measured[isa] = counts
    return measured


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
