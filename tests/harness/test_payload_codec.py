"""The run-payload codec is a byte contract.

``WorkloadRun.to_payload`` is what a dist worker reports, what the
coordinator journals and what the result cache and ``repro serve``
store, so a faster codec must write the same bytes.
``tests/golden/payload_digests.json`` pins, for every workload x ISA
cell at ``small_config(2)``, scale 0.25, seed 7, the sha256 of
``json.dumps(run.to_payload(), sort_keys=True)`` with ``wall_seconds``
set to a fixed value (the one nondeterministic field).  The digests were
written by the codec that built an ``InstrCategory`` per key and one
``Distribution.add`` per bucket.

Regenerating (only after an intentional model change)::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/harness/test_payload_codec.py -q
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.common.categories import InstrCategory
from repro.common.config import small_config
from repro.common.stats import Distribution, StatSet
from repro.harness.runner import ISAS, WorkloadRun, run_workload
from repro.workloads import all_workloads

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "golden" / "payload_digests.json")
SCALE = 0.25
SEED = 7
WALL_SECONDS = 0.125
CELLS = [(w.name, isa) for w in all_workloads() for isa in ISAS]


def _text(run: WorkloadRun) -> str:
    return json.dumps(run.to_payload(), sort_keys=True)


@pytest.fixture(scope="module")
def texts():
    out = {}
    for workload, isa in CELLS:
        run = run_workload(workload, isa, scale=SCALE, seed=SEED,
                           config=small_config(2))
        run.wall_seconds = WALL_SECONDS
        out[f"{workload}/{isa}"] = _text(run)
    return out


@pytest.fixture(scope="module")
def golden(texts):
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(
            {"scale": SCALE, "seed": SEED, "wall_seconds": WALL_SECONDS,
             "cells": {key: hashlib.sha256(text.encode()).hexdigest()
                       for key, text in texts.items()}},
            indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", [f"{w}/{isa}" for w, isa in CELLS])
def test_payload_bytes_are_pinned(texts, golden, cell):
    assert len(golden["cells"]) == len(CELLS)
    digest = hashlib.sha256(texts[cell].encode()).hexdigest()
    assert digest == golden["cells"][cell]


@pytest.mark.parametrize("cell", [f"{w}/{isa}" for w, isa in CELLS])
def test_from_payload_round_trips(texts, cell):
    run = WorkloadRun.from_payload(json.loads(texts[cell]))
    assert _text(run) == texts[cell]
    # Decoded accumulators behave as if every sample had been added.
    for stats in [run.total] + run.per_dispatch:
        rebuilt = Distribution()
        for value, count in stats.reuse_distance._buckets.items():
            rebuilt.add(value, count)
        assert (stats.reuse_distance.count, stats.reuse_distance.total,
                stats.reuse_distance.median) == (
            rebuilt.count, rebuilt.total, rebuilt.median)
        assert all(isinstance(cat.value, str)
                   for cat in stats.instructions_by_category)


@pytest.mark.parametrize("cell", [f"{w}/{isa}" for w, isa in CELLS])
def test_copy_writes_the_same_bytes(texts, cell):
    run = WorkloadRun.from_payload(json.loads(texts[cell]))
    assert _text(run.copy()) == texts[cell]


def test_copy_shares_nothing_mutable(texts):
    run = WorkloadRun.from_payload(json.loads(texts["lulesh/gcn3"]))
    copy = run.copy(wall_seconds=1.0, execution="derived")
    assert (copy.wall_seconds, copy.execution) == (1.0, "derived")
    for stats in [copy.total] + copy.per_dispatch:
        stats.bump("cycles", 3)
        stats.bump("brand_new_counter")
        stats.record_instruction(InstrCategory.VMEM, 2)
        stats.reuse_distance.add(7, 5)
        stats.reuse_distance.add(123456)
        for probe in (stats.read_uniqueness, stats.write_uniqueness,
                      stats.simd_utilization):
            probe.add(1, 2)
    copy.per_dispatch[0].merge(copy.total)
    copy.per_dispatch.append(StatSet())
    copy.dispatch_kernel_names.append("bogus")
    copy.dispatch_kernel_names[0] = "renamed"
    copy.kernel_code_bytes["bogus"] = 1
    copy.kernel_code_bytes[next(iter(run.kernel_code_bytes))] += 1
    assert _text(run) == texts["lulesh/gcn3"]


@pytest.mark.parametrize("buckets", [{"3": 0}, {"3": -1}, {"3": 1, "03": 1}])
def test_malformed_buckets_fail_closed(buckets):
    with pytest.raises(ValueError):
        Distribution.from_payload(buckets)


def test_unknown_category_fails_closed():
    with pytest.raises((KeyError, ValueError)):
        StatSet.from_payload({"by_category": {"warp": 1}})
