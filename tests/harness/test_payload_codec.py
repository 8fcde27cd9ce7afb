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


@pytest.mark.parametrize("buckets", [{"3": 0}, {"3": -1}, {"3": 1, "03": 1}])
def test_malformed_buckets_fail_closed(buckets):
    with pytest.raises(ValueError):
        Distribution.from_payload(buckets)


def test_unknown_category_fails_closed():
    with pytest.raises((KeyError, ValueError)):
        StatSet.from_payload({"by_category": {"warp": 1}})
