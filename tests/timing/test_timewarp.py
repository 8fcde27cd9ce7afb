"""Frozen-oracle identity suite for the cycle model.

``tests/golden/cell_digests.json`` pins, for every workload x ISA cell
of the tier-1 suite at ``small_config(2)``, scale 0.1, seed 7:

* the sha256 of the execute-mode statistics payload and the cycle count;
* the sha256 of the captured trace blob;
* for two traced cells, the sha256 of the rendered stall / occupancy /
  cache report (``obs.text_report``).

Every execution mode (execute, trace capture, trace replay) must
reproduce those digests bit for bit, so a change to the functional
pass, the dispatcher, the CU issue loop, or the recorder is checked
against a committed oracle instead of against a sibling implementation
that would have to ship forever.  The file was generated while the CU
still executed semantics at issue (and before the time-warp engine was
removed, whose warp-vs-scan matrix it took over, which is why the
module keeps its path: the test ids are pinned by the tier-1 floor); the
trace-first model reproduces it unregenerated.

Regenerating after an *intentional* model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/timing/test_timewarp.py -q

then commit the updated digest file and explain the movement in the PR.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.common.config import small_config
from repro.harness.cache import TraceStore, trace_fingerprint
from repro.harness.runner import ISAS, run_workload
from repro.obs import text_report
from repro.obs.trace import TraceConfig
from repro.runtime.process import GpuProcess
from repro.timing.funcsim import run_dispatch_functional
from repro.timing.replay import TraceRecorder
from repro.workloads import all_workloads, create
from tests.trace_oracle import run_dispatch_reference

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "golden" / "cell_digests.json")

NUM_CUS = 2
SCALE = 0.1
SEED = 7

#: every tier-1 cell — the full 20-cell matrix, not a sample.
CELLS = [(w.name, isa) for w in all_workloads() for isa in ISAS]

#: cells with enough waitcnt / scoreboard traffic to make the stall
#: report interesting without running the whole matrix through the
#: (slow) fully-instrumented path.
TRACED_CELLS = [("fft", "gcn3"), ("comd", "hsail")]


def _sha(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _stats_sha(run) -> str:
    """Digest of everything statistical about a run (wall clock, trace
    and execution mode excluded, so all three modes share one digest)."""
    payload = run.to_payload()
    payload.pop("wall_seconds")
    payload.pop("trace", None)
    payload.pop("execution", None)
    return _sha(payload)


def _run(workload, isa, **kw):
    run = run_workload(workload, isa, scale=SCALE, seed=SEED,
                       config=small_config(NUM_CUS), **kw)
    assert run.verified, f"{workload}/{isa} unverified"
    return run


def _blob_sha(store, workload, isa) -> str:
    blob = store.read_blob(trace_fingerprint(small_config(NUM_CUS), workload,
                                             isa, SCALE, SEED))
    assert blob, f"{workload}/{isa} capture stored no trace blob"
    return hashlib.sha256(blob).hexdigest()


def _report_sha(run) -> str:
    report = text_report(run.trace, stats=run.total,
                         title=f"{run.workload}/{run.isa}")
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def _measure(directory) -> dict:
    """The digest manifest, measured from scratch (regeneration path)."""
    store = TraceStore(directory)
    cells = {}
    for workload, isa in CELLS:
        run = _run(workload, isa)
        _run(workload, isa, execution="capture", trace_store=store)
        cells[f"{workload}/{isa}"] = {
            "cycles": run.cycles,
            "stats_sha256": _stats_sha(run),
            "trace_sha256": _blob_sha(store, workload, isa),
        }
    return {
        "num_cus": NUM_CUS,
        "scale": SCALE,
        "seed": SEED,
        "cells": cells,
        "reports": {
            f"{w}/{isa}": _report_sha(_run(w, isa, trace=TraceConfig()))
            for w, isa in TRACED_CELLS
        },
    }


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        manifest = _measure(tmp_path_factory.mktemp("digest-regen"))
        GOLDEN_PATH.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing - regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    manifest = json.loads(GOLDEN_PATH.read_text())
    assert (manifest["num_cus"], manifest["scale"], manifest["seed"]) == (
        NUM_CUS, SCALE, SEED)
    assert sorted(manifest["cells"]) == sorted(f"{w}/{i}" for w, i in CELLS)
    return manifest


# ---------------------------------------------------------------------------
# Full-matrix identity: execute, capture, replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload,isa", CELLS)
def test_execute_identity(golden, workload, isa):
    run = _run(workload, isa)
    cell = golden["cells"][f"{workload}/{isa}"]
    assert run.cycles == cell["cycles"]
    assert _stats_sha(run) == cell["stats_sha256"]


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """Capture every cell once; returns (store, {cell: run}) so the
    capture-, replay- and functional-identity tests share the simulation
    work."""
    store = TraceStore(tmp_path_factory.mktemp("digest-capture"))
    runs = {
        (workload, isa): _run(workload, isa, execution="capture",
                              trace_store=store)
        for workload, isa in CELLS
    }
    return store, runs


@pytest.mark.parametrize("workload,isa", CELLS)
def test_capture_identity(golden, captured, workload, isa):
    """Recording must not perturb the statistics it rides along with."""
    _, runs = captured
    assert (_stats_sha(runs[(workload, isa)])
            == golden["cells"][f"{workload}/{isa}"]["stats_sha256"])


def test_capture_blobs_hash_identical(golden, captured):
    """The stored trace bytes — not just the statistics — are pinned: a
    trace captured by this tree is interchangeable with the oracle's."""
    store, _ = captured
    for workload, isa in CELLS:
        assert (_blob_sha(store, workload, isa)
                == golden["cells"][f"{workload}/{isa}"]["trace_sha256"]), (
            f"{workload}/{isa} trace blob drifted")


@pytest.mark.parametrize("workload,isa", CELLS)
def test_replay_identity(golden, captured, workload, isa):
    store, _ = captured
    run = _run(workload, isa, execution="replay", trace_store=store)
    cell = golden["cells"][f"{workload}/{isa}"]
    assert run.execution == "replay"
    assert run.cycles == cell["cycles"]
    assert _stats_sha(run) == cell["stats_sha256"]


# ---------------------------------------------------------------------------
# The functional pass alone: a trace needs no GPU
# ---------------------------------------------------------------------------


#: The functional pass itself (``block``, the id of the superop chains it
#: once ran) and the one-``execute()``-per-instruction reference driver
#: of ``tests/trace_oracle.py`` (``raw``, the interpreter it replaces).
FUNCTIONAL_PASSES = {"block": run_dispatch_functional,
                     "raw": run_dispatch_reference}


@pytest.mark.parametrize("semantics", ["block", "raw"])
@pytest.mark.parametrize("workload,isa", CELLS)
def test_functional_capture_identity(golden, captured, workload, isa,
                                     semantics):
    """``run_dispatch_functional`` + ``TraceRecorder`` — no CU, no
    caches, no clock — and the reference driver both write the pinned
    trace bytes, and execute each dynamic instruction the timing model
    then counts exactly once."""
    run_functional = FUNCTIONAL_PASSES[semantics]
    store, runs = captured
    stored = store.get(trace_fingerprint(small_config(NUM_CUS), workload,
                                         isa, SCALE, SEED))
    process = GpuProcess(isa, memory_capacity=1 << 25)
    create(workload, scale=SCALE, seed=SEED).stage(process, isa)
    recorder = TraceRecorder()
    executed = sum(run_functional(process, dispatch, recorder=recorder)
                   for dispatch in process.dispatches)
    # The header is metadata about the cell, not about how it ran.
    trace = recorder.finish(stored.meta)
    assert (hashlib.sha256(trace.to_bytes()).hexdigest()
            == golden["cells"][f"{workload}/{isa}"]["trace_sha256"])
    assert (executed == trace.dynamic_instructions
            == runs[(workload, isa)].dynamic_instructions)


# ---------------------------------------------------------------------------
# Observability: traced runs and their stall/occupancy report
# ---------------------------------------------------------------------------


#: sha256 of the full event stream (``TraceData.to_payload()``: every
#: event with its timestamp and arguments, the stall accounting) of each
#: traced cell.  The text report only shows per-category counts; these
#: pin the order and content of every cache, VRF, stall and issue event.
EVENT_STREAM_SHA256 = {
    "fft/gcn3":
        "0f86df91db01178f3bdde4ef48c33ada8a791777b569065da81cdbf77d841a80",
    "comd/hsail":
        "ef2856837e336c565e4b2d92930c4bfada1df2e4ed5f271b51a946df1b34beab",
}


@pytest.fixture(scope="module")
def traced():
    """Each traced cell run once with every category, unsampled."""
    return {cell: _run(*cell, trace=TraceConfig(sample_every=1))
            for cell in TRACED_CELLS}


@pytest.mark.parametrize("workload,isa", TRACED_CELLS)
def test_traced_report_identity(golden, traced, workload, isa):
    """Tracing must not move a statistic, and the rendered stall-reason
    / occupancy / cache report — the user-facing observability surface —
    must be character-identical."""
    run = traced[(workload, isa)]
    key = f"{workload}/{isa}"
    assert _stats_sha(run) == golden["cells"][key]["stats_sha256"]
    assert _report_sha(run) == golden["reports"][key]
    assert _sha(run.trace.to_payload()) == EVENT_STREAM_SHA256[key]


@pytest.mark.parametrize("workload,isa", TRACED_CELLS)
def test_stall_intervals_are_charged_once(traced, workload, isa):
    """Each blocked interval is one ``stall`` event whose ``dur`` is its
    cycles: per reason the durations sum to the exact account, and a
    wavefront's intervals never overlap each other or its issue cycles
    (``simd_busy`` is charged to the SIMD, not to a wavefront).  The
    VRF's one event per conflicting gather sums to the statistic."""
    run = traced[(workload, isa)]
    trace = run.trace
    assert not trace.dropped
    charged = {}
    busy = {}
    for event in trace.by_category("stall"):
        assert event.dur >= 1, event
        charged[event.name] = charged.get(event.name, 0) + event.dur
        if event.wf >= 0:
            busy.setdefault(event.wf, []).append(
                (event.ts, event.ts + event.dur))
    assert charged == trace.stall_cycles
    for event in trace.by_category("issue"):
        busy.setdefault(event.wf, []).append((event.ts, event.ts + 1))
    for wf, spans in busy.items():
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start, f"wavefront {wf}: overlap at {start}"
    conflicts = [e.args["conflicts"] for e in trace.by_category("vrf")
                 if e.name == "bank_conflict"]
    assert sum(conflicts) == run.stat("vrf_bank_conflicts")
