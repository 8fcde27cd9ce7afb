"""Differential suite: the functional pass vs the reference driver.

The functional pass (:mod:`repro.timing.funcsim`) takes one compiled
step per instruction from a per-kernel table; the reference driver of
``tests/trace_oracle.py`` steps every wavefront on its own, one
instruction at a time, records it with its own per-issue encoder
(``trace_oracle.record``) and counts
its probes one slot at a time.  The pass promises *bit-identity* with the driver —
not statistical closeness.  This suite holds it to that over the full
tier-1 matrix:

* every (workload x ISA) cell is captured by the production path and
  re-executed by the driver, and the two must agree on the verification
  verdict, every StatSet payload (total and per-dispatch, the driver's
  from a replay of its own trace), and the sha256 of the serialized
  trace blob — the trace is the functional pass's actual product, so its
  digest is the strongest single equality;
* a small sweep is journaled once with ``execution="execute"`` and once
  with ``"auto"`` (capture, then replays), and the journals must hash
  identically after zeroing the wall-clock fields (the only
  legitimately nondeterministic bytes in a journal line);
* a seeded hypothesis leg mirrors ``test_engine_fuzz``'s divergent
  control-flow strategy — masks and RPC reconvergence interact hardest
  there — and cross-checks production against the driver on randomly
  generated kernels for both ISAs.  ``derandomize=True`` keeps CI
  deterministic.

(The ids keep the names of the two interpreters this suite once
compared: block-compiled superop chains and the raw interpreter.)
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import paper_config, small_config
from repro.core import Session
from repro.gcn3.semantics import Gcn3Wavefronts
from repro.harness.cache import TraceStore, trace_fingerprint
from repro.harness.runner import ISAS, clear_suite_cache, run_workload
from repro.hsail.semantics import HsailWavefronts
from repro.runtime.memory import HEAP_BASE
from repro.runtime.process import GpuProcess
from repro.timing.funcsim import run_dispatch_functional
from repro.timing.gpu import Gpu
from repro.timing.replay import TraceRecorder
from repro.workloads import all_workloads, create
from tests.trace_oracle import run_dispatch_reference

from .test_engine_fuzz import N, _build_divergent, _dispatch, divergent_programs

SCALE = 0.25
SEED = 7

ALL_CELLS = [(w.name, isa) for w in all_workloads() for isa in ISAS]


def _stats_digest(run) -> str:
    payload = json.dumps(
        [run.total.to_payload()] + [s.to_payload() for s in run.per_dispatch],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _image(process):
    """Every mapped byte of device memory: the run's whole result."""
    memory = process.memory
    return memory.read_array(HEAP_BASE, np.uint8,
                             memory.mapped_limit - HEAP_BASE)


def _reference_capture(process, meta):
    """The reference driver over every staged dispatch, as a trace."""
    recorder = TraceRecorder()
    for dispatch in process.dispatches:
        run_dispatch_reference(process, dispatch, recorder=recorder)
    return recorder.finish(meta)


@pytest.mark.parametrize(
    "name,isa", ALL_CELLS, ids=[f"{n}-{i}" for n, i in ALL_CELLS]
)
def test_block_vs_raw_capture_identical(name, isa, tmp_path):
    """Capture each cell in production and with the reference driver:
    stats, verdicts, and the serialized trace must be byte-for-byte the
    same."""
    config = paper_config()
    fp = trace_fingerprint(config, name, isa, SCALE, SEED)
    clear_suite_cache()
    store = TraceStore(tmp_path / "block")
    run = run_workload(name, isa, scale=SCALE, config=config, seed=SEED,
                       execution="capture", trace_store=store)
    blob = store.read_blob(fp)
    assert blob is not None, "capture left no trace"

    workload = create(name, scale=SCALE, seed=SEED)
    process = GpuProcess(isa, memory_capacity=1 << 25)
    workload.stage(process, isa)
    trace = _reference_capture(process, store.get(fp).meta)
    verified = workload.verify(process)
    raw_store = TraceStore(tmp_path / "raw")
    raw_store.put(fp, trace)
    clear_suite_cache()
    replayed = run_workload(name, isa, scale=SCALE, config=config, seed=SEED,
                            execution="replay", trace_store=raw_store)
    clear_suite_cache()
    assert (run.verified, _stats_digest(run), hashlib.sha256(blob).hexdigest(),
            run.dynamic_instructions) == (
        verified, _stats_digest(replayed),
        hashlib.sha256(trace.to_bytes()).hexdigest(), trace.dynamic_instructions
    ), f"{name}/{isa}: the functional pass diverged from the reference driver"


def test_sweep_journal_digest_identical(tmp_path):
    """A journaled sweep hashes the same whether every cell executes or
    the first captures and the rest replay, once the volatile fields are
    stripped.

    Uses the distributed coordinator's :func:`journal_digest` — the
    exact equality gate a multi-host sweep is merged under — so "the
    journals agree" means agreement by the same yardstick the dist
    subsystem enforces between workers.
    """
    from repro.dist import journal_digest
    from repro.explore.space import Axis
    from repro.core.requests import SweepRequest
    from repro.explore.sweep import execute_sweep_request

    digests = {}
    for execution in ("execute", "auto"):
        clear_suite_cache()
        results = execute_sweep_request(SweepRequest(
            axes=[Axis.parse("l1d.size_bytes=16384,65536")],
            config=small_config(2),
            workloads=["fft"],
            isas=("gcn3", "hsail"),
            scale=SCALE,
            seed=SEED,
            use_disk_cache=False,
            sweeps_dir=str(tmp_path / execution),
            trace_dir=str(tmp_path / "traces"),
            execution=execution,
        ))
        assert not results.failed_points
        assert results.journal_path is not None
        digests[execution] = journal_digest(results.journal_path)
    clear_suite_cache()
    assert digests["execute"] == digests["auto"]


# ---------------------------------------------------------------------------
# Seeded fuzz leg: random divergent kernels, production vs reference driver
# ---------------------------------------------------------------------------

_FUZZ_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


@given(divergent_programs(), st.integers(min_value=0, max_value=2**31))
@_FUZZ_SETTINGS
def test_fuzz_block_vs_raw_divergent(program, data_seed):
    data = (np.random.default_rng(data_seed)
            .integers(1, 2**16, N).astype(np.uint32))
    dual = Session().compile(_build_divergent(program))
    config = small_config(2)
    meta = {"workload": "fuzz"}
    for isa in ("hsail", "gcn3"):
        process = _dispatch(dual, isa, data)
        recorder = TraceRecorder()
        block = [s.to_payload() for s in
                 Gpu(config, process, recorder=recorder).run_all()]
        reference = _dispatch(dual, isa, data)
        trace = _reference_capture(reference, meta)
        assert (recorder.finish(meta).to_bytes() == trace.to_bytes()), \
            f"trace bytes diverged on {isa}"
        assert np.array_equal(_image(process), _image(reference)), \
            f"results diverged on {isa}"
        raw = [s.to_payload() for s in
               Gpu(config, _dispatch(dual, isa, data), replay=trace).run_all()]
        assert block == raw, f"statistics diverged on {isa}"


def test_group_steps_are_at_most_a_third_of_instructions():
    """The functional pass steps the wavefronts of a dispatch in lockstep
    groups: over this suite's 20 cells the group steps -- counted by
    wrapping every kernel's step table here -- are at most a third of
    the dynamic instructions (measured: 17,181 of 54,175, 0.32; the
    cells are too narrow here for the quarter reached at scale 0.5)."""
    steps = [0]

    def counted(step):
        def run(g, exe):
            steps[0] += 1
            return step(g, exe)
        return run

    executed = 0
    for name, isa in ALL_CELLS:
        process = GpuProcess(isa, memory_capacity=1 << 25)
        create(name, scale=SCALE, seed=SEED).stage(process, isa)
        kernels = {id(d.kernel): d for d in process.dispatches}.values()
        saved = [(d.kernel, (Gcn3Wavefronts if d.is_gcn3
                             else HsailWavefronts).steps(d.kernel))
                 for d in kernels]
        try:
            for kernel, table in saved:
                kernel._memo["steps"] = tuple(map(counted, table))
            for dispatch in process.dispatches:
                executed += run_dispatch_functional(process, dispatch)
        finally:
            for kernel, table in saved:
                kernel._memo["steps"] = table
    assert 3 * steps[0] <= executed, (steps[0], executed)
