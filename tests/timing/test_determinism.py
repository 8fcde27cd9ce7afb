"""Determinism suite for the accelerated cycle model.

The hot-path work (predecoded descriptors, ready-set scheduling, eager
VRF conflict accounting, masked-write fast paths) is only admissible if
it changes *nothing* observable: the same simulation must produce
bit-identical statistics run over run, and a traced run — which takes
the same scheduling steps and only adds event emission — must agree
with the untraced one exactly.

``tests/harness/test_golden.py`` additionally pins the absolute values
against ``tests/golden/suite_small.json``; this file proves the
internal equivalences.
"""

import pytest

from repro.common.config import small_config
from repro.harness.cache import TraceStore
from repro.harness.runner import run_workload
from repro.obs.trace import TraceConfig
from repro.timing.vector import resolve_engine

SCALE = 0.1
SEED = 7
CASES = [("bitonic", "hsail"), ("bitonic", "gcn3"),
         ("comd", "hsail"), ("comd", "gcn3")]

#: replay cursors the run-twice / traced-vs-untraced equivalences must
#: also hold for (scalar = raw-array walk, vector = batch decode).
ENGINES = ["scalar", "vector"]


def _stats_payload(run):
    """Everything statistical about a run (wall clock and trace excluded)."""
    payload = run.to_payload()
    payload.pop("wall_seconds")
    payload.pop("trace", None)
    payload.pop("execution", None)
    return payload


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("determinism-traces"))
    for workload, isa in CASES:
        run_workload(workload, isa, scale=SCALE, config=small_config(2),
                     seed=SEED, execution="capture", trace_store=store)
    return store


@pytest.mark.parametrize("workload,isa", CASES)
def test_run_twice_is_bit_identical(workload, isa):
    config = small_config(2)
    first = run_workload(workload, isa, scale=SCALE, config=config, seed=SEED)
    second = run_workload(workload, isa, scale=SCALE, config=config, seed=SEED)
    assert first.verified and second.verified
    assert _stats_payload(first) == _stats_payload(second)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload,isa", CASES)
def test_replay_twice_is_bit_identical(store, workload, isa, engine):
    """Run-twice determinism must survive trace replay under both
    engines — the vector path's decode memo in particular must not make
    the second replay of a trace differ from the first."""
    config = small_config(2).with_overrides({"engine": engine})
    first = run_workload(workload, isa, scale=SCALE, config=config,
                         seed=SEED, execution="replay", trace_store=store)
    second = run_workload(workload, isa, scale=SCALE, config=config,
                          seed=SEED, execution="replay", trace_store=store)
    # (The second may be answered from the first's eviction-free
    # witness; test_equivalence covers derived == simulated.)
    assert first.execution in ("replay", "derived")
    assert second.execution in ("replay", "derived")
    assert _stats_payload(first) == _stats_payload(second)


@pytest.mark.parametrize("workload,isa", CASES)
def test_traced_and_untraced_statistics_agree(workload, isa):
    """The per-cycle (traced) and fast (untraced) paths are equivalent.

    Tracing every category forces the exact per-cycle VRF fold, the
    per-event cache notes, and per-issue emission — the original code
    paths — while the untraced run takes every fast path.  Statistics
    must not differ by a single count.
    """
    config = small_config(2)
    untraced = run_workload(workload, isa, scale=SCALE, config=config,
                            seed=SEED)
    traced = run_workload(workload, isa, scale=SCALE, config=config,
                          seed=SEED, trace=TraceConfig())
    assert untraced.verified and traced.verified
    assert traced.trace is not None and traced.trace.events
    assert _stats_payload(untraced) == _stats_payload(traced)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload,isa", CASES)
def test_traced_and_untraced_replay_agree(store, workload, isa, engine):
    """Traced-vs-untraced equivalence extended to replay mode.

    An event-traced replay takes the same cursor as an untraced one
    (events are emitted from the one issue path, statistics come from
    the trace's fold either way; see ``resolve_engine``) — so this
    proves emission observes without perturbing, under both cursors.
    """
    config = small_config(2).with_overrides({"engine": engine})
    untraced = run_workload(workload, isa, scale=SCALE, config=config,
                            seed=SEED, execution="replay", trace_store=store)
    traced = run_workload(workload, isa, scale=SCALE, config=config,
                          seed=SEED, execution="replay", trace_store=store,
                          trace=TraceConfig())
    assert resolve_engine(engine, replay=True, traced=True) == (
        "scalar" if engine == "scalar" else "vector")
    assert traced.trace is not None and traced.trace.events
    assert _stats_payload(untraced) == _stats_payload(traced)
