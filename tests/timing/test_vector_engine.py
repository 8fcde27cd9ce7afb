"""Differential harness for the two replay cursors and the trace fold.

There is one issue path in the CU.  What feeds it is either the
batch-decoded cursor of timing/vector.py (``auto``/``vector``) or the
raw-array record walk of timing/replay.py (explicit ``scalar``, kept
until the benchmark PR releases the name); the statistics a trace
determines come from the trace's fold under both.  These tests prove
the two are *bit-identical* — every counter, ratio, and distribution of
the returned StatSet payloads — across the full 20-cell workload x ISA
matrix, check the fold against the independent per-issue walker in
``tests/trace_oracle.py``, and pin down the engine-selection semantics
(:func:`repro.timing.vector.resolve_engine`).
"""

import numpy as np
import pytest

from repro.common.config import GpuConfig, small_config
from repro.common.errors import ConfigError
from repro.common.stats import StatSet
from repro.harness.cache import TraceStore, trace_fingerprint
from repro.harness.runner import ISAS, clear_suite_cache, run_workload
from repro.obs import METRICS, MetricClass, TraceBus, TraceConfig
from repro.runtime.process import GpuProcess
from repro.timing import gpu as gpu_module
from repro.timing.replay import _F_TAKEN, _F_TARGET, TraceError
from repro.timing.vector import (ENGINES, VectorReplayCursor, resolve_engine,
                                 wf_decode)
from repro.workloads import all_workloads, create
from tests.trace_oracle import trace_determined, walk_stream

SCALE = 0.1

#: The full differential matrix: every registered workload under both
#: ISAs — 20 cells.
CELLS = [(w.name, isa) for w in all_workloads() for isa in ISAS]


def _strip(run):
    """A run's payload minus the fields allowed to differ across modes."""
    payload = run.to_payload()
    payload.pop("wall_seconds", None)
    payload.pop("execution", None)
    return payload


def _config(engine="auto"):
    return small_config(2).with_overrides({"engine": engine})


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(tmp_path_factory.mktemp("vector-traces"))


@pytest.fixture(scope="module")
def captured(store):
    """Capture runs (functional pass, trace stored, CU replay of it) for
    every cell — the reference statistics each replay must reproduce
    exactly."""
    clear_suite_cache()
    cfg = _config()
    return {
        (name, isa): run_workload(name, isa, scale=SCALE, config=cfg,
                                  execution="capture", trace_store=store)
        for name, isa in CELLS
    }


@pytest.mark.parametrize("workload,isa", CELLS,
                         ids=[f"{w}-{i}" for w, i in CELLS])
@pytest.mark.parametrize("engine", ["scalar", "vector"])
class TestDifferentialMatrix:
    def test_replay_bit_identical_to_execute(self, store, captured,
                                             workload, isa, engine):
        """capture vs {scalar,vector}-cursor replay on every cell."""
        rep = run_workload(workload, isa, scale=SCALE,
                           config=_config(engine),
                           execution="replay", trace_store=store)
        assert rep.execution == "replay"
        assert _strip(rep) == _strip(captured[(workload, isa)]), (
            f"{workload}/{isa} diverged under the {engine} engine")


class TestEnginesAgreeAcrossTimingConfigs:
    def test_swept_cell_identity(self, store, captured):
        """The two engines must also agree on a *different* timing
        config than the capture ran under — the sweep regime."""
        swept = {"l1d.size_bytes": 1 << 15, "cu.vrf_banks": 8}
        runs = {
            engine: run_workload(
                "lulesh", "gcn3", scale=SCALE,
                config=_config(engine).with_overrides(swept),
                execution="replay", trace_store=store)
            for engine in ("scalar", "vector")
        }
        assert _strip(runs["scalar"]) == _strip(runs["vector"])

    def test_decode_is_shared_across_cells(self, store, captured):
        """Replaying the same trace twice reuses one parsed ExecTrace and
        one batch decode per wavefront (the sweep-amortization memo)."""
        fp = trace_fingerprint(_config(), "spmv", "gcn3", SCALE, 7)
        run_workload("spmv", "gcn3", scale=SCALE, config=_config("vector"),
                     execution="replay", trace_store=store)
        trace = store.get(fp)
        assert trace is not None
        assert store.get(fp) is trace  # parsed-trace memo
        assert trace._decode_cache     # per-wavefront decode memo
        decoded = dict(trace._decode_cache)
        run_workload("spmv", "gcn3", scale=SCALE,
                     config=_config("vector").with_overrides(
                         {"l1d.size_bytes": 1 << 15}),
                     execution="replay", trace_store=store)
        for wf_id, dec in decoded.items():
            assert trace._decode_cache[wf_id] is dec


#: Timing-divergent points one captured trace is replayed under: two
#: memory-system axes, a register-file axis, and the CU count.  (At this
#: scale only DRAM latency moves the cycles of every cell.)
TIMING_POINTS = [{"l1d.size_bytes": 1 << 10}, {"cu.vrf_banks": 8},
                 {"num_cus": 1}, {"dram.base_latency_cycles": 50}]


@pytest.mark.parametrize("workload,isa", CELLS,
                         ids=[f"{w}-{i}" for w, i in CELLS])
def test_trace_determined_statistics_are_config_invariant(
        store, captured, workload, isa):
    """Every ``trace``-class statistic (instruction mix, dynamic
    instructions, IB flushes, memory requests, barriers, SIMD
    utilisation, reuse distance, value uniqueness) is a function of the
    trace: equal at every timing point and in an event-traced run, while
    cycles move."""
    reference = captured[(workload, isa)]
    runs = [run_workload(workload, isa, scale=SCALE,
                         config=_config().with_overrides(point),
                         execution="replay", trace_store=store)
            for point in TIMING_POINTS]
    runs.append(run_workload(workload, isa, scale=SCALE, config=_config(),
                             execution="replay", trace_store=store,
                             trace=TraceConfig()))
    assert runs[-1].trace is not None and runs[-1].trace.events
    for run in runs:
        assert run.execution == "replay"
        assert [trace_determined(s) for s in run.per_dispatch] == [
            trace_determined(s) for s in reference.per_dispatch]
    assert runs[-1].cycles == reference.cycles  # tracing only observes
    assert len({run.cycles for run in runs}) > 1


#: Cells that between them issue every memory kind and reach barriers.
ONLY_TIMING_CELLS = [("bitonic", "gcn3"), ("bitonic", "hsail"),
                     ("arraybw", "gcn3"), ("comd", "hsail")]


@pytest.mark.parametrize("workload,isa", ONLY_TIMING_CELLS,
                         ids=[f"{w}-{i}" for w, i in ONLY_TIMING_CELLS])
def test_cycle_model_computes_only_timing(store, captured, monkeypatch,
                                          workload, isa):
    """With the fold application patched out, untraced and event-traced
    replays leave only ``timing``-class counters behind (per the metric
    registry) and none of the accumulators the fold owns: the CU and the
    memory system compute no statistic the trace determines."""
    monkeypatch.setattr(gpu_module, "fold_workgroup", lambda stats, folds: None)
    trace = store.get(trace_fingerprint(_config(), workload, isa, SCALE, 7))
    empty = trace_determined(StatSet())
    for bus in (None, TraceBus()):
        process = GpuProcess(isa, memory_capacity=1 << 25)
        create(workload, scale=SCALE, seed=7).stage(process, isa)
        runs = gpu_module.Gpu(_config(), process, trace=bus,
                              replay=trace).run_all()
        assert sum(stats.cycles for stats in runs) > 0
        for stats in runs:
            assert trace_determined(stats) == empty
            assert all(METRICS.find(name).metric_class is MetricClass.TIMING
                       for name in stats.counters)


#: The default timing point and one that moves instruction fetch (small
#: L1I, slow DRAM) — the machinery an IB flush lives in.
IB_FLUSH_POINTS = [{}, {"l1i.size_bytes": 4096,
                        "dram.base_latency_cycles": 50}]


@pytest.mark.parametrize("workload,isa", CELLS,
                         ids=[f"{w}-{i}" for w, i in CELLS])
def test_ib_flushes_are_trace_determined(store, captured, workload, isa):
    """Figure 9's IB flushes are counted by the cycle model but decided
    by the trace: every reconvergence jump (``code < 0``) and every
    record whose flags hold both TAKEN and TARGET flushes once, whatever
    the timing."""
    trace = store.get(trace_fingerprint(_config(), workload, isa, SCALE, 7))
    both = _F_TAKEN | _F_TARGET
    expected = sum(
        int(np.count_nonzero(np.asarray(s.code) < 0))
        + int(np.count_nonzero((np.asarray(s.flags) & both) == both))
        for s in trace.streams)
    for point in IB_FLUSH_POINTS:
        run = run_workload(workload, isa, scale=SCALE,
                           config=_config().with_overrides(point),
                           execution="replay", trace_store=store)
        assert run.total["ib_flushes"] == expected, point
    assert captured[(workload, isa)].total["ib_flushes"] == expected


class TestResolveEngine:
    def test_engines_registry(self):
        assert ENGINES == ("auto", "scalar", "vector")

    def test_execute_cells_always_scalar(self):
        # Trace-first: an execute cell replays its own in-memory trace,
        # so it resolves exactly as a replay cell does.  (The id dates
        # from execute-at-issue, when such cells were pinned to scalar.)
        for requested in ENGINES:
            for traced in (False, True):
                assert (resolve_engine(requested, replay=False, traced=traced)
                        == resolve_engine(requested, replay=True,
                                          traced=traced))
        assert resolve_engine("scalar", replay=False, traced=False) == "scalar"
        assert resolve_engine("auto", replay=False, traced=False) == "vector"

    def test_traced_replay_stays_scalar(self):
        # Events are emitted from the one issue path, so tracing no
        # longer picks the cursor: only the name does.  (The id dates
        # from when event-traced runs were re-routed onto scalar.)
        assert resolve_engine("vector", replay=True, traced=True) == "vector"
        assert resolve_engine("auto", replay=True, traced=True) == "vector"
        assert resolve_engine("scalar", replay=True, traced=True) == "scalar"

    def test_explicit_engines_win_on_replay(self):
        assert resolve_engine("scalar", replay=True, traced=False) == "scalar"
        assert resolve_engine("vector", replay=True, traced=False) == "vector"

    def test_auto_follows_the_backend(self, monkeypatch):
        # no environment variable takes part in the resolution
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert resolve_engine("auto", replay=True, traced=False) == "vector"
        assert resolve_engine("auto") == "vector"

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            resolve_engine("simd", replay=True, traced=False)

    def test_config_validates_engine(self):
        with pytest.raises(ConfigError):
            _config("warp")
        # the removed timing knob fails closed on the wire, not silently
        payload = {**small_config(2).to_dict(), "timing": "auto"}
        with pytest.raises(ConfigError):
            GpuConfig.from_dict(payload)

    def test_engine_in_timing_fingerprint_only(self):
        scalar, vector = _config("scalar"), _config("vector")
        assert scalar.fingerprint() != vector.fingerprint()
        # the dynamic instruction stream cannot depend on the engine
        assert (scalar.functional_fingerprint()
                == vector.functional_fingerprint())


class TestVectorCursorErrors:
    def _trace(self, store):
        fp = trace_fingerprint(_config(), "arraybw", "gcn3", SCALE, 7)
        trace = store.get(fp)
        assert trace is not None
        return trace

    def _kernel(self, captured):
        from repro.runtime.process import GpuProcess
        from repro.workloads import create

        process = GpuProcess("gcn3", memory_capacity=1 << 25)
        create("arraybw", scale=SCALE, seed=7).stage(process, "gcn3")
        return process.dispatches[0].kernel

    def _cursor(self, trace, kernel, wf_id=0):
        return VectorReplayCursor(wf_decode(trace, wf_id, kernel), kernel,
                                  True)

    def test_unknown_wavefront_aborts(self, store, captured):
        trace = self._trace(store)
        kernel = self._kernel(captured)
        with pytest.raises(TraceError, match="wavefront"):
            self._cursor(trace, kernel, 10_000)

    def test_pc_desync_aborts(self, store, captured):
        cur = self._cursor(self._trace(store), self._kernel(captured))
        with pytest.raises(TraceError, match="desynchronized"):
            cur.advance(999_999)

    def test_overrun_aborts(self, store, captured):
        cur = self._cursor(self._trace(store), self._kernel(captured))
        while not cur.done:
            jump = cur.take_jump()
            cur.advance(jump if jump is not None else cur.pc)
        with pytest.raises(TraceError, match="past the end"):
            cur.advance(cur.pc)

    def test_fold_matches_scalar_walk(self, store, captured):
        """The batched fold and a per-issue walk of the same stream must
        produce identical statistics, the fold alone must account for
        them (neither cursor touches a StatSet), and both cursors must
        hand the issue path the same outcomes — for every wavefront of
        a multi-dispatch trace whose wavefronts share a few stream
        shapes, placed in order from a cold memo so that later
        wavefronts are served a shape an earlier one built.  Placed
        first as the raw-array cursor asks (``records=False``), they
        build no record tuples."""
        trace = store.get(trace_fingerprint(_config(), "hpgmg", "gcn3",
                                            SCALE, 7))
        process = GpuProcess("gcn3", memory_capacity=1 << 25)
        create("hpgmg", scale=SCALE, seed=7).stage(process, "gcn3")
        kernels = [dispatch.kernel for dispatch in process.dispatches
                   for wg in range(dispatch.num_workgroups)
                   for _ in range(dispatch.wavefronts_in_wg(wg))]
        assert len(kernels) == len(trace.streams)
        trace._decode_cache.clear()
        trace._shapes.clear()
        for wf_id, kernel in enumerate(kernels):
            assert wf_decode(trace, wf_id, kernel, records=False).records is None
        assert all(shape.records is None for shape in trace._shapes.values())
        shapes = []
        for wf_id, kernel in enumerate(kernels):
            dec = wf_decode(trace, wf_id, kernel)
            stream = trace.streams[wf_id]
            folded = StatSet()
            dec.fold.apply(folded)
            assert folded.to_payload() == walk_stream(stream,
                                                      kernel).to_payload()
            assert folded.dynamic_instructions == len(stream.flags)

            vec = VectorReplayCursor(dec, kernel, True)
            sca = trace.cursor(wf_id, kernel, True)
            while not sca.done:
                assert vec.jump_armed == sca.jump_armed
                assert vec.take_jump() == sca.take_jump()
                assert vec.pc == sca.pc
                # the same record tuple, mem_lines list included
                assert vec.advance(vec.pc) == sca.advance(sca.pc)
            assert vec.done
            shapes.append(dec.shape)
        distinct = {id(shape) for shape in shapes}
        assert 1 < len(distinct) < len(kernels)
        assert len(trace._shapes) == len(distinct)
