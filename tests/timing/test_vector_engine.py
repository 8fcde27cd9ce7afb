"""Differential harness for the vectorized replay engine.

The vector engine (timing/vector.py) batch-decodes recorded wavefront
streams and folds order-independent statistics as array reductions; the
scalar ReplayCursor is the per-issue reference.  These tests prove the
two are *bit-identical* — every counter, ratio, and distribution of the
returned StatSet payloads — across the full 20-cell workload x ISA
matrix, and pin down the engine-selection semantics
(:func:`repro.timing.vector.resolve_engine`).
"""

import pytest

from repro.common.config import GpuConfig, small_config
from repro.common.errors import ConfigError
from repro.common.stats import StatSet
from repro.harness.cache import TraceStore, trace_fingerprint
from repro.harness.runner import ISAS, clear_suite_cache, run_workload
from repro.timing.replay import TraceError
from repro.timing.vector import ENGINES, resolve_engine, vector_cursor
from repro.workloads import all_workloads

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
    """Execute-at-issue (capture) runs for every cell — the reference
    statistics each replay engine must reproduce exactly."""
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
        """scalar-execute vs {scalar,vector}-replay on every cell."""
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


class TestResolveEngine:
    def test_engines_registry(self):
        assert ENGINES == ("auto", "scalar", "vector")

    def test_execute_cells_always_scalar(self, monkeypatch):
        # Trace-first: an execute cell replays its own in-memory trace,
        # so it resolves exactly as a replay cell does.  (The id dates
        # from execute-at-issue, when such cells were pinned to scalar.)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        for requested in ENGINES:
            for traced in (False, True):
                assert (resolve_engine(requested, replay=False, traced=traced)
                        == resolve_engine(requested, replay=True,
                                          traced=traced))
        assert resolve_engine("scalar", replay=False, traced=False) == "scalar"
        assert resolve_engine("auto", replay=False, traced=False) == "vector"

    def test_traced_replay_stays_scalar(self):
        # event-traced runs need the scalar engine's exhaustive
        # per-issue emission
        assert resolve_engine("vector", replay=True, traced=True) == "scalar"
        assert resolve_engine("auto", replay=True, traced=True) == "scalar"

    def test_explicit_engines_win_on_replay(self):
        assert resolve_engine("scalar", replay=True, traced=False) == "scalar"
        assert resolve_engine("vector", replay=True, traced=False) == "vector"

    def test_auto_follows_the_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine("auto", replay=True, traced=False) == "vector"

    def test_env_override_applies_to_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        assert resolve_engine("auto", replay=True, traced=False) == "vector"
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert resolve_engine("auto", replay=True, traced=False) == "scalar"
        # explicit config knob beats the environment
        assert resolve_engine("vector", replay=True, traced=False) == "vector"

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            resolve_engine("simd", replay=True, traced=False)

    def test_bad_env_override_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ConfigError, match="REPRO_ENGINE"):
            resolve_engine("auto", replay=True, traced=False)

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

    def test_unknown_wavefront_aborts(self, store, captured):
        trace = self._trace(store)
        kernel = self._kernel(captured)
        with pytest.raises(TraceError, match="wavefront"):
            vector_cursor(trace, 10_000, kernel, True, StatSet())

    def test_pc_desync_aborts(self, store, captured):
        trace = self._trace(store)
        kernel = self._kernel(captured)
        cur = vector_cursor(trace, 0, kernel, True, StatSet())
        with pytest.raises(TraceError, match="desynchronized"):
            cur.advance(999_999)

    def test_overrun_aborts(self, store, captured):
        trace = self._trace(store)
        kernel = self._kernel(captured)
        stats = StatSet()
        cur = vector_cursor(trace, 0, kernel, True, stats)
        while not cur.done:
            jump = cur.take_jump()
            cur.advance(jump if jump is not None else cur.pc)
        with pytest.raises(TraceError, match="past the end"):
            cur.advance(cur.pc)

    def test_fold_matches_scalar_walk(self, store, captured):
        """The batched fold and a full scalar walk of the same stream
        must produce identical order-independent statistics."""
        trace = self._trace(store)
        kernel = self._kernel(captured)
        vec_stats = StatSet()
        cur = vector_cursor(trace, 0, kernel, True, vec_stats)
        while not cur.done:
            jump = cur.take_jump()
            cur.advance(jump if jump is not None else cur.pc)

        from repro.timing.predecode import UNIT_SIMD, predecode_kernel
        from repro.timing.registerfile import VrfModel

        descs = predecode_kernel(kernel)
        sca_stats = StatSet()
        vrf = VrfModel(4, sca_stats)
        tracker = {}
        sca = trace.cursor(0, kernel, True)
        counter = 0
        while not sca.done:
            jump = sca.take_jump()
            pc = jump if jump is not None else sca.pc
            desc = descs[pc]
            counter += 1
            sca_stats.record_instruction(desc.category)
            vrf.record_reuse(tracker, counter, desc.rw_slots)
            result = sca.advance(pc, (counter & 3) == 0, desc.read_slots,
                                 desc.write_slots, sca_stats)
            if desc.unit == UNIT_SIMD:
                sca_stats.simd_utilization.add(result.active_lanes, 64)
        assert vec_stats.to_payload() == sca_stats.to_payload()
