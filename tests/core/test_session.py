"""Session facade tests: compile/run/suite, trace threading through the
serial and parallel harness paths, removal of the PR 2 deprecated
shims, and the typo-proof WorkloadRun.stat lookup."""

import pytest

from repro.common.config import small_config
from repro.core import DualKernel, Session
from repro.harness.runner import WorkloadRun
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.obs import TraceConfig
from repro.runtime.memory import Segment


def _vec_add_ir():
    kb = KernelBuilder(
        "session_vec_add",
        [("a", DType.U64), ("b", DType.U64), ("c", DType.U64)],
    )
    tid = kb.wi_abs_id()
    off = kb.cvt(tid, DType.U64) * 4
    x = kb.load(Segment.GLOBAL, kb.kernarg("a") + off, DType.F32)
    y = kb.load(Segment.GLOBAL, kb.kernarg("b") + off, DType.F32)
    kb.store(Segment.GLOBAL, kb.kernarg("c") + off, x + y)
    return kb.finish()


class TestSessionCompile:
    def test_compile_produces_dual_kernel(self):
        dual = Session().compile(_vec_add_ir())
        assert isinstance(dual, DualKernel)
        assert dual.hsail.static_instructions > 0
        assert dual.gcn3.static_instructions > 0

    def test_compile_needs_no_gpu_config(self):
        session = Session()
        session.compile(_vec_add_ir())
        assert session._config is None   # config stays unresolved

    def test_default_config_is_paper_machine(self):
        from repro.common.config import paper_config

        assert Session().config.fingerprint() == paper_config().fingerprint()

    def test_session_finalize_options_apply(self):
        from repro.finalizer.finalize import FinalizeOptions

        options = FinalizeOptions(independent_scheduling=False,
                                  nop_padding=False)
        session = Session(finalize_options=options)
        dual = session.compile(_vec_add_ir())
        # A per-call override beats the session default.
        overridden = session.compile(_vec_add_ir(), options=FinalizeOptions())
        assert dual.gcn3.static_instructions <= \
            overridden.gcn3.static_instructions


class TestSessionRun:
    def test_run_returns_workload_run(self):
        run = Session(small_config(2)).run("arraybw", "gcn3", scale=0.1)
        assert isinstance(run, WorkloadRun)
        assert run.verified
        assert run.trace is None   # no trace requested, none attached

    def test_run_with_trace_attaches_data(self):
        run = Session(small_config(2)).run(
            "arraybw", "gcn3", scale=0.1, trace=TraceConfig())
        assert run.trace is not None
        assert run.trace.events

    def test_capture_without_a_trace_store_runs_as_execute(self, monkeypatch):
        """With caching disabled there is nowhere to file a trace: the
        run records none and reports what actually ran."""
        import repro.harness.runner as runner

        def no_recorder():
            raise AssertionError("a capture without a store built a recorder")

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setattr(runner, "TraceRecorder", no_recorder)
        run = Session(small_config(2)).run("arraybw", "gcn3", scale=0.1,
                                           execution="capture")
        assert run.verified
        assert run.execution == "execute"


class TestSessionSuite:
    def test_suite_runs_matrix(self):
        results = Session(small_config(2)).suite(
            scale=0.1, workloads=["arraybw"], use_disk_cache=False)
        assert set(results.runs) == {("arraybw", "hsail"), ("arraybw", "gcn3")}
        assert results.all_verified()

    def test_traced_suite_attaches_traces_serially(self, tmp_path):
        results = Session(small_config(2)).suite(
            scale=0.1, workloads=["arraybw"], jobs=1,
            cache_dir=str(tmp_path / "cache"), trace=TraceConfig())
        for run in results.runs.values():
            assert run.trace is not None
            assert run.trace.by_category("issue")

    def test_traced_suite_survives_process_pool(self, tmp_path):
        """TraceConfig rides inside Job across the pool boundary and the
        recorded TraceData rides back in the worker payload."""
        results = Session(small_config(2)).suite(
            scale=0.1, workloads=["arraybw", "bitonic"], jobs=2,
            cache_dir=str(tmp_path / "cache"), trace=TraceConfig())
        assert len(results.runs) == 4
        for run in results.runs.values():
            assert run.error is None
            assert run.trace is not None
            assert len(run.trace.by_category("issue")) == \
                run.dynamic_instructions

    def test_traced_suite_bypasses_caches(self, tmp_path):
        """A traced suite must neither read nor write the result cache."""
        cache_dir = tmp_path / "cache"
        session = Session(small_config(2))
        # Warm the cache with an untraced suite.
        session.suite(scale=0.1, workloads=["arraybw"],
                      use_disk_cache=True, cache_dir=str(cache_dir))
        n_entries = len(list(cache_dir.glob("*.json")))
        assert n_entries > 0
        traced = session.suite(scale=0.1, workloads=["arraybw"],
                               use_disk_cache=True, cache_dir=str(cache_dir),
                               trace=TraceConfig())
        assert traced.get("arraybw", "gcn3").trace is not None  # not read
        assert len(list(cache_dir.glob("*.json"))) == n_entries  # not written
        # And the cache was not poisoned with the traced matrix.
        warm_again = session.suite(scale=0.1, workloads=["arraybw"],
                                   use_disk_cache=True,
                                   cache_dir=str(cache_dir))
        assert warm_again.get("arraybw", "gcn3").trace is None

    def test_trace_payload_round_trip(self):
        run = Session(small_config(2)).run(
            "arraybw", "gcn3", scale=0.1, trace=TraceConfig())
        again = WorkloadRun.from_payload(run.to_payload())
        assert again.trace is not None
        assert again.trace.events == run.trace.events
        assert again.trace.stall_cycles == run.trace.stall_cycles

    def test_untraced_payload_has_no_trace_key(self):
        """Golden-stats compatibility: the payload format only grows a
        'trace' key when a trace was actually recorded."""
        run = Session(small_config(2)).run("arraybw", "gcn3", scale=0.1)
        assert "trace" not in run.to_payload()


class TestShimsRemoved:
    """The PR 2 DeprecationWarning shims are gone: Session (and the
    request objects behind it) are the only doors."""

    def test_compile_dual_shim_is_gone(self):
        import repro.core
        import repro.core.api

        assert not hasattr(repro.core, "compile_dual")
        assert not hasattr(repro.core.api, "compile_dual")

    def test_run_suite_shim_is_gone(self):
        import repro.harness
        import repro.harness.runner

        assert not hasattr(repro.harness, "run_suite")
        assert not hasattr(repro.harness.runner, "run_suite")

    def test_session_paths_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session().compile(_vec_add_ir())
            Session(small_config(2)).suite(scale=0.1, workloads=["arraybw"])


class TestStatLookup:
    @pytest.fixture(scope="class")
    def run(self):
        return Session(small_config(2)).run("bitonic", "gcn3", scale=0.1)

    def test_present_metric(self, run):
        assert run.stat("cycles") > 0
        assert run.stat("l1d0_hits") >= 0

    def test_declared_but_absent_reads_zero(self, run):
        stats_without_flushes = WorkloadRun(
            workload="x", isa="gcn3", verified=True, total=run.total.__class__(),
            per_dispatch=[], dispatch_kernel_names=[],
            data_footprint_bytes=0, instr_footprint_bytes=0,
            static_instructions=0, kernel_code_bytes={}, wall_seconds=0.0)
        assert stats_without_flushes.stat("ib_flushes") == 0.0
        assert stats_without_flushes.stat("l1d5_misses") == 0.0

    def test_unknown_metric_raises_with_suggestions(self, run):
        with pytest.raises(KeyError, match="ib_flushes"):
            run.stat("ib_flushs")
        with pytest.raises(KeyError, match="unknown metric"):
            run.stat("completely_bogus_counter")
