"""Top-level GPU timing-model tests."""

import numpy as np
import pytest

from repro.common.config import small_config, paper_config
from repro.common.errors import DeadlockError
from repro.core import Session
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.runtime.memory import Segment
from repro.runtime.process import GpuProcess
from repro.timing.cu import ComputeUnit
from repro.timing.gpu import DISPATCH_LATENCY, Gpu

from tests.conftest import build_branchy, build_vec_add


def run_kernel(dual, isa, n=128, num_cus=2, extra=(), arrays=None,
               out_bytes=4):
    proc = GpuProcess(isa)
    addrs = [proc.upload(a) for a in (arrays or [])]
    out = proc.alloc_buffer(out_bytes * n)
    proc.dispatch(dual.for_isa(isa), grid=n, wg=64,
                  kernargs=addrs + [out] + list(extra))
    gpu = Gpu(small_config(num_cus), proc)
    stats = gpu.run_all()[0]
    return proc, out, stats


class TestBasicExecution:
    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_vec_add_correct_through_timing_model(self, vec_add_dual, isa):
        n = 128
        rng = np.random.default_rng(3)
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        proc, out, stats = run_kernel(vec_add_dual, isa, n=n, arrays=[a, b])
        assert np.allclose(proc.download(out, np.float32, n), a + b)
        assert stats.cycles > DISPATCH_LATENCY
        assert stats.dynamic_instructions > 0

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_branchy_correct(self, branchy_dual, isa):
        n = 128
        rng = np.random.default_rng(4)
        a = rng.integers(0, 100, n).astype(np.uint32)
        proc, out, stats = run_kernel(branchy_dual, isa, n=n, arrays=[a],
                                      extra=[50])
        expected = np.where(a < 50, a * 3, a + 100).astype(np.uint32)
        assert np.array_equal(proc.download(out, np.uint32, n), expected)

    def test_timing_matches_functional_results(self, branchy_dual):
        """Execute-at-issue must agree with the pure functional engine."""
        from repro.core import run_dispatch_functional

        n = 128
        rng = np.random.default_rng(5)
        a = rng.integers(0, 100, n).astype(np.uint32)

        proc_f = GpuProcess("gcn3")
        pa = proc_f.upload(a)
        out_f = proc_f.alloc_buffer(4 * n)
        proc_f.dispatch(branchy_dual.gcn3, grid=n, wg=64,
                        kernargs=[pa, out_f, 50])
        run_dispatch_functional(proc_f, proc_f.dispatches[0])

        proc_t, out_t, _ = run_kernel(branchy_dual, "gcn3", n=n, arrays=[a],
                                      extra=[50])
        assert np.array_equal(proc_f.download(out_f, np.uint32, n),
                              proc_t.download(out_t, np.uint32, n))


class TestStatistics:
    def test_cycles_monotonic_with_work(self, vec_add_dual):
        """Past the latency-bound regime, more work means more cycles.

        (Small grids are cold-start dominated: one wavefront serializes
        its I-cache misses, so 64 items can cost *more* than 1024 run in
        parallel -- the comparison must use saturating sizes.)
        """
        rng = np.random.default_rng(6)
        small_n, big_n = 1024, 8192
        results = {}
        for n in (small_n, big_n):
            a = rng.random(n, dtype=np.float32)
            b = rng.random(n, dtype=np.float32)
            _, _, stats = run_kernel(vec_add_dual, "gcn3", n=n, arrays=[a, b],
                                     num_cus=1)
            results[n] = stats.cycles
        assert results[big_n] > 2 * results[small_n]

    def test_simd_utilization_full_grid(self, vec_add_dual):
        a = np.zeros(128, dtype=np.float32)
        _, _, stats = run_kernel(vec_add_dual, "gcn3", n=128, arrays=[a, a])
        assert stats.simd_utilization.value == 1.0

    def test_simd_utilization_partial_tail(self, vec_add_dual):
        a = np.zeros(96, dtype=np.float32)
        _, _, stats = run_kernel(vec_add_dual, "gcn3", n=96, arrays=[a, a])
        # second wavefront has 32/64 lanes
        assert 0.7 < stats.simd_utilization.value < 1.0

    def test_workgroups_counted(self, vec_add_dual):
        a = np.zeros(256, dtype=np.float32)
        _, _, stats = run_kernel(vec_add_dual, "gcn3", n=256, arrays=[a, a])
        assert stats["workgroups_dispatched"] == 4  # 256 / wg 64

    def test_cache_stats_exported(self, vec_add_dual):
        a = np.zeros(128, dtype=np.float32)
        _, _, stats = run_kernel(vec_add_dual, "gcn3", n=128, arrays=[a, a])
        snap = stats.snapshot()
        assert any(k.startswith("l1d") for k in snap)
        assert snap.get("dram_accesses", 0) > 0


class TestMultiDispatch:
    def test_sequential_dispatches_accumulate(self, vec_add_dual):
        proc = GpuProcess("gcn3")
        n = 64
        a = proc.upload(np.ones(n, dtype=np.float32))
        out1 = proc.alloc_buffer(4 * n)
        out2 = proc.alloc_buffer(4 * n)
        proc.dispatch(vec_add_dual.gcn3, grid=n, wg=64, kernargs=[a, a, out1])
        proc.dispatch(vec_add_dual.gcn3, grid=n, wg=64, kernargs=[a, out1, out2])
        gpu = Gpu(small_config(1), proc)
        results = gpu.run_all()
        assert len(results) == 2
        assert np.allclose(proc.download(out2, np.float32, n), 3.0)
        # each dispatch's signal completed
        for d in proc.dispatches:
            d.signal.wait_zero()


class TestOccupancy:
    def test_register_demand_limits_residency(self):
        """A kernel demanding many registers caps wavefronts per CU."""
        kb = KernelBuilder("fat", [("p", DType.U64)])
        p = kb.kernarg("p")
        vals = [kb.load(Segment.GLOBAL, p + (4 * i), DType.F32)
                for i in range(100)]
        acc = kb.var(DType.F32, 0.0)
        for v in vals:
            kb.assign(acc, acc + v)
        tid = kb.wi_abs_id()
        kb.store(Segment.GLOBAL, p + kb.cvt(tid, DType.U64) * 4, acc)
        dual = Session().compile(kb.finish())

        # HSAIL wants >100 VRF slots per WF; a 2048-entry VRF then holds
        # at most ~20 wavefronts, below the 40 WF slots.
        assert dual.hsail.reg_slots_used * 21 > 2048

        proc = GpuProcess("hsail")
        data = proc.upload(np.ones(4096, dtype=np.float32))
        proc.dispatch(dual.hsail, grid=2048, wg=256, kernargs=[data])
        gpu = Gpu(small_config(1), proc)
        stats = gpu.run_all()[0]
        assert stats["workgroups_dispatched"] == 8  # all eventually ran


class TestBarriers:
    def test_barrier_synchronizes_workgroup(self):
        kb = KernelBuilder("bar", [("out", DType.U64)])
        lds = kb.group_alloc("tile", 512)
        t = kb.wi_id()
        kb.store(Segment.GROUP, lds + t * 4, t + 1)
        kb.barrier()
        # read a value written by another wavefront of the workgroup
        partner = t ^ 64
        v = kb.load(Segment.GROUP, lds + partner * 4, DType.U32)
        tid = kb.wi_abs_id()
        kb.store(Segment.GLOBAL, kb.kernarg("out") + kb.cvt(tid, DType.U64) * 4, v)
        dual = Session().compile(kb.finish())

        for isa in ("hsail", "gcn3"):
            proc = GpuProcess(isa)
            out = proc.alloc_buffer(4 * 128)
            proc.dispatch(dual.for_isa(isa), grid=128, wg=128, kernargs=[out])
            gpu = Gpu(small_config(1), proc)
            stats = gpu.run_all()[0]
            got = proc.download(out, np.uint32, 128)
            expected = (np.arange(128) ^ 64) + 1
            assert np.array_equal(got, expected), isa
            assert stats["barriers"] >= 1


class TestDispatcherWatchdog:
    """The three ``DeadlockError`` branches of ``Gpu._loop_scan``, and the
    progress clock the third one reads (the dispatcher jumps straight to
    each wake, so an issuing step must count as progress)."""

    @staticmethod
    def _run(dual, isa, config, n=128):
        proc = GpuProcess(isa)
        a = proc.upload(np.ones(n, dtype=np.float32))
        out = proc.alloc_buffer(4 * n)
        proc.dispatch(dual.for_isa(isa), grid=n, wg=64, kernargs=[a, a, out])
        gpu = Gpu(config, proc)
        stats = gpu.run_all()[0]
        assert np.allclose(proc.download(out, np.float32, n), 2.0)
        return stats

    def test_unplaceable_workgroup_with_no_events(self, vec_add_dual,
                                                  monkeypatch):
        monkeypatch.setattr(ComputeUnit, "can_accept",
                            lambda self, *args: False)
        with pytest.raises(DeadlockError, match="workgroups pending"):
            self._run(vec_add_dual, "gcn3", small_config(1))

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_idle_gpu_with_no_events(self, vec_add_dual, monkeypatch, isa):
        # Fetches complete but deliver nothing: every wavefront parks on
        # an empty buffer and no event is left to wake it.
        monkeypatch.setattr(ComputeUnit, "_finish_fetch",
                            lambda self, wf, epoch: None)
        with pytest.raises(DeadlockError, match="GPU idle"):
            self._run(vec_add_dual, isa, small_config(1))

    def test_no_progress_while_events_keep_firing(self, vec_add_dual,
                                                  monkeypatch):
        # A fetch that never lands: its event keeps re-arming itself, so
        # the clock moves but nothing issues or completes.
        def never_lands(self, wf, epoch):
            self.events.schedule(50, self._finish_fetch, wf, epoch)

        monkeypatch.setattr(ComputeUnit, "_finish_fetch", never_lands)
        config = small_config(1).scaled(deadlock_cycles=2000)
        with pytest.raises(DeadlockError, match="no progress for 2000"):
            self._run(vec_add_dual, "gcn3", config)

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_long_dram_wait_is_progress(self, vec_add_dual, isa):
        # Each load waits 5000 cycles on DRAM, five times the watchdog's
        # window: its completion is the progress the watchdog sees.
        config = small_config(1).with_overrides(
            {"dram.base_latency_cycles": 5000}).scaled(deadlock_cycles=1000)
        stats = self._run(vec_add_dual, isa, config)
        assert stats["cycles"] > 2 * 5000

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_issuing_steps_are_progress(self, isa):
        # A dependent chain of 400-cycle VALU issues in one wavefront
        # whose buffer holds the whole kernel: after the first fetches no
        # event fires for thousands of cycles, so only the issues keep
        # the watchdog quiet (HSAIL's scoreboard holds each dependent
        # for 1,200 cycles, inside the 1,500-cycle window).
        kb = KernelBuilder("chain", [("out", DType.U64)])
        tid = kb.wi_abs_id()
        acc = kb.var(DType.F32, kb.cvt(tid, DType.F32))
        for _ in range(24):
            kb.assign(acc, acc * 1.5 + 1.0)
        kb.store(Segment.GLOBAL,
                 kb.kernarg("out") + kb.cvt(tid, DType.U64) * 4, acc)
        dual = Session().compile(kb.finish())
        config = small_config(1).with_overrides(
            {"cu.valu_issue_cycles": 400, "cu.ib_entries": 512,
             "cu.fetch_width_bytes": 4096}).scaled(deadlock_cycles=1500)
        proc = GpuProcess(isa)
        out = proc.alloc_buffer(4 * 64)
        proc.dispatch(dual.for_isa(isa), grid=64, wg=64, kernargs=[out])
        stats = Gpu(config, proc).run_all()[0]
        assert stats["cycles"] > 10 * 1500
