"""Core engine odds and ends: funcsim limits, DualKernel API."""

import functools

import numpy as np
import pytest

from repro.common.config import small_config
from repro.common.errors import DeadlockError
from repro.core import Session, run_dispatch_functional
from repro.core.api import DualKernel
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.runtime.memory import Segment
from repro.runtime.process import GpuProcess
from repro.timing import gpu as gpu_module
from repro.timing.gpu import Gpu
from repro.workloads import base as workload_base


class TestDualKernel:
    def test_for_isa(self, vec_add_dual):
        assert vec_add_dual.for_isa("hsail") is vec_add_dual.hsail
        assert vec_add_dual.for_isa("gcn3") is vec_add_dual.gcn3
        with pytest.raises(ValueError):
            vec_add_dual.for_isa("ptx")

    def test_name_and_ratio(self, vec_add_dual):
        assert vec_add_dual.name == "vec_add"
        assert vec_add_dual.expansion_ratio > 1.0

    def test_compile_is_deterministic(self):
        def build():
            kb = KernelBuilder("d", [("p", DType.U64)])
            tid = kb.wi_abs_id()
            kb.store(Segment.GLOBAL,
                     kb.kernarg("p") + kb.cvt(tid, DType.U64) * 4, tid * 3)
            return kb.finish()

        a = Session().compile(build())
        b = Session().compile(build())
        assert [repr(i) for i in a.gcn3.instrs] == [repr(i) for i in b.gcn3.instrs]
        assert [repr(i) for i in a.hsail.instrs] == [repr(i) for i in b.hsail.instrs]


def _spin_ir():
    kb = KernelBuilder("spin", [("p", DType.U64)])
    i = kb.var(DType.U32, 0)
    with kb.Loop() as loop:
        kb.assign(i, i + 1)
        loop.continue_if(kb.ge(i, 0))  # never exits (u32 always >= 0)
    kb.store(Segment.GLOBAL, kb.kernarg("p"), i)
    return kb.finish()


def _bad_barrier_ir():
    kb = KernelBuilder("bad_barrier", [("p", DType.U64)])
    tid = kb.wi_abs_id()
    with kb.If(kb.lt(tid, 64)):  # only the first wavefront arrives
        kb.barrier()
    kb.store(Segment.GLOBAL, kb.kernarg("p") + kb.cvt(tid, DType.U64) * 4, tid)
    return kb.finish()


class _Hang(workload_base.Workload):
    """A one-kernel workload that never finishes (test-registered)."""

    name = "hang"
    build_ir = staticmethod(_spin_ir)

    def build_kernels(self):
        return {"k": self.build_ir()}

    def stage(self, process, isa):
        self.out = process.alloc_buffer(4 * 128)
        process.dispatch(self.kernel("k", isa), grid=128, wg=128,
                         kernargs=[self.out])

    def verify(self, process):
        return False


class _BarrierMismatch(_Hang):
    """One wavefront of two waits at a barrier its sibling never
    reaches: hardware and the functional pass release it when the
    sibling ends, so the dispatch completes and writes every element."""

    build_ir = staticmethod(_bad_barrier_ir)

    def verify(self, process):
        return np.array_equal(
            process.memory.read_array(self.out, np.uint32, 128),
            np.arange(128, dtype=np.uint32))


class TestFuncsimLimits:
    def test_step_limit_catches_runaway_loops(self):
        dual = Session().compile(_spin_ir())
        proc = GpuProcess("gcn3")
        out = proc.alloc_buffer(64)
        proc.dispatch(dual.gcn3, grid=64, wg=64, kernargs=[out])
        with pytest.raises(DeadlockError):
            run_dispatch_functional(proc, proc.dispatches[0], step_limit=5000)

    @pytest.mark.parametrize("hang,isa", [(_Hang, "hsail"), (_Hang, "gcn3")])
    def test_hangs_surface_from_the_gpu_and_the_session(self, monkeypatch,
                                                        hang, isa):
        """A runaway loop hangs in the functional pass and surfaces as a
        ``DeadlockError`` from both doors."""
        monkeypatch.setattr(
            gpu_module, "run_dispatch_functional",
            functools.partial(run_dispatch_functional, step_limit=5000))
        monkeypatch.setitem(workload_base._REGISTRY, "hang", hang)
        proc = GpuProcess(isa)
        hang().stage(proc, isa)
        with pytest.raises(DeadlockError):
            Gpu(small_config(1), proc).run_all()
        with pytest.raises(DeadlockError):
            Session(small_config(1)).run("hang", isa)

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_barrier_mismatch_completes(self, monkeypatch, isa):
        """The CU releases a barrier when the last wavefront that could
        still arrive ends instead (it used to deadlock on GCN3, where the
        first wavefront arrives before the second ends), and agrees with
        the functional pass on the memory image."""
        monkeypatch.setitem(workload_base._REGISTRY, "mismatch",
                            _BarrierMismatch)
        timed, functional = GpuProcess(isa), GpuProcess(isa)
        workload = _BarrierMismatch()
        workload.stage(timed, isa)
        workload.stage(functional, isa)
        (stats,) = Gpu(small_config(1), timed).run_all()
        run_dispatch_functional(functional, functional.dispatches[0])
        assert stats.cycles > 0 and stats["barriers"] == 1
        assert workload.verify(timed)
        limit = timed.memory.mapped_limit
        assert limit == functional.memory.mapped_limit
        assert np.array_equal(
            timed.memory.read_block(0x1_0000, limit - 0x1_0000),
            functional.memory.read_block(0x1_0000, limit - 0x1_0000))
        run = Session(small_config(1)).run("mismatch", isa)
        assert run.verified and run.cycles > 0

    def test_signal_decremented_on_completion(self, vec_add_dual):
        proc = GpuProcess("gcn3")
        a = proc.upload(np.zeros(64, dtype=np.float32))
        out = proc.alloc_buffer(4 * 64)
        d = proc.dispatch(vec_add_dual.gcn3, grid=64, wg=64,
                          kernargs=[a, a, out])
        assert d.signal.value == 1
        run_dispatch_functional(proc, d)
        d.signal.wait_zero()
