"""Nested control-flow torture tests: every combination of uniform and
divergent ifs/loops, verified cross-ISA and against numpy references."""

import numpy as np
import pytest

from repro.common.config import small_config
from repro.common.errors import DeadlockError
from repro.core import Session, run_dispatch_functional
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.runtime.memory import Segment
from repro.runtime.process import GpuProcess
from repro.timing.cu import ComputeUnit
from repro.timing.gpu import Gpu

N = 128


def run_both(dual, data, extra=()):
    outs = {}
    for isa in ("hsail", "gcn3"):
        proc = GpuProcess(isa)
        inp = proc.upload(data)
        out = proc.alloc_buffer(4 * N)
        proc.dispatch(dual.for_isa(isa), grid=N, wg=64,
                      kernargs=[inp, out] + list(extra))
        run_dispatch_functional(proc, proc.dispatches[0])
        outs[isa] = proc.download(out, np.uint32, N)
    assert np.array_equal(outs["hsail"], outs["gcn3"])
    return outs["gcn3"]


def standard_params():
    return [("inp", DType.U64), ("out", DType.U64)]


class TestNesting:
    def test_divergent_if_inside_divergent_loop(self):
        kb = KernelBuilder("k", standard_params())
        tid = kb.wi_abs_id()
        off = kb.cvt(tid, DType.U64) * 4
        x = kb.load(Segment.GLOBAL, kb.kernarg("inp") + off, DType.U32)
        total = kb.var(DType.U32, 0)
        i = kb.var(DType.U32, 0)
        with kb.Loop() as loop:
            with kb.If(kb.gt(i & 1, 0)):       # odd iterations only
                kb.assign(total, total + i)
            kb.assign(i, i + 1)
            loop.continue_if(kb.lt(i, x & 15))  # per-lane trip count
        kb.store(Segment.GLOBAL, kb.kernarg("out") + off, total)
        dual = Session().compile(kb.finish())

        data = np.random.default_rng(0).integers(1, 2**16, N).astype(np.uint32)
        got = run_both(dual, data)
        expected = np.zeros(N, dtype=np.uint32)
        for lane in range(N):
            total = i = 0
            while True:
                if i & 1:
                    total += i
                i += 1
                if not (i < (data[lane] & 15)):
                    break
            expected[lane] = total
        assert np.array_equal(got, expected)

    def test_divergent_loop_inside_divergent_if(self):
        kb = KernelBuilder("k", standard_params())
        tid = kb.wi_abs_id()
        off = kb.cvt(tid, DType.U64) * 4
        x = kb.load(Segment.GLOBAL, kb.kernarg("inp") + off, DType.U32)
        acc = kb.var(DType.U32, 0)
        with kb.If(kb.gt(x & 7, 2)) as br:
            j = kb.var(DType.U32, 0)
            with kb.Loop() as loop:
                kb.assign(acc, acc + 3)
                kb.assign(j, j + 1)
                loop.continue_if(kb.lt(j, x & 3))
            with br.Else():
                kb.assign(acc, 99)
        kb.store(Segment.GLOBAL, kb.kernarg("out") + off, acc)
        dual = Session().compile(kb.finish())

        data = np.random.default_rng(1).integers(0, 2**16, N).astype(np.uint32)
        got = run_both(dual, data)
        expected = np.zeros(N, dtype=np.uint32)
        for lane in range(N):
            x = int(data[lane])
            if (x & 7) > 2:
                acc = j = 0
                while True:
                    acc += 3
                    j += 1
                    if not (j < (x & 3)):
                        break
                expected[lane] = acc
            else:
                expected[lane] = 99
        assert np.array_equal(got, expected)

    def test_three_deep_nesting(self):
        kb = KernelBuilder("k", standard_params())
        tid = kb.wi_abs_id()
        off = kb.cvt(tid, DType.U64) * 4
        x = kb.load(Segment.GLOBAL, kb.kernarg("inp") + off, DType.U32)
        acc = kb.var(DType.U32, 0)
        with kb.for_range(0, 3) as i:             # uniform loop
            with kb.If(kb.lt(x & 3, 2)):          # divergent if
                with kb.If(kb.eq(i, 1)) as inner:  # uniform-per-iter if
                    kb.assign(acc, acc + 100)
                    with inner.Else():
                        kb.assign(acc, acc + x)
        kb.store(Segment.GLOBAL, kb.kernarg("out") + off, acc)
        dual = Session().compile(kb.finish())

        data = np.random.default_rng(2).integers(0, 1000, N).astype(np.uint32)
        got = run_both(dual, data)
        expected = np.zeros(N, dtype=np.uint32)
        for lane in range(N):
            acc = 0
            for i in range(3):
                if (data[lane] & 3) < 2:
                    acc = acc + 100 if i == 1 else acc + int(data[lane])
            expected[lane] = acc & 0xFFFFFFFF
        assert np.array_equal(got, expected)

    def test_sequential_divergent_ifs_reconverge(self):
        """Mask must be fully restored between sibling regions."""
        kb = KernelBuilder("k", standard_params())
        tid = kb.wi_abs_id()
        off = kb.cvt(tid, DType.U64) * 4
        x = kb.load(Segment.GLOBAL, kb.kernarg("inp") + off, DType.U32)
        acc = kb.var(DType.U32, 0)
        with kb.If(kb.lt(x, 100)):
            kb.assign(acc, acc + 1)
        with kb.If(kb.ge(x, 100)):
            kb.assign(acc, acc + 2)
        # every lane passes exactly one guard
        kb.store(Segment.GLOBAL, kb.kernarg("out") + off, acc)
        dual = Session().compile(kb.finish())
        data = np.random.default_rng(3).integers(0, 200, N).astype(np.uint32)
        got = run_both(dual, data)
        expected = np.where(data < 100, 1, 2).astype(np.uint32)
        assert np.array_equal(got, expected)


class TestTimingDeterminism:
    def test_identical_runs_identical_cycles(self, branchy_dual):
        results = []
        data = np.random.default_rng(5).integers(0, 100, N).astype(np.uint32)
        for _ in range(2):
            proc = GpuProcess("gcn3")
            inp = proc.upload(data)
            out = proc.alloc_buffer(4 * N)
            proc.dispatch(branchy_dual.gcn3, grid=N, wg=64,
                          kernargs=[inp, out, 50])
            stats = Gpu(small_config(2), proc).run_all()[0]
            results.append(stats.snapshot())
        assert results[0] == results[1]


class TestDeadlockDetection:
    def test_divergent_barrier_deadlocks_loudly(self, monkeypatch):
        """A barrier only one wavefront reaches used to hang the
        workgroup on the CU.  Hardware and the functional pass open it
        when the sibling ends, and so does the CU now; with that release
        knocked out again the workgroup wedges, and the dispatcher must
        diagnose it rather than spin."""
        kb = KernelBuilder("bad_barrier", [("out", DType.U64)])
        tid = kb.wi_abs_id()
        with kb.If(kb.lt(tid, 64)):  # only the first wavefront arrives
            kb.barrier()
        kb.store(Segment.GLOBAL, kb.kernarg("out") + kb.cvt(tid, DType.U64) * 4,
                 tid)
        dual = Session().compile(kb.finish())
        config = small_config(1).scaled(deadlock_cycles=20_000)

        def staged():
            proc = GpuProcess("gcn3")
            out = proc.alloc_buffer(4 * 128)
            proc.dispatch(dual.gcn3, grid=128, wg=128, kernargs=[out])
            return proc, out

        proc, out = staged()
        Gpu(config, proc).run_all()
        assert np.array_equal(proc.memory.read_array(out, np.uint32, 128),
                              np.arange(128, dtype=np.uint32))
        monkeypatch.setattr(ComputeUnit, "_release_barrier",
                            lambda self, record: None)
        with pytest.raises(DeadlockError):
            Gpu(config, staged()[0]).run_all()
