"""Global-atomic extension tests (both ISAs, both engines)."""

import hashlib

import numpy as np
import pytest

from repro.common.config import small_config
from repro.common.errors import KernelBuildError
from repro.core import Session, run_dispatch_functional
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.obs.trace import TraceBus, TraceConfig
from repro.runtime.memory import Segment
from repro.runtime.process import GpuProcess
from repro.timing.gpu import Gpu
from repro.timing.replay import TraceRecorder


def build_histogram(bins):
    """counts[x[i] % bins] += 1, old value recorded per work-item."""
    kb = KernelBuilder(
        "hist", [("x", DType.U64), ("counts", DType.U64), ("old", DType.U64)],
    )
    tid = kb.wi_abs_id()
    off = kb.cvt(tid, DType.U64) * 4
    value = kb.load(Segment.GLOBAL, kb.kernarg("x") + off, DType.U32)
    bin_idx = value & (bins - 1)
    slot = kb.kernarg("counts") + kb.cvt(bin_idx, DType.U64) * 4
    old = kb.atomic_add(Segment.GLOBAL, slot, 1)
    kb.store(Segment.GLOBAL, kb.kernarg("old") + off, old)
    return Session().compile(kb.finish())


BINS = 8
N = 256


@pytest.fixture(scope="module")
def hist_dual():
    return build_histogram(BINS)


def stage(dual, isa, data):
    proc = GpuProcess(isa)
    x = proc.upload(data)
    counts = proc.upload(np.zeros(BINS, dtype=np.uint32))
    old = proc.alloc_buffer(4 * N)
    proc.dispatch(dual.for_isa(isa), grid=N, wg=64, kernargs=[x, counts, old])
    return proc, counts, old


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(11).integers(0, 2**16, N).astype(np.uint32)


class TestFunctional:
    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_histogram_counts(self, hist_dual, data, isa):
        proc, counts, _old = stage(hist_dual, isa, data)
        run_dispatch_functional(proc, proc.dispatches[0])
        got = proc.download(counts, np.uint32, BINS)
        expected = np.bincount(data % BINS, minlength=BINS).astype(np.uint32)
        assert np.array_equal(got, expected)

    def test_old_values_identical_across_isas(self, hist_dual, data):
        outs = {}
        for isa in ("hsail", "gcn3"):
            proc, _counts, old = stage(hist_dual, isa, data)
            run_dispatch_functional(proc, proc.dispatches[0])
            outs[isa] = proc.download(old, np.uint32, N)
        assert np.array_equal(outs["hsail"], outs["gcn3"])


class TestTiming:
    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_histogram_through_timing_model(self, hist_dual, data, isa):
        proc, counts, _old = stage(hist_dual, isa, data)
        stats = Gpu(small_config(2), proc).run_all()[0]
        got = proc.download(counts, np.uint32, BINS)
        expected = np.bincount(data % BINS, minlength=BINS).astype(np.uint32)
        assert np.array_equal(got, expected)
        assert stats.dynamic_instructions > 0


def build_ticket():
    """``old = atomic_add(ctr, 1); if old < limit: out[tid] = 3 * old``.

    Which wavefronts draw a ticket under the limit — and so which take
    the branch, with how many lanes — depends on the order wavefronts of
    *different workgroups* reach the atomic: a value crosses wavefronts
    and feeds control flow, the case that made an execute-at-issue trace
    a function of the timing configuration.
    """
    kb = KernelBuilder(
        "ticket", [("ctr", DType.U64), ("out", DType.U64), ("limit", DType.U32)])
    off = kb.cvt(kb.wi_abs_id(), DType.U64) * 4
    old = kb.atomic_add(Segment.GLOBAL, kb.kernarg("ctr"), 1)
    with kb.If(kb.lt(old, kb.kernarg("limit"))):
        kb.store(Segment.GLOBAL, kb.kernarg("out") + off, old * 3 + 1)
    return Session().compile(kb.finish())


def stage_ticket(dual, isa):
    proc = GpuProcess(isa)
    ctr = proc.upload(np.zeros(1, dtype=np.uint32))
    out = proc.upload(np.zeros(1024, dtype=np.uint32))
    # 16 workgroups of 2 wavefronts; the limit splits a wavefront.
    proc.dispatch(dual.for_isa(isa), grid=1024, wg=128,
                  kernargs=[ctr, out, 500])
    return proc, out


def build_lds_handoff():
    """Each work-item publishes a value in LDS; after the barrier it reads
    the slot the *other* wavefront of its workgroup wrote and branches on
    it.  Race-free, but only if the functional pass really holds the
    consumer back until the producer reached the barrier."""
    kb = KernelBuilder(
        "handoff", [("x", DType.U64), ("out", DType.U64), ("limit", DType.U32)])
    tid = kb.wi_abs_id()
    lid = kb.wi_id()
    off = kb.cvt(tid, DType.U64) * 4
    lds = kb.group_alloc("box", 4 * 128)
    kb.store(Segment.GROUP, lds + lid * 4,
             kb.load(Segment.GLOBAL, kb.kernarg("x") + off, DType.U32))
    kb.barrier()
    theirs = kb.load(Segment.GROUP, lds + ((lid + 64) & 127) * 4, DType.U32)
    result = kb.var(DType.U32, 0)
    with kb.If(kb.lt(theirs, kb.kernarg("limit"))):
        kb.assign(result, theirs * 3)
    kb.store(Segment.GLOBAL, kb.kernarg("out") + off, result)
    return Session().compile(kb.finish())


def stage_lds_handoff(dual, isa):
    proc = GpuProcess(isa)
    data = np.random.default_rng(5).integers(0, 1000, 512).astype(np.uint32)
    x = proc.upload(data)
    out = proc.alloc_buffer(4 * 512)
    proc.dispatch(dual.for_isa(isa), grid=512, wg=128, kernargs=[x, out, 400])
    return proc, out, data


#: Configurations whose schedules diverge: where workgroups land, how
#: long a miss takes, and whether the working set stays resident.
TIMING_CONFIGS = {
    "cus2": small_config(2),
    "cus4": small_config(4),
    "slow_l2": small_config(2).with_overrides({"l2.hit_latency": 400}),
    "tiny_l1d": small_config(2).with_overrides({"l1d.size_bytes": 1024}),
}


def _payloads(stats):
    return [s.to_payload() for s in stats]


def _assert_trace_is_config_independent(stage_one):
    """One trace blob under every timing config; under each of them
    execute == replay of that trace == event-traced execute.
    ``stage_one()`` stages a fresh process."""
    blobs = {}
    for name, config in TIMING_CONFIGS.items():
        recorder = TraceRecorder()
        captured = _payloads(
            Gpu(config, stage_one(), recorder=recorder).run_all())
        trace = recorder.finish({})
        blobs[name] = hashlib.sha256(trace.to_bytes()).hexdigest()
        executed = Gpu(config, stage_one()).run_all()
        assert _payloads(executed) == captured
        assert trace.dynamic_instructions == sum(
            s.dynamic_instructions for s in executed)
        replayed = Gpu(config, stage_one(), replay=trace).run_all()
        assert _payloads(replayed) == captured
        traced = Gpu(config, stage_one(),
                     trace=TraceBus(TraceConfig())).run_all()
        assert _payloads(traced) == captured
    assert len(set(blobs.values())) == 1, blobs


@pytest.mark.parametrize("isa", ["hsail", "gcn3"])
class TestTraceIndependence:
    def test_ticket_trace_is_a_function_of_program_and_input(self, isa):
        dual = build_ticket()
        _assert_trace_is_config_independent(
            lambda: stage_ticket(dual, isa)[0])
        # The canonical order hands tickets out in wavefront order.
        proc, out = stage_ticket(dual, isa)
        Gpu(small_config(4), proc).run_all()
        tickets = np.arange(1024, dtype=np.uint32)
        assert np.array_equal(
            proc.download(out, np.uint32, 1024),
            np.where(tickets < 500, tickets * 3 + 1, 0))

    def test_lds_handoff_across_a_barrier(self, isa):
        dual = build_lds_handoff()
        _assert_trace_is_config_independent(
            lambda: stage_lds_handoff(dual, isa)[0])
        proc, out, data = stage_lds_handoff(dual, isa)
        Gpu(small_config(2), proc).run_all()
        theirs = data.reshape(-1, 128)[:, (np.arange(128) + 64) & 127].ravel()
        assert np.array_equal(proc.download(out, np.uint32, 512),
                              np.where(theirs < 400, theirs * 3, 0))


class TestLowering:
    def test_maps_to_flat_atomic(self, hist_dual):
        ops = [i.opcode for i in hist_dual.gcn3.instrs]
        assert "flat_atomic_add" in ops

    def test_result_waited_before_use(self, hist_dual):
        """The old value flows into a store, so a waitcnt must separate
        the atomic from its consumer."""
        instrs = hist_dual.gcn3.instrs
        idx = next(i for i, x in enumerate(instrs)
                   if x.opcode == "flat_atomic_add")
        dest = instrs[idx].vgpr_writes()
        for later in instrs[idx + 1:]:
            if later.opcode == "s_waitcnt":
                break
            assert not (set(later.vgpr_reads()) & set(dest))

    def test_encoding_roundtrip(self, hist_dual):
        from repro.gcn3.encoding import decode_kernel, encode_kernel

        decoded = decode_kernel(encode_kernel(hist_dual.gcn3))
        assert "flat_atomic_add" in [i.opcode for i in decoded]

    def test_brig_roundtrip(self, hist_dual):
        from repro.hsail.brig import decode_brig, encode_brig

        decoded = decode_brig(encode_brig(hist_dual.hsail))
        assert any(i.opcode == "atomic_add" for i in decoded.instrs)


class TestValidation:
    def test_lds_atomics_rejected(self):
        kb = KernelBuilder("bad", [("p", DType.U64)])
        with pytest.raises(KernelBuildError):
            kb.atomic_add(Segment.GROUP, kb.const(DType.U32, 0), 1)
