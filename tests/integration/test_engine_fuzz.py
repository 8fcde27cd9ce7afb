"""Seeded property-based fuzzing: scalar vs vector replay equivalence.

Random kernels built through the same DSL generator style as
``test_cross_isa_fuzz`` are captured, then the recorded trace is
replayed under both cursors; the per-dispatch StatSet payloads must be
bit-identical all three ways, and the statistics the trace's fold feeds
must equal the independent per-issue walk of ``tests/trace_oracle.py``.
Four targeted strategies stress exactly what the batch decode and fold
of timing/vector.py must get right:

* **divergent control flow** — nested data-dependent ifs, else-arms,
  and short variable-trip loops, so the recorded streams are full of
  partial active masks, taken branches, and reconvergence jumps;
* **partial-EXEC memory ops** — loads and stores issued under
  predicates, so memory-line slices must stay keyed to issue order even
  when some lanes (or whole records) contribute nothing;
* **bank-conflict-heavy VRF patterns** — long operand chains over a
  small register window, hammering reuse distances, gather windows, and
  the sampled uniqueness probes;
* **waitcnt-heavy chains** — loads consumed immediately, so the stream
  is dense with ``s_waitcnt`` / scoreboard park-unpark boundaries.

``derandomize=True`` keeps each run's example sequence fixed (seeded
fuzz): CI failures reproduce locally from the printed example alone.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import small_config
from repro.core import Session
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.runtime.memory import Segment
from repro.runtime.process import GpuProcess
from repro.timing.gpu import Gpu
from repro.timing.replay import TraceRecorder
from tests.trace_oracle import trace_determined, walk_trace

N = 128  # two wavefronts, so inter-wavefront interleaving replays too

_INT_BINOPS = ["add", "sub", "mul", "bit_and", "bit_or", "bit_xor",
               "min", "max"]
_CMP_OPS = ["eq", "ne", "lt", "le", "gt", "ge"]

_FUZZ_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


def _dispatch(dual, isa, data):
    proc = GpuProcess(isa)
    inp = proc.upload(data)
    out = proc.alloc_buffer(4 * N)
    proc.dispatch(dual.for_isa(isa), grid=N, wg=64, kernargs=[inp, out])
    return proc


def _assert_engines_identical(dual, isa, data):
    """Capture, then replay scalar and vector; all payloads must match,
    and the fold-fed statistics must match the per-issue oracle."""
    cfg = small_config(2)
    rec = TraceRecorder()
    capture = Gpu(cfg, _dispatch(dual, isa, data), recorder=rec).run_all()
    trace = rec.finish({"verified": True, "workload": "fuzz", "isa": isa})
    (stats,) = capture
    assert trace_determined(stats) == trace_determined(
        walk_trace(trace, dual.for_isa(isa), 1)), f"fold diverged on {isa}"
    reference = [s.to_payload() for s in capture]
    for engine in ("scalar", "vector"):
        gpu = Gpu(cfg.with_overrides({"engine": engine}),
                  _dispatch(dual, isa, data), replay=trace)
        assert gpu.engine == engine
        replayed = [s.to_payload() for s in gpu.run_all()]
        assert replayed == reference, f"{engine} replay diverged on {isa}"


def _both_isas(build, program, data_seed):
    data = (np.random.default_rng(data_seed)
            .integers(1, 2**16, N).astype(np.uint32))
    dual = Session().compile(build(program))
    for isa in ("hsail", "gcn3"):
        _assert_engines_identical(dual, isa, data)


# ---------------------------------------------------------------------------
# Strategy 1: divergent control flow
# ---------------------------------------------------------------------------


@st.composite
def divergent_programs(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=2, max_value=7))):
        ops.append((
            draw(st.sampled_from(["if", "if_else", "loop", "op"])),
            draw(st.sampled_from(_CMP_OPS)),
            draw(st.integers(min_value=0, max_value=63)),
            draw(st.sampled_from(_INT_BINOPS)),
            draw(st.integers(min_value=1, max_value=999)),
            draw(st.booleans()),
        ))
    return ops


def _build_divergent(ops):
    kb = KernelBuilder("fuzz_div", [("inp", DType.U64), ("out", DType.U64)])
    tid = kb.wi_abs_id()
    off = kb.cvt(tid, DType.U64) * 4
    out = kb.kernarg("out")
    loaded = kb.load(Segment.GLOBAL, kb.kernarg("inp") + off, DType.U32)
    acc = kb.var(DType.U32, loaded)
    lane = kb.bit_and(tid, 63)
    for kind, cmp_op, const, op, delta, mem in ops:
        pred = getattr(kb, cmp_op)(lane, const)
        if kind == "if":
            with kb.If(pred):
                kb.assign(acc, getattr(kb, op)(acc, delta))
                if mem:  # partial-EXEC store under the branch predicate
                    kb.store(Segment.GLOBAL, out + off, acc)
        elif kind == "if_else":
            with kb.If(pred) as br:
                kb.assign(acc, kb.add(acc, delta))
                with br.Else():
                    kb.assign(acc, kb.bit_xor(acc, delta))
        elif kind == "loop":
            trips = kb.add(kb.bit_and(lane, 3), 1)  # 1..4, lane-dependent
            with kb.for_range(0, trips) as i:
                kb.assign(acc, kb.add(acc, kb.add(i, delta)))
        else:
            kb.assign(acc, getattr(kb, op)(acc, delta))
    kb.store(Segment.GLOBAL, out + off, acc)
    return kb.finish()


@given(divergent_programs(), st.integers(min_value=0, max_value=2**31))
@_FUZZ_SETTINGS
def test_divergent_control_flow(program, data_seed):
    _both_isas(_build_divergent, program, data_seed)


# ---------------------------------------------------------------------------
# Strategy 2: memory ops under partial EXEC
# ---------------------------------------------------------------------------


@st.composite
def partial_mem_programs(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        ops.append((
            draw(st.sampled_from(_CMP_OPS)),
            draw(st.integers(min_value=0, max_value=63)),
            draw(st.booleans()),                      # load vs store
            draw(st.integers(min_value=0, max_value=3)),  # address shear
        ))
    return ops


def _build_partial_mem(ops):
    kb = KernelBuilder("fuzz_mem", [("inp", DType.U64), ("out", DType.U64)])
    tid = kb.wi_abs_id()
    off = kb.cvt(tid, DType.U64) * 4
    out = kb.kernarg("out")
    loaded = kb.load(Segment.GLOBAL, kb.kernarg("inp") + off, DType.U32)
    acc = kb.var(DType.U32, loaded)
    lane = kb.bit_and(tid, 63)
    for cmp_op, const, is_load, shift in ops:
        pred = getattr(kb, cmp_op)(lane, const)
        with kb.If(pred):
            # sheared addresses keep coalescing interesting but in-bounds
            addr = out + kb.cvt(kb.bit_and(kb.shl(tid, shift), N - 1),
                                DType.U64) * 4
            if is_load:
                kb.assign(acc, kb.add(acc, kb.load(Segment.GLOBAL, addr,
                                                   DType.U32)))
            else:
                kb.store(Segment.GLOBAL, addr, acc)
    kb.store(Segment.GLOBAL, out + off, acc)
    return kb.finish()


@given(partial_mem_programs(), st.integers(min_value=0, max_value=2**31))
@_FUZZ_SETTINGS
def test_partial_exec_memory_ops(program, data_seed):
    _both_isas(_build_partial_mem, program, data_seed)


# ---------------------------------------------------------------------------
# Strategy 3: bank-conflict-heavy VRF operand patterns
# ---------------------------------------------------------------------------


@st.composite
def vrf_heavy_programs(draw):
    picks = []
    for _ in range(draw(st.integers(min_value=12, max_value=32))):
        picks.append((
            draw(st.sampled_from(_INT_BINOPS)),
            draw(st.integers(min_value=0, max_value=5)),
            draw(st.integers(min_value=0, max_value=5)),
        ))
    return picks


def _build_vrf_heavy(picks):
    kb = KernelBuilder("fuzz_vrf", [("inp", DType.U64), ("out", DType.U64)])
    tid = kb.wi_abs_id()
    off = kb.cvt(tid, DType.U64) * 4
    loaded = kb.load(Segment.GLOBAL, kb.kernarg("inp") + off, DType.U32)
    # a rolling six-value window: every op reads two live registers, so
    # operand gathers keep revisiting the same few VRF slots
    window = [tid, loaded, kb.add(tid, loaded), kb.bit_xor(tid, loaded),
              kb.mul(loaded, 3), kb.shl(tid, 2)]
    for op, a, b in picks:
        window = window[1:] + [getattr(kb, op)(window[a], window[b])]
    result = window[0]
    for v in window[1:]:
        result = kb.bit_xor(result, v)
    kb.store(Segment.GLOBAL, kb.kernarg("out") + off, result)
    return kb.finish()


@given(vrf_heavy_programs(), st.integers(min_value=0, max_value=2**31))
@_FUZZ_SETTINGS
def test_vrf_bank_conflict_patterns(program, data_seed):
    _both_isas(_build_vrf_heavy, program, data_seed)


# ---------------------------------------------------------------------------
# Strategy 4: waitcnt-heavy load/consume chains
# ---------------------------------------------------------------------------


@st.composite
def waitcnt_heavy_programs(draw):
    """Load-then-immediately-consume chains: on GCN3 the finalizer has
    to drop an ``s_waitcnt`` in front of nearly every consumer (and the
    HSAIL scoreboard blocks the same way), so nearly every issue sits
    next to a park/unpark boundary."""
    ops = []
    for _ in range(draw(st.integers(min_value=3, max_value=8))):
        ops.append((
            draw(st.integers(min_value=0, max_value=3)),   # address shear
            draw(st.sampled_from(_INT_BINOPS)),            # consumer op
            draw(st.integers(min_value=0, max_value=2)),   # ALU padding
        ))
    return ops


def _build_waitcnt_heavy(ops):
    kb = KernelBuilder("fuzz_waitcnt", [("inp", DType.U64),
                                        ("out", DType.U64)])
    tid = kb.wi_abs_id()
    off = kb.cvt(tid, DType.U64) * 4
    inp = kb.kernarg("inp")
    acc = kb.var(DType.U32, kb.load(Segment.GLOBAL, inp + off, DType.U32))
    for shift, op, pad in ops:
        addr = inp + kb.cvt(kb.bit_and(kb.shl(tid, shift), N - 1),
                            DType.U64) * 4
        loaded = kb.load(Segment.GLOBAL, addr, DType.U32)
        # consume the load right away: forces a waitcnt/scoreboard stall
        kb.assign(acc, getattr(kb, op)(acc, loaded))
        for _ in range(pad):  # a little independent ALU between loads
            kb.assign(acc, kb.add(acc, 1))
    kb.store(Segment.GLOBAL, kb.kernarg("out") + off, acc)
    return kb.finish()


@given(waitcnt_heavy_programs(), st.integers(min_value=0, max_value=2**31))
@_FUZZ_SETTINGS
def test_waitcnt_heavy_chains(program, data_seed):
    _both_isas(_build_waitcnt_heavy, program, data_seed)
