"""Adversarial tests of the functional pass's lockstep group loop.

The group loop runs the wavefronts of a dispatch together, one step per
group of wavefronts at the same pc.  Every kernel here is built to make
groups split and re-merge -- per-wavefront trip counts, per-wavefront
EXEC patterns, barriers in loops with a ragged last wavefront, LDS
shared by every workgroup of a group, immediate (shared) addresses,
odd-aligned 64-bit register pairs -- and each must leave the same
device memory and the same trace bytes as the per-instruction reference
driver of ``tests/trace_oracle.py``, on both ISAs.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.common.errors import DeadlockError, ExecutionError
from repro.common.lanes import has_atomic
from repro.core import Session
from repro.gcn3.abi import first_free_vgpr
from repro.gcn3.isa import VReg
from repro.gcn3.semantics import Gcn3Wavefronts
from repro.hsail.isa import HReg
from repro.hsail.semantics import HsailWavefronts
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.runtime.memory import HEAP_BASE, Segment
from repro.runtime.process import GpuProcess
from repro.timing.funcsim import run_dispatch_functional
from repro.timing.replay import TraceRecorder
from tests.trace_oracle import run_dispatch_reference

ISAS = ("hsail", "gcn3")


def _params():
    return [("inp", DType.U64), ("out", DType.U64)]


def _slot(kb, name, index, width=4):
    return kb.kernarg(name) + kb.cvt(index, DType.U64) * width


def scalar_trip_by_wavefront():
    """A loop whose trip count is uniform in a wavefront but differs
    between them (a scalar loop on GCN3)."""
    kb = KernelBuilder("trip", _params())
    tid = kb.wi_abs_id()
    acc = kb.var(DType.U32, 1)
    i = kb.var(DType.U32, 0)
    with kb.Loop() as loop:
        kb.assign(acc, acc * 3 + tid)
        kb.assign(i, i + 1)
        loop.continue_if(kb.lt(i, (kb.wg_id() & 3) + 1))
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid), acc)
    return kb


def divergent_exec_patterns():
    """Nested divergent branches whose taken lanes differ per wavefront
    (the input makes some wavefronts take none, some all, some half)."""
    kb = KernelBuilder("patterns", _params())
    tid = kb.wi_abs_id()
    x = kb.load(Segment.GLOBAL, _slot(kb, "inp", tid), DType.U32)
    acc = kb.var(DType.U32, 0)
    with kb.If(kb.gt(x & 1, 0)) as outer:
        kb.assign(acc, acc + x)
        with kb.If(kb.gt(x & 2, 0)):
            kb.assign(acc, acc * 5)
        with outer.Else():
            kb.assign(acc, acc + 100)
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid), acc + tid)
    return kb


def barrier_in_loop():
    """Two barriers per iteration of a uniform loop around an LDS
    exchange across the wavefronts of a workgroup."""
    kb = KernelBuilder("exchange", _params())
    tid = kb.wi_abs_id()
    lid = kb.wi_id()
    lds = kb.group_alloc("ring", 192 * 4)
    v = kb.var(DType.U32, tid)
    with kb.for_range(0, 3) as i:
        kb.store(Segment.GROUP, lds + lid * 4, v)
        kb.barrier()
        kb.assign(v, kb.load(Segment.GROUP, lds + (kb.wg_size() - lid - 1) * 4, DType.U32) + i)
        kb.barrier()
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid), v)
    return kb


def split_barriers():
    """Wavefront 0 of each workgroup waits at one barrier while the
    others first fill LDS, then reach another: the first must not pass
    before the rest have arrived."""
    kb = KernelBuilder("split", _params())
    tid = kb.wi_abs_id()
    lid = kb.wi_id()
    lds = kb.group_alloc("buf", 192 * 4)
    v = kb.var(DType.U32, 0)
    with kb.If(kb.eq(lid >> 6, 0)) as first:
        kb.barrier()
        kb.assign(v, kb.load(Segment.GROUP, lds + (lid + 64) * 4, DType.U32))
        with first.Else():
            kb.store(Segment.GROUP, lds + lid * 4, lid * 3 + kb.wg_id())
            kb.barrier()
            kb.assign(v, kb.load(Segment.GROUP, lds + lid * 4, DType.U32))
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid), v + 1)
    return kb


def lds_round_trip():
    """Every workgroup writes its own LDS and reads it back reversed;
    only even workgroups write, so an odd one reads zeros unless it sees
    another workgroup's allocation."""
    kb = KernelBuilder("lds", _params())
    tid = kb.wi_abs_id()
    lid = kb.wi_id()
    lds = kb.group_alloc("buf", 128 * 4)
    with kb.If(kb.eq(kb.wg_id() & 1, 0)):
        kb.store(Segment.GROUP, lds + lid * 4, kb.wg_id() * 1000 + lid + 1)
    kb.barrier()
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid),
             kb.load(Segment.GROUP, lds + (lid ^ 127) * 4, DType.U32))
    return kb


def constant_addresses():
    """Loads and stores at the bare ``group_alloc`` base -- an immediate
    address, one lane vector shared by every wavefront of a group --
    under full EXEC and under a partial EXEC that differs per
    wavefront."""
    kb = KernelBuilder("const_addr", _params())
    tid = kb.wi_abs_id()
    lid = kb.wi_id()
    cell = kb.group_alloc("cell", 4)
    kb.store(Segment.GROUP, cell, tid)
    kb.barrier()
    v = kb.var(DType.U32, kb.load(Segment.GROUP, cell, DType.U32))
    kb.barrier()
    with kb.If(kb.lt(lid & 63, (lid >> 6) * 7 + 5)):
        kb.store(Segment.GROUP, cell, lid + 1)
    kb.barrier()
    with kb.If(kb.lt(lid & 63, (lid >> 6) * 5 + 3)):
        kb.assign(v, v + kb.load(Segment.GROUP, cell, DType.U32))
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid), v)
    return kb


def wide_arithmetic():
    """64-bit values throughout (register pairs)."""
    kb = KernelBuilder("wide", _params())
    tid = kb.wi_abs_id()
    x = kb.cvt(kb.load(Segment.GLOBAL, _slot(kb, "inp", tid), DType.U32),
               DType.U64)
    y = x * 0x100000001 + kb.cvt(tid, DType.U64)
    with kb.If(kb.gt(x & 4, 0)):
        kb.assign(y, y + (x << 7))
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid, 8), y)
    return kb


def _odd_pairs(kernel, isa):
    """``kernel`` with every register above the ABI-initialised ones
    moved up by one, so each 64-bit pair starts at an odd register."""
    if isa == "hsail":
        def move(op):
            return dataclasses.replace(op, index=op.index + 1) \
                if isinstance(op, HReg) else op
        used = {"reg_slots_used": kernel.reg_slots_used + 1}
    else:
        fixed = first_free_vgpr(getattr(kernel, "abi_dims", 1))

        def move(op):
            return dataclasses.replace(op, index=op.index + 1) \
                if isinstance(op, VReg) and op.index >= fixed else op
        used = {"vgprs_used": kernel.vgprs_used + 1}
    instrs = [dataclasses.replace(instr, dest=move(instr.dest),
                                  srcs=tuple(map(move, instr.srcs)))
              for instr in kernel.instrs]
    moved = dataclasses.replace(kernel, instrs=instrs, **used)
    if isa == "gcn3":
        moved.compute_layout()
    return moved


#: name -> (builder, grid, workgroup, odd pairs, input)
CASES = {
    "scalar_trip": (scalar_trip_by_wavefront, 64 * 6, 64, False, None),
    "exec_patterns": (divergent_exec_patterns, 64 * 4, 128, False, "pattern"),
    "barrier_loop_ragged": (barrier_in_loop, 192 + 150, 192, False, None),
    "lds_round_trip": (lds_round_trip, 128 * 4, 128, False, None),
    "split_barriers": (split_barriers, 192 * 2, 192, False, None),
    "constant_address": (constant_addresses, 192 + 150, 192, False, None),
    "odd_pairs": (wide_arithmetic, 64 * 5 - 20, 64, True, "pattern"),
}


def _input(kind, n):
    if kind is None:
        return np.zeros(n, dtype=np.uint32)
    # Wavefront w: all lanes zero, all odd, alternating, first half odd.
    lane = np.arange(n) % 64
    wf = np.arange(n) // 64
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**16, n).astype(np.uint32) & ~np.uint32(1)
    odd = np.select([wf % 4 == 0, wf % 4 == 1, wf % 4 == 2],
                    [np.zeros(n, bool), np.ones(n, bool), lane % 2 == 0],
                    lane < 32)
    return bits | odd.astype(np.uint32)


_DUALS = {}


def _kernel(name, isa):
    builder, _grid, _wg, odd, _inp = CASES[name]
    if name not in _DUALS:
        _DUALS[name] = Session().compile(builder().finish())
    kernel = _DUALS[name].for_isa(isa)
    return _odd_pairs(kernel, isa) if odd else kernel


def _outcome(name, isa, driver):
    """Device memory and trace sha256 after ``driver`` runs the case."""
    _builder, grid, wg, _odd, inp = CASES[name]
    proc = GpuProcess(isa)
    data = proc.upload(_input(inp, grid))
    out = proc.alloc_buffer(8 * grid)
    proc.dispatch(_kernel(name, isa), grid=grid, wg=wg, kernargs=[data, out])
    recorder = TraceRecorder()
    executed = driver(proc, proc.dispatches[0], recorder=recorder)
    memory = proc.memory
    image = memory.read_array(HEAP_BASE, np.uint8,
                              memory.mapped_limit - HEAP_BASE)
    trace = recorder.finish({}).to_bytes()
    return executed, hashlib.sha256(image).hexdigest(), \
        hashlib.sha256(trace).hexdigest()


def _count_group_steps(kernel, isa):
    """Wrap ``kernel``'s step table so every group step is counted."""
    table = (Gcn3Wavefronts if isa == "gcn3" else HsailWavefronts).steps(kernel)
    counter = [0]

    def wrap(step):
        def counted(g, exe):
            counter[0] += 1
            return step(g, exe)
        return counted
    kernel._memo["steps"] = tuple(map(wrap, table))
    return counter


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_group_loop_matches_the_reference_driver(name, isa):
    assert _outcome(name, isa, run_dispatch_functional) == \
        _outcome(name, isa, run_dispatch_reference)


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_run_grouped(name, isa):
    """The cases exercise the group loop: fewer steps than instructions."""
    _builder, grid, wg, _odd, inp = CASES[name]
    kernel = _kernel(name, isa)
    counter = _count_group_steps(kernel, isa)
    proc = GpuProcess(isa)
    data = proc.upload(_input(inp, grid))
    out = proc.alloc_buffer(8 * grid)
    proc.dispatch(kernel, grid=grid, wg=wg, kernargs=[data, out])
    executed = run_dispatch_functional(proc, proc.dispatches[0])
    assert counter[0] < executed


def test_odd_pairs_are_odd():
    for isa in ISAS:
        kernel = _kernel("odd_pairs", isa)
        wide = [op for instr in kernel.instrs
                for op in (instr.dest,) + tuple(instr.srcs)
                if (isinstance(op, HReg) and op.kind == "d")
                or (isinstance(op, VReg) and op.count == 2)]
        assert wide and all(op.index & 1 for op in wide)


# -- LDS and step-limit guards when a group spans workgroups -----------------


def _lds_kernel(stride):
    """Each work-item writes LDS word ``lid + stride * wg_id`` of a
    64-word allocation, then reads its own word back."""
    kb = KernelBuilder("lds_bounds", _params())
    tid = kb.wi_abs_id()
    lds = kb.group_alloc("buf", 64 * 4)
    at = lds + (kb.wi_id() + kb.wg_id() * stride) * 4
    kb.store(Segment.GROUP, at, tid + 1)
    kb.barrier()
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid),
             kb.load(Segment.GROUP, at, DType.U32))
    return Session().compile(kb.finish())


@pytest.mark.parametrize("isa", ISAS)
def test_lds_bounds_hold_per_workgroup(isa):
    """One group spans three workgroups, whose LDS allocations sit side
    by side in one image: workgroup 0 stays in bounds, workgroup 1 would
    land in workgroup 2's bytes and must fault instead."""
    dual = _lds_kernel(0)
    proc = GpuProcess(isa)
    out = proc.alloc_buffer(4 * 192)
    proc.dispatch(dual.for_isa(isa), grid=192, wg=64, kernargs=[out, out])
    run_dispatch_functional(proc, proc.dispatches[0])
    assert np.array_equal(proc.download(out, np.uint32, 192),
                          np.arange(1, 193, dtype=np.uint32))

    proc = GpuProcess(isa)
    out = proc.alloc_buffer(4 * 192)
    proc.dispatch(_lds_kernel(64).for_isa(isa), grid=192, wg=64,
                  kernargs=[out, out])
    with pytest.raises(ExecutionError, match="LDS access out of bounds"):
        run_dispatch_functional(proc, proc.dispatches[0])


@pytest.mark.parametrize("isa", ISAS)
def test_step_limit_counts_every_wavefront(isa):
    """The step limit counts dynamic instructions per wavefront: a group
    of N wavefronts at one pc spends N."""
    kernel = _kernel("lds_round_trip", isa)
    _builder, grid, wg, _odd, _inp = CASES["lds_round_trip"]

    def staged():
        proc = GpuProcess(isa)
        out = proc.alloc_buffer(8 * grid)
        proc.dispatch(kernel, grid=grid, wg=wg, kernargs=[out, out])
        return proc

    proc = staged()
    executed = run_dispatch_functional(proc, proc.dispatches[0])
    proc = staged()
    assert run_dispatch_functional(proc, proc.dispatches[0],
                                   step_limit=executed) == executed
    proc = staged()
    with pytest.raises(DeadlockError):
        run_dispatch_functional(proc, proc.dispatches[0],
                                step_limit=executed - 1)


# -- returning atomics keep the canonical order -----------------------------


def ticket_control_flow():
    """Each lane draws a ticket; the ticket decides both the branch and
    the trip count, so which wavefront draws first shows in memory."""
    kb = KernelBuilder("tickets", [("counter", DType.U64), ("out", DType.U64)])
    tid = kb.wi_abs_id()
    ticket = kb.atomic_add(Segment.GLOBAL, kb.kernarg("counter"), 1)
    acc = kb.var(DType.U32, 0)
    with kb.If(kb.lt(ticket, 96)) as early:
        i = kb.var(DType.U32, 0)
        with kb.Loop() as loop:
            kb.assign(acc, acc + ticket + i)
            kb.assign(i, i + 1)
            loop.continue_if(kb.lt(i, (ticket >> 5) + 1))
        with early.Else():
            kb.assign(acc, ticket * 7)
    kb.store(Segment.GLOBAL, _slot(kb, "out", tid), acc)
    return Session().compile(kb.finish())


@pytest.mark.parametrize("isa", ISAS)
def test_returned_tickets_keep_the_canonical_order(isa):
    dual = ticket_control_flow()
    kernel = dual.for_isa(isa)
    assert has_atomic(kernel)

    def run(driver):
        proc = GpuProcess(isa)
        counter = proc.upload(np.zeros(1, dtype=np.uint32))
        out = proc.alloc_buffer(4 * 256)
        proc.dispatch(kernel, grid=256, wg=128, kernargs=[counter, out])
        recorder = TraceRecorder()
        driver(proc, proc.dispatches[0], recorder=recorder)
        return (proc.download(out, np.uint32, 256).tolist(),
                hashlib.sha256(recorder.finish({}).to_bytes()).hexdigest())

    got = run(run_dispatch_functional)
    assert got == run(run_dispatch_reference)
    # Canonical order: wavefront w draws tickets 64w .. 64w + 63.
    tickets = np.arange(256)
    assert got[0][:96] == [int(t * ((t >> 5) + 1) + ((t >> 5) * ((t >> 5) + 1)) // 2)
                           for t in tickets[:96]]
