"""HSAIL functional-semantics tests (per-op + reconvergence stack)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exec_types import DispatchContext, MemKind
from repro.common.lanes import F64, U32, U64, Executor, Group, reg_view
from repro.hsail.isa import HReg, HsailInstr, HsailKernel, Imm
from repro.hsail.semantics import HsailWavefronts, RsEntry
from repro.kernels.types import DType
from repro.runtime.memory import Segment, SimulatedMemory
from tests.regfile_oracle import bits_of, lanes_of
from tests.trace_oracle import step_wavefront


def make_ctx(grid=64, wg=64, wg_id=0):
    return DispatchContext(
        grid_size=(grid, 1, 1), wg_size=(wg, 1, 1), wg_id=(wg_id, 0, 0),
        wf_index_in_wg=0,
    )


def make_wf(instrs, ctx=None, slots=32, rpc=None):
    kernel = HsailKernel(
        name="t", instrs=instrs, params=[], kernarg_bytes=0,
        group_bytes=0, private_bytes=0, spill_bytes=0,
        reg_slots_used=slots, rpc_table=rpc or {},
    )
    return HsailWavefronts(kernel, [ctx or make_ctx()])


def regs(wf):
    """The wavefront's ``uint32[slot, lane]`` registers, a view."""
    return wf.views[U32][:, 0]


_KIND = {DType.U32: U32, DType.U64: U64, DType.F64: F64}


def typed(wf, reg, dtype):
    """Register (even pair) ``reg`` of the wavefront as ``dtype`` lanes,
    a view."""
    return reg_view(_KIND[dtype], reg.index)(Group(wf, [0], 0))[0]


def alu(opcode, dtype, dest, srcs, **attrs):
    return HsailInstr(opcode=opcode, dtype=dtype, dest=dest, srcs=srcs,
                      attrs=attrs)


@pytest.fixture()
def executor():
    return Executor(SimulatedMemory())


class TestAluOps:
    def run_binary(self, executor, opcode, dtype, a_vals, b_vals, **attrs):
        instrs = [alu(opcode, dtype, HReg("d" if dtype.is_wide else "s", 8),
                      (HReg("d" if dtype.is_wide else "s", 0),
                       HReg("d" if dtype.is_wide else "s", 2)), **attrs),
                  HsailInstr(opcode="ret", dtype=DType.U32)]
        wf = make_wf(instrs)
        typed(wf, HReg("d" if dtype.is_wide else "s", 0), dtype)[:] = a_vals
        typed(wf, HReg("d" if dtype.is_wide else "s", 2), dtype)[:] = b_vals
        step_wavefront(wf, executor)
        return typed(wf, HReg("d" if dtype.is_wide else "s", 8), dtype)

    @pytest.mark.parametrize("opcode,fn", [
        ("add", np.add), ("sub", np.subtract), ("mul", np.multiply),
        ("min", np.minimum), ("max", np.maximum),
    ])
    def test_u32_arith(self, executor, opcode, fn):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 1000, 64).astype(np.uint32)
        b = rng.integers(1, 1000, 64).astype(np.uint32)
        out = self.run_binary(executor, opcode, DType.U32, a, b)
        assert np.array_equal(out, fn(a, b))

    @pytest.mark.parametrize("opcode", ["and", "or", "xor"])
    def test_u32_bitwise(self, executor, opcode):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2**32, 64, dtype=np.uint64).astype(np.uint32)
        b = rng.integers(0, 2**32, 64, dtype=np.uint64).astype(np.uint32)
        fn = {"and": np.bitwise_and, "or": np.bitwise_or,
              "xor": np.bitwise_xor}[opcode]
        out = self.run_binary(executor, opcode, DType.U32, a, b)
        assert np.array_equal(out, fn(a, b))

    def test_f64_division_exact(self, executor):
        rng = np.random.default_rng(2)
        a = rng.random(64)
        b = rng.random(64) + 0.5
        out = self.run_binary(executor, "div", DType.F64, a, b)
        assert np.array_equal(out, a / b)

    def test_mulhi(self, executor):
        a = np.full(64, 0xFFFFFFFF, dtype=np.uint32)
        b = np.full(64, 2, dtype=np.uint32)
        out = self.run_binary(executor, "mulhi", DType.U32, a, b)
        assert np.array_equal(out, np.ones(64, dtype=np.uint32))

    def test_u64_add_carries(self, executor):
        a = np.full(64, 0xFFFFFFFF, dtype=np.uint64)
        b = np.full(64, 1, dtype=np.uint64)
        out = self.run_binary(executor, "add", DType.U64, a, b)
        assert np.array_equal(out, np.full(64, 0x100000000, dtype=np.uint64))

    def test_shifts(self, executor):
        instrs = [alu("shl", DType.U32, HReg("s", 4),
                      (HReg("s", 0), Imm(3, DType.U32))),
                  HsailInstr(opcode="ret", dtype=DType.U32)]
        wf = make_wf(instrs)
        vals = np.arange(64, dtype=np.uint32)
        regs(wf)[0] = vals
        step_wavefront(wf, executor)
        assert np.array_equal(regs(wf)[4], vals << 3)

    def test_arithmetic_shr_s32(self, executor):
        instrs = [alu("shr", DType.S32, HReg("s", 4),
                      (HReg("s", 0), Imm(1, DType.U32))),
                  HsailInstr(opcode="ret", dtype=DType.U32)]
        wf = make_wf(instrs)
        regs(wf)[0] = np.full(64, -8, dtype=np.int32).view(np.uint32)
        step_wavefront(wf, executor)
        assert np.array_equal(regs(wf)[4].view(np.int32),
                              np.full(64, -4, dtype=np.int32))

    def test_cmp_then_cmov(self, executor):
        instrs = [
            alu("cmp", DType.U32, HReg("s", 4),
                (HReg("s", 0), Imm(32, DType.U32)), cmp="lt"),
            alu("cmov", DType.U32, HReg("s", 5),
                (HReg("s", 4), Imm(1, DType.U32), Imm(0, DType.U32))),
            HsailInstr(opcode="ret", dtype=DType.U32),
        ]
        wf = make_wf(instrs)
        regs(wf)[0] = np.arange(64, dtype=np.uint32)
        step_wavefront(wf, executor)
        step_wavefront(wf, executor)
        expected = (np.arange(64) < 32).astype(np.uint32)
        assert np.array_equal(regs(wf)[5], expected)

    def test_cvt_u32_to_f64(self, executor):
        instrs = [alu("cvt", DType.F64, HReg("d", 2), (HReg("s", 0),),
                      src_dtype=DType.U32),
                  HsailInstr(opcode="ret", dtype=DType.U32)]
        wf = make_wf(instrs)
        regs(wf)[0] = np.arange(64, dtype=np.uint32)
        step_wavefront(wf, executor)
        out = typed(wf, HReg("d", 2), DType.F64)
        assert np.array_equal(out, np.arange(64, dtype=np.float64))

    def test_masked_lanes_do_not_write(self, executor):
        instrs = [alu("mov", DType.U32, HReg("s", 1), (Imm(7, DType.U32),)),
                  HsailInstr(opcode="ret", dtype=DType.U32)]
        wf = make_wf(instrs)
        wf.exec[0] = lanes_of(0b1111)  # only 4 lanes
        step_wavefront(wf, executor)
        assert (regs(wf)[1][:4] == 7).all()
        assert (regs(wf)[1][4:] == 0).all()

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_add_u32_wraps_like_hardware(self, a, b):
        executor = Executor(SimulatedMemory())
        out = self.run_binary(
            executor, "add", DType.U32,
            np.full(64, a, dtype=np.uint32), np.full(64, b, dtype=np.uint32),
        )
        assert out[0] == (a + b) % 2**32


class TestDispatchQueries:
    def test_workitemabsid(self, executor):
        ctx = make_ctx(grid=256, wg=128, wg_id=1)
        wf = make_wf([alu("workitemabsid", DType.U32, HReg("s", 0), (), dim=0),
                      HsailInstr(opcode="ret", dtype=DType.U32)], ctx)
        step_wavefront(wf, executor)
        assert regs(wf)[0][0] == 128  # wg 1 starts at 128
        assert regs(wf)[0][5] == 133

    def test_workitemid_within_wg(self, executor):
        ctx = DispatchContext(grid_size=(256, 1, 1), wg_size=(128, 1, 1),
                              wg_id=(0, 0, 0), wf_index_in_wg=1)
        wf = make_wf([alu("workitemid", DType.U32, HReg("s", 0), (), dim=0),
                      HsailInstr(opcode="ret", dtype=DType.U32)], ctx)
        step_wavefront(wf, executor)
        assert regs(wf)[0][0] == 64  # second wavefront of the workgroup

    def test_workgroup_queries(self, executor):
        ctx = make_ctx(grid=512, wg=128, wg_id=3)
        instrs = [
            alu("workgroupid", DType.U32, HReg("s", 0), (), dim=0),
            alu("workgroupsize", DType.U32, HReg("s", 1), (), dim=0),
            alu("gridsize", DType.U32, HReg("s", 2), (), dim=0),
            HsailInstr(opcode="ret", dtype=DType.U32),
        ]
        wf = make_wf(instrs, ctx)
        for _ in range(3):
            step_wavefront(wf, executor)
        assert regs(wf)[0][0] == 3
        assert regs(wf)[1][0] == 128
        assert regs(wf)[2][0] == 512

    def test_partial_wavefront_mask(self, executor):
        ctx = make_ctx(grid=40, wg=64)
        wf = make_wf([HsailInstr(opcode="ret", dtype=DType.U32)], ctx)
        assert bits_of(wf.exec[0]) == (1 << 40) - 1


class TestMemory:
    def test_global_load_store(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 4096)
        executor = Executor(mem)
        data = np.arange(64, dtype=np.uint32) * 2
        mem.write_array(0x10000, data)
        instrs = [
            HsailInstr(opcode="ld", dtype=DType.U32, dest=HReg("s", 4),
                       srcs=(HReg("d", 0),), segment=Segment.GLOBAL),
            HsailInstr(opcode="st", dtype=DType.U32,
                       srcs=(HReg("d", 2), HReg("s", 4)),
                       segment=Segment.GLOBAL),
            HsailInstr(opcode="ret", dtype=DType.U32),
        ]
        wf = make_wf(instrs)
        lanes = np.arange(64, dtype=np.uint64)
        typed(wf, HReg("d", 0), DType.U64)[:] = 0x10000 + lanes * 4
        typed(wf, HReg("d", 2), DType.U64)[:] = 0x10400 + lanes * 4
        r1 = step_wavefront(wf, executor)
        r2 = step_wavefront(wf, executor)
        assert r1.mem_kind == MemKind.GLOBAL_LOAD
        assert r2.mem_kind == MemKind.GLOBAL_STORE
        assert len(r1.mem_lines) == 4  # 64 lanes x 4B = 4 cache lines
        out = mem.read_array(0x10400, np.uint32, 64)
        assert np.array_equal(out, data)

    def test_kernarg_load_has_no_memory_traffic(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 64)
        mem.store_scalar(0x10000, 0xABCD, 4, track=False)
        executor = Executor(mem)
        ctx = make_ctx()
        ctx.kernarg_base = 0x10000
        instrs = [
            HsailInstr(opcode="ld", dtype=DType.U32, dest=HReg("s", 0),
                       srcs=(Imm(0, DType.U32),), segment=Segment.KERNARG),
            HsailInstr(opcode="ret", dtype=DType.U32),
        ]
        wf = make_wf(instrs, ctx)
        result = step_wavefront(wf, executor)
        # serviced from simulator state: no traffic, no footprint
        assert result.mem_kind == MemKind.NONE
        assert mem.data_footprint_bytes == 0
        assert (regs(wf)[0] == 0xABCD).all()

    def test_private_segment_addressing(self):
        mem = SimulatedMemory()
        mem.map_range(0x20000, 64 * 64)
        executor = Executor(mem)
        ctx = make_ctx()
        ctx.private_base = 0x20000
        ctx.private_stride = 8
        instrs = [
            HsailInstr(opcode="st", dtype=DType.U32,
                       srcs=(Imm(4, DType.U32), HReg("s", 0)),
                       segment=Segment.PRIVATE),
            HsailInstr(opcode="ret", dtype=DType.U32),
        ]
        wf = make_wf(instrs, ctx)
        regs(wf)[0] = np.arange(64, dtype=np.uint32) + 100
        step_wavefront(wf, executor)
        # lane i writes to private_base + i*stride + offset 4
        for lane in (0, 1, 63):
            assert mem.load_scalar(0x20000 + lane * 8 + 4, 4) == 100 + lane


class TestReconvergenceStack:
    def build_if_else_instrs(self):
        # 0: cbr !cond -> 3 ; 1: mov r1=1 ; 2: br -> 4 ; 3: mov r1=2 ; 4: ret
        return [
            HsailInstr(opcode="cbr", dtype=DType.B1, srcs=(HReg("s", 0),),
                       attrs={"target": 3, "invert": True}),
            alu("mov", DType.U32, HReg("s", 1), (Imm(1, DType.U32),)),
            HsailInstr(opcode="br", dtype=DType.U32, attrs={"target": 4}),
            alu("mov", DType.U32, HReg("s", 1), (Imm(2, DType.U32),)),
            HsailInstr(opcode="ret", dtype=DType.U32),
        ]

    def run_to_completion(self, wf, executor, max_steps=50):
        jumps = 0
        while not wf.ended[0]:
            if wf.reconverge(0) is not None:
                jumps += 1
            step_wavefront(wf, executor)
            assert max_steps > 0
            max_steps -= 1
        return jumps

    def test_uniform_taken_no_divergence(self, executor):
        wf = make_wf(self.build_if_else_instrs(),
                     rpc={0: 4})
        regs(wf)[0] = np.zeros(64, dtype=np.uint32)  # cond false -> all jump
        self.run_to_completion(wf, executor)
        assert (regs(wf)[1] == 2).all()
        assert not wf.stacks[0]

    def test_divergent_both_paths_execute(self, executor):
        wf = make_wf(self.build_if_else_instrs(), rpc={0: 4})
        cond = np.zeros(64, dtype=np.uint32)
        cond[:32] = 1
        regs(wf)[0] = cond
        rs_jumps = self.run_to_completion(wf, executor)
        assert rs_jumps == 1  # one pending-path switch
        assert (regs(wf)[1][:32] == 1).all()
        assert (regs(wf)[1][32:] == 2).all()
        assert wf.exec[0].all()  # reconverged

    def test_divergence_pushes_rs_entry(self, executor):
        wf = make_wf(self.build_if_else_instrs(), rpc={0: 4})
        cond = np.zeros(64, dtype=np.uint32)
        cond[0] = 1
        regs(wf)[0] = cond
        step_wavefront(wf, executor)  # the cbr diverges
        assert len(wf.stacks[0]) == 1
        entry = wf.stacks[0][0]
        assert entry.rpc == 4
        assert entry.pending_pc == 1  # fallthrough (then) path queued
        assert bits_of(entry.pending_mask) == 1
        assert entry.merged_mask.all()
        # taken path (inverted cond: lanes with cond==0) runs first
        assert bits_of(wf.exec[0]) == ((1 << 64) - 1) & ~1
        assert wf.pcs[0] == 3

    def test_rs_merge_restores_mask(self, executor):
        wf = make_wf([HsailInstr(opcode="ret", dtype=DType.U32)])
        wf.stacks[0].append(RsEntry(rpc=0, pending_pc=None,
                                    pending_mask=lanes_of(0),
                                    merged_mask=lanes_of(0xFF)))
        wf.exec[0] = lanes_of(0x0F)
        assert wf.reconverge(0) is None
        assert bits_of(wf.exec[0]) == 0xFF
        assert not wf.stacks[0]
