"""GCN3 functional-semantics tests: SALU, VALU, EXEC masking, memory."""

import numpy as np
import pytest

from repro.common.bits import pack_bfe_operand
from repro.common.exec_types import DispatchContext, MemKind
from repro.gcn3.isa import EXEC, Gcn3Instr, Gcn3Kernel, SImm, SReg, VCC, VReg
from repro.gcn3.semantics import Gcn3Executor, Gcn3WfState
from repro.runtime.memory import SimulatedMemory


def make_ctx(grid=64, wg=64):
    return DispatchContext(
        grid_size=(grid, 1, 1), wg_size=(wg, 1, 1), wg_id=(0, 0, 0),
        wf_index_in_wg=0,
    )


def make_wf(instrs, ctx=None, vgprs=24, sgprs=24):
    kernel = Gcn3Kernel(
        name="t", instrs=instrs, sgprs_used=sgprs, vgprs_used=vgprs,
        params=[], kernarg_bytes=0, group_bytes=0, private_bytes=0,
        spill_bytes=0, scratch_bytes=0,
    )
    kernel.compute_layout()
    return Gcn3WfState(kernel=kernel, ctx=ctx or make_ctx())


@pytest.fixture()
def executor():
    return Gcn3Executor(SimulatedMemory())


def run_one(executor, wf):
    return executor.execute(wf)


class TestSalu:
    def exec_salu(self, executor, *instrs, setup=None):
        wf = make_wf(list(instrs) + [Gcn3Instr(opcode="s_endpgm")])
        if setup:
            setup(wf)
        for _ in instrs:
            executor.execute(wf)
        return wf

    def test_s_mov_and_pairs(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b32", dest=SReg(9), srcs=(SImm(42),)),
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(0x1122334455),)),
        )
        assert wf.sgpr[9] == 42
        assert wf.read_s64(SReg(10, count=2)) == 0x1122334455

    def test_add_carry_chain(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_add_u32", dest=SReg(9),
                      srcs=(SImm(0xFFFFFFFF), SImm(1))),
            Gcn3Instr(opcode="s_addc_u32", dest=SReg(10),
                      srcs=(SImm(0), SImm(0))),
        )
        assert wf.sgpr[9] == 0
        assert wf.sgpr[10] == 1  # the carry propagated

    def test_sub_borrow_chain(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_sub_u32", dest=SReg(9),
                      srcs=(SImm(0), SImm(1))),
            Gcn3Instr(opcode="s_subb_u32", dest=SReg(10),
                      srcs=(SImm(5), SImm(0))),
        )
        assert wf.sgpr[9] == 0xFFFFFFFF
        assert wf.sgpr[10] == 4

    def test_s_mul_signed(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mul_i32", dest=SReg(9),
                      srcs=(SImm((-3) & 0xFFFFFFFF), SImm(7))),
        )
        assert wf.sgpr[9] == (-21) & 0xFFFFFFFF

    def test_s_bfe_table1(self, executor):
        # The paper's Table 1 extraction: low 16 bits of the packed sizes.
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b32", dest=SReg(9),
                      srcs=(SImm(0x00400100),)),
            Gcn3Instr(opcode="s_bfe_u32", dest=SReg(10),
                      srcs=(SReg(9), SImm(pack_bfe_operand(0, 16)))),
        )
        assert wf.sgpr[10] == 0x100

    def test_s_cmp_sets_scc_and_cselect(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_cmp_lt_u32", srcs=(SImm(3), SImm(5))),
            Gcn3Instr(opcode="s_cselect_b32", dest=SReg(9),
                      srcs=(SImm(1), SImm(0))),
        )
        assert wf.scc == 1
        assert wf.sgpr[9] == 1

    def test_s_cmp_signed(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_cmp_gt_i32",
                      srcs=(SImm(1), SImm((-5) & 0xFFFFFFFF))),
        )
        assert wf.scc == 1

    def test_saveexec(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(0xF0),)),
            Gcn3Instr(opcode="s_and_saveexec_b64", dest=SReg(12, count=2),
                      srcs=(SReg(10, count=2),)),
        )
        original = (1 << 64) - 1
        assert wf.read_s64(SReg(12, count=2)) == original  # old exec saved
        assert wf.exec_mask == 0xF0
        assert wf.scc == 1

    def test_andn2_builds_else_mask(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(0xFF),)),
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(12, count=2),
                      srcs=(SImm(0x0F),)),
            Gcn3Instr(opcode="s_andn2_b64", dest=SReg(14, count=2),
                      srcs=(SReg(10, count=2), SReg(12, count=2))),
        )
        assert wf.read_s64(SReg(14, count=2)) == 0xF0

    def test_shifts_64(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(6),)),
            Gcn3Instr(opcode="s_lshl_b64", dest=SReg(12, count=2),
                      srcs=(SReg(10, count=2), SImm(33))),
        )
        assert wf.read_s64(SReg(12, count=2)) == 6 << 33


class TestValu:
    def test_exec_masks_writes(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_mov_b32", dest=VReg(1), srcs=(SImm(9),)),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.exec_mask = 0b101
        executor.execute(wf)
        assert wf.vgpr[1][0] == 9
        assert wf.vgpr[1][1] == 0
        assert wf.vgpr[1][2] == 9

    def test_v_add_writes_vcc_carry(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_add_u32", dest=VReg(2),
                      srcs=(SImm(1), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vgpr[1][:] = 0xFFFFFFFF
        wf.vgpr[1][0] = 5
        executor.execute(wf)
        assert wf.vgpr[2][0] == 6
        assert wf.vgpr[2][1] == 0
        assert (wf.vcc & 1) == 0      # lane 0: no carry
        assert (wf.vcc >> 1) & 1 == 1  # lane 1: carried

    def test_addc_consumes_vcc(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_addc_u32", dest=VReg(2),
                      srcs=(SImm(0), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vcc = 0b10
        executor.execute(wf)
        assert wf.vgpr[2][0] == 0
        assert wf.vgpr[2][1] == 1

    def test_v_cmp_writes_mask_sgpr(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_cmp_lt_u32", dest=SReg(10, count=2),
                      srcs=(SImm(32), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vgpr[1] = np.arange(64, dtype=np.uint32)
        executor.execute(wf)
        mask = wf.read_s64(SReg(10, count=2))
        # 32 < lane for lanes 33..63
        assert mask == sum(1 << i for i in range(33, 64))

    def test_v_cmp_inactive_lanes_zero(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_cmp_eq_u32", dest=SReg(10, count=2),
                      srcs=(SImm(0), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.exec_mask = 0b11
        executor.execute(wf)
        assert wf.read_s64(SReg(10, count=2)) == 0b11

    def test_cndmask_selects_per_lane(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_cndmask_b32", dest=VReg(3),
                      srcs=(VReg(1), VReg(2), SReg(10, count=2))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vgpr[1][:] = 100
        wf.vgpr[2][:] = 200
        wf.write_s64(SReg(10, count=2), 0b1)
        executor.execute(wf)
        assert wf.vgpr[3][0] == 200  # selected (mask bit set -> src1)
        assert wf.vgpr[3][1] == 100

    def test_mul_lo_hi(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_mul_lo_u32", dest=VReg(2),
                      srcs=(VReg(1), VReg(1))),
            Gcn3Instr(opcode="v_mul_hi_u32", dest=VReg(3),
                      srcs=(VReg(1), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vgpr[1][:] = 0x10000
        executor.execute(wf)
        executor.execute(wf)
        assert wf.vgpr[2][0] == 0
        assert wf.vgpr[3][0] == 1

    def test_lshlrev_operand_order(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_lshlrev_b32", dest=VReg(2),
                      srcs=(SImm(4), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vgpr[1][:] = 3
        executor.execute(wf)
        assert wf.vgpr[2][0] == 48  # value shifted by src0

    def test_f64_fma_with_neg(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_fma_f64", dest=VReg(6, count=2),
                      srcs=(VReg(2, count=2), VReg(4, count=2),
                            SImm(0x3FF0000000000000, float_kind="f64")),
                      attrs={"neg": (True, False, False)}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        ones = np.ones(64, dtype=np.float64)
        wf.write_v64(VReg(2, count=2), (ones * 2).view(np.uint64),
                     np.ones(64, dtype=bool))
        wf.write_v64(VReg(4, count=2), (ones * 3).view(np.uint64),
                     np.ones(64, dtype=bool))
        executor.execute(wf)
        out = wf.read_v64(VReg(6, count=2)).view(np.float64)
        assert out[0] == -2.0 * 3.0 + 1.0

    def test_readfirstlane(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_readfirstlane_b32", dest=SReg(9),
                      srcs=(VReg(1),)),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vgpr[1] = np.arange(64, dtype=np.uint32) + 5
        wf.exec_mask = 0b1000
        executor.execute(wf)
        assert wf.sgpr[9] == 8  # first active lane is 3


class TestControlFlow:
    def test_scc_branches(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_cmp_lt_u32", srcs=(SImm(1), SImm(2))),
            Gcn3Instr(opcode="s_cbranch_scc1", attrs={"target": 3}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        executor.execute(wf)
        result = executor.execute(wf)
        assert result.branch_taken
        assert wf.pc == 3

    def test_unconditional_branch(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_branch", attrs={"target": 2}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        result = executor.execute(wf)
        assert result.branch_taken and result.next_pc == 2
        assert wf.pc == 2

    def test_execz_branch_not_taken_with_lanes(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_cbranch_execz", attrs={"target": 2}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        result = executor.execute(wf)
        assert result.branch_taken is False
        assert wf.pc == 1

    def test_execz_branch_taken_when_empty(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_cbranch_execz", attrs={"target": 2}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.exec_mask = 0
        result = executor.execute(wf)
        assert result.branch_taken
        assert wf.pc == 2

    def test_waitcnt_reports_thresholds(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_waitcnt", attrs={"vmcnt": 0, "lgkmcnt": 2}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        result = executor.execute(wf)
        assert result.waitcnt == (0, 2)

    def test_endpgm_ends_wavefront(self, executor):
        wf = make_wf([Gcn3Instr(opcode="s_endpgm")])
        result = executor.execute(wf)
        assert result.ends_wavefront and wf.done

    def test_barrier_flag(self, executor):
        wf = make_wf([Gcn3Instr(opcode="s_barrier"),
                      Gcn3Instr(opcode="s_endpgm")])
        assert executor.execute(wf).is_barrier


class TestMemoryOps:
    def test_smem_load(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 64)
        mem.store_scalar(0x10010, 0xCAFE, 4, track=False)
        executor = Gcn3Executor(mem)
        wf = make_wf([
            Gcn3Instr(opcode="s_load_dword", dest=SReg(9),
                      srcs=(SReg(4, count=2),), attrs={"offset": 0x10}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.write_s64(SReg(4, count=2), 0x10000)
        result = executor.execute(wf)
        assert result.mem_kind == MemKind.SCALAR_LOAD
        assert wf.sgpr[9] == 0xCAFE

    def test_flat_roundtrip(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 4096)
        executor = Gcn3Executor(mem)
        wf = make_wf([
            Gcn3Instr(opcode="flat_store_dword", srcs=(VReg(2, count=2), VReg(1))),
            Gcn3Instr(opcode="flat_load_dword", dest=VReg(4),
                      srcs=(VReg(2, count=2),)),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        lanes = np.arange(64, dtype=np.uint64)
        wf.write_v64(VReg(2, count=2), 0x10000 + lanes * 4, np.ones(64, bool))
        wf.vgpr[1] = np.arange(64, dtype=np.uint32) * 7
        executor.execute(wf)
        executor.execute(wf)
        assert np.array_equal(wf.vgpr[4], wf.vgpr[1])

    def test_scratch_uses_private_frame(self):
        mem = SimulatedMemory()
        mem.map_range(0x20000, 64 * 16)
        executor = Gcn3Executor(mem)
        ctx = make_ctx()
        ctx.private_base = 0x20000
        ctx.private_stride = 16
        wf = make_wf([
            Gcn3Instr(opcode="scratch_store_dword", srcs=(VReg(1),),
                      attrs={"offset": 8}),
            Gcn3Instr(opcode="s_endpgm"),
        ], ctx)
        wf.vgpr[1] = np.arange(64, dtype=np.uint32)
        executor.execute(wf)
        assert mem.load_scalar(0x20000 + 8, 4) == 0
        assert mem.load_scalar(0x20000 + 16 + 8, 4) == 1

    def test_ds_ops_use_lds(self):
        lds = np.zeros(1024, dtype=np.uint8)
        executor = Gcn3Executor(SimulatedMemory(), lds)
        wf = make_wf([
            Gcn3Instr(opcode="ds_write_b32", srcs=(VReg(1), VReg(2)),
                      attrs={"offset": 0}),
            Gcn3Instr(opcode="ds_read_b32", dest=VReg(3), srcs=(VReg(1),),
                      attrs={"offset": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vgpr[1] = np.arange(64, dtype=np.uint32) * 4
        wf.vgpr[2] = np.arange(64, dtype=np.uint32) + 1
        r = executor.execute(wf)
        assert r.mem_kind == MemKind.LDS_ACCESS
        executor.execute(wf)
        assert np.array_equal(wf.vgpr[3], wf.vgpr[2])


class TestAbiInitialization:
    def test_initial_registers(self):
        ctx = DispatchContext(
            grid_size=(512, 1, 1), wg_size=(128, 1, 1), wg_id=(2, 0, 0),
            wf_index_in_wg=1, kernarg_base=0x3000, aql_packet_addr=0x4000,
            private_base=0x5000, private_stride=32,
        )
        wf = make_wf([Gcn3Instr(opcode="s_endpgm")], ctx)
        assert wf.read_s64(SReg(0, count=2)) == 0x5000   # private base
        assert wf.sgpr[2] == 32                          # stride
        assert wf.read_s64(SReg(4, count=2)) == 0x4000   # AQL packet
        assert wf.read_s64(SReg(6, count=2)) == 0x3000   # kernarg
        assert wf.sgpr[8] == 2                           # workgroup id
        assert wf.vgpr[0][0] == 64                       # wf 1 lane 0
        assert wf.vgpr[0][5] == 69
