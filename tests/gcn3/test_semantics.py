"""GCN3 functional-semantics tests: SALU, VALU, EXEC masking, memory."""

import numpy as np
import pytest

from repro.common.bits import pack_bfe_operand
from repro.common.exec_types import DispatchContext, MemKind
from repro.common.lanes import U32, U64, Executor, Group, RowLines
from repro.gcn3.isa import EXEC, Gcn3Instr, Gcn3Kernel, SImm, SReg, VCC, VReg
from repro.gcn3.semantics import Gcn3Wavefronts
from repro.runtime.memory import SimulatedMemory
from tests.regfile_oracle import bits_of, lanes_of
from tests.trace_oracle import step_wavefront


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
    return Gcn3Wavefronts(kernel, [ctx or make_ctx()])


def vgpr(wf):
    """The wavefront's ``uint32[vgpr, lane]`` registers, a view."""
    return wf.views[U32][:, 0]


def v64(wf, index):
    """VGPR pair ``index`` (even) of the wavefront as uint64 lanes, a
    view."""
    return wf.views[U64][index >> 1, 0]


def s64(wf, index):
    """SGPR pair ``index`` (even) of the wavefront as a one-element
    uint64 view."""
    return wf.sgprs[0, index:index + 2].view(np.uint64)


@pytest.fixture()
def executor():
    return Executor(SimulatedMemory())


class TestSalu:
    def exec_salu(self, executor, *instrs, setup=None):
        wf = make_wf(list(instrs) + [Gcn3Instr(opcode="s_endpgm")])
        if setup:
            setup(wf)
        for _ in instrs:
            step_wavefront(wf, executor)
        return wf

    def test_s_mov_and_pairs(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b32", dest=SReg(9), srcs=(SImm(42),)),
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(0x1122334455),)),
        )
        assert wf.sgprs[0][9] == 42
        assert s64(wf, 10)[0] == 0x1122334455

    def test_add_carry_chain(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_add_u32", dest=SReg(9),
                      srcs=(SImm(0xFFFFFFFF), SImm(1))),
            Gcn3Instr(opcode="s_addc_u32", dest=SReg(10),
                      srcs=(SImm(0), SImm(0))),
        )
        assert wf.sgprs[0][9] == 0
        assert wf.sgprs[0][10] == 1  # the carry propagated

    def test_sub_borrow_chain(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_sub_u32", dest=SReg(9),
                      srcs=(SImm(0), SImm(1))),
            Gcn3Instr(opcode="s_subb_u32", dest=SReg(10),
                      srcs=(SImm(5), SImm(0))),
        )
        assert wf.sgprs[0][9] == 0xFFFFFFFF
        assert wf.sgprs[0][10] == 4

    def test_s_mul_signed(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mul_i32", dest=SReg(9),
                      srcs=(SImm((-3) & 0xFFFFFFFF), SImm(7))),
        )
        assert wf.sgprs[0][9] == (-21) & 0xFFFFFFFF

    def test_s_bfe_table1(self, executor):
        # The paper's Table 1 extraction: low 16 bits of the packed sizes.
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b32", dest=SReg(9),
                      srcs=(SImm(0x00400100),)),
            Gcn3Instr(opcode="s_bfe_u32", dest=SReg(10),
                      srcs=(SReg(9), SImm(pack_bfe_operand(0, 16)))),
        )
        assert wf.sgprs[0][10] == 0x100

    def test_s_cmp_sets_scc_and_cselect(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_cmp_lt_u32", srcs=(SImm(3), SImm(5))),
            Gcn3Instr(opcode="s_cselect_b32", dest=SReg(9),
                      srcs=(SImm(1), SImm(0))),
        )
        assert wf.sccs[0]
        assert wf.sgprs[0][9] == 1

    def test_s_cmp_signed(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_cmp_gt_i32",
                      srcs=(SImm(1), SImm((-5) & 0xFFFFFFFF))),
        )
        assert wf.sccs[0]

    def test_saveexec(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(0xF0),)),
            Gcn3Instr(opcode="s_and_saveexec_b64", dest=SReg(12, count=2),
                      srcs=(SReg(10, count=2),)),
        )
        original = (1 << 64) - 1
        assert s64(wf, 12)[0] == original  # old exec saved
        assert bits_of(wf.exec[0]) == 0xF0
        assert wf.sccs[0]

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
        assert s64(wf, 14)[0] == 0xF0

    def test_shifts_64(self, executor):
        wf = self.exec_salu(
            executor,
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(6),)),
            Gcn3Instr(opcode="s_lshl_b64", dest=SReg(12, count=2),
                      srcs=(SReg(10, count=2), SImm(33))),
        )
        assert s64(wf, 12)[0] == 6 << 33


class TestValu:
    def test_exec_masks_writes(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_mov_b32", dest=VReg(1), srcs=(SImm(9),)),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.exec[0] = lanes_of(0b101)
        step_wavefront(wf, executor)
        assert vgpr(wf)[1][0] == 9
        assert vgpr(wf)[1][1] == 0
        assert vgpr(wf)[1][2] == 9

    def test_v_add_writes_vcc_carry(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_add_u32", dest=VReg(2),
                      srcs=(SImm(1), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        vgpr(wf)[1][:] = 0xFFFFFFFF
        vgpr(wf)[1][0] = 5
        step_wavefront(wf, executor)
        assert vgpr(wf)[2][0] == 6
        assert vgpr(wf)[2][1] == 0
        assert not wf.vccs[0][0]  # lane 0: no carry
        assert wf.vccs[0][1]      # lane 1: carried

    def test_addc_consumes_vcc(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_addc_u32", dest=VReg(2),
                      srcs=(SImm(0), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.vccs[0] = lanes_of(0b10)
        step_wavefront(wf, executor)
        assert vgpr(wf)[2][0] == 0
        assert vgpr(wf)[2][1] == 1

    def test_v_cmp_writes_mask_sgpr(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_cmp_lt_u32", dest=SReg(10, count=2),
                      srcs=(SImm(32), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        vgpr(wf)[1] = np.arange(64, dtype=np.uint32)
        step_wavefront(wf, executor)
        mask = s64(wf, 10)[0]
        # 32 < lane for lanes 33..63
        assert mask == sum(1 << i for i in range(33, 64))

    def test_v_cmp_inactive_lanes_zero(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_cmp_eq_u32", dest=SReg(10, count=2),
                      srcs=(SImm(0), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.exec[0] = lanes_of(0b11)
        step_wavefront(wf, executor)
        assert s64(wf, 10)[0] == 0b11

    def test_cndmask_selects_per_lane(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_cndmask_b32", dest=VReg(3),
                      srcs=(VReg(1), VReg(2), SReg(10, count=2))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        vgpr(wf)[1][:] = 100
        vgpr(wf)[2][:] = 200
        s64(wf, 10)[0] = 0b1
        step_wavefront(wf, executor)
        assert vgpr(wf)[3][0] == 200  # selected (mask bit set -> src1)
        assert vgpr(wf)[3][1] == 100

    def test_mul_lo_hi(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_mul_lo_u32", dest=VReg(2),
                      srcs=(VReg(1), VReg(1))),
            Gcn3Instr(opcode="v_mul_hi_u32", dest=VReg(3),
                      srcs=(VReg(1), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        vgpr(wf)[1][:] = 0x10000
        step_wavefront(wf, executor)
        step_wavefront(wf, executor)
        assert vgpr(wf)[2][0] == 0
        assert vgpr(wf)[3][0] == 1

    def test_lshlrev_operand_order(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_lshlrev_b32", dest=VReg(2),
                      srcs=(SImm(4), VReg(1))),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        vgpr(wf)[1][:] = 3
        step_wavefront(wf, executor)
        assert vgpr(wf)[2][0] == 48  # value shifted by src0

    def test_f64_fma_with_neg(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_fma_f64", dest=VReg(6, count=2),
                      srcs=(VReg(2, count=2), VReg(4, count=2),
                            SImm(0x3FF0000000000000, float_kind="f64")),
                      attrs={"neg": (True, False, False)}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        v64(wf, 2).view(np.float64)[:] = 2.0
        v64(wf, 4).view(np.float64)[:] = 3.0
        step_wavefront(wf, executor)
        out = v64(wf, 6).view(np.float64)
        assert out[0] == -2.0 * 3.0 + 1.0

    def test_readfirstlane(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="v_readfirstlane_b32", dest=SReg(9),
                      srcs=(VReg(1),)),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        vgpr(wf)[1] = np.arange(64, dtype=np.uint32) + 5
        wf.exec[0] = lanes_of(0b1000)
        step_wavefront(wf, executor)
        assert wf.sgprs[0][9] == 8  # first active lane is 3


class TestControlFlow:
    def test_scc_branches(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_cmp_lt_u32", srcs=(SImm(1), SImm(2))),
            Gcn3Instr(opcode="s_cbranch_scc1", attrs={"target": 3}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        step_wavefront(wf, executor)
        result = step_wavefront(wf, executor)
        assert result.branch_taken
        assert wf.pcs[0] == 3

    def test_unconditional_branch(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_branch", attrs={"target": 2}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        result = step_wavefront(wf, executor)
        assert result.branch_taken and result.next_pc == 2
        assert wf.pcs[0] == 2

    def test_execz_branch_not_taken_with_lanes(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_cbranch_execz", attrs={"target": 2}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        result = step_wavefront(wf, executor)
        assert result.branch_taken is False
        assert wf.pcs[0] == 1

    def test_execz_branch_taken_when_empty(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_cbranch_execz", attrs={"target": 2}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        wf.exec[0] = False
        result = step_wavefront(wf, executor)
        assert result.branch_taken
        assert wf.pcs[0] == 2

    def test_waitcnt_reports_thresholds(self, executor):
        wf = make_wf([
            Gcn3Instr(opcode="s_waitcnt", attrs={"vmcnt": 0, "lgkmcnt": 2}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        result = step_wavefront(wf, executor)
        assert result.waitcnt == (0, 2)

    def test_endpgm_ends_wavefront(self, executor):
        wf = make_wf([Gcn3Instr(opcode="s_endpgm")])
        result = step_wavefront(wf, executor)
        assert result.ends_wavefront and wf.ended[0]

    def test_barrier_flag(self, executor):
        wf = make_wf([Gcn3Instr(opcode="s_barrier"),
                      Gcn3Instr(opcode="s_endpgm")])
        assert step_wavefront(wf, executor).is_barrier


class TestMemoryOps:
    def test_smem_load(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 64)
        mem.store_scalar(0x10010, 0xCAFE, 4, track=False)
        executor = Executor(mem)
        wf = make_wf([
            Gcn3Instr(opcode="s_load_dword", dest=SReg(9),
                      srcs=(SReg(4, count=2),), attrs={"offset": 0x10}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        s64(wf, 4)[0] = 0x10000
        result = step_wavefront(wf, executor)
        assert result.mem_kind == MemKind.SCALAR_LOAD
        assert wf.sgprs[0][9] == 0xCAFE

    def test_smem_lines_per_member(self):
        """A group's s_load reports each member's own lines, like a
        vector memory step: the lines of base + offset."""
        mem = SimulatedMemory()
        mem.map_range(0x10000, 256)
        mem.write_array(0x10000, np.arange(64, dtype=np.uint32))
        kernel = make_wf([
            Gcn3Instr(opcode="s_load_dwordx2", dest=SReg(10, count=2),
                      srcs=(SReg(4, count=2),), attrs={"offset": 0x3C}),
            Gcn3Instr(opcode="s_endpgm"),
        ]).kernel
        state = Gcn3Wavefronts(kernel, [make_ctx(), make_ctx()])
        state.sgprs[:, 4:6].view(np.uint64)[:, 0] = [0x10000, 0x10040]
        result = state.steps(kernel)[0](Group(state, [0, 1], 0),
                                        Executor(mem))
        assert type(result.mem_lines) is RowLines
        assert [result.mem_lines[0], result.mem_lines[1]] == [
            [0x10000 >> 6, 0x10040 >> 6], [0x10040 >> 6, 0x10080 >> 6]]
        assert state.sgprs[:, 10:12].tolist() == [[15, 16], [31, 32]]

    def test_flat_roundtrip(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 4096)
        executor = Executor(mem)
        wf = make_wf([
            Gcn3Instr(opcode="flat_store_dword", srcs=(VReg(2, count=2), VReg(1))),
            Gcn3Instr(opcode="flat_load_dword", dest=VReg(4),
                      srcs=(VReg(2, count=2),)),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        lanes = np.arange(64, dtype=np.uint64)
        v64(wf, 2)[:] = 0x10000 + lanes * 4
        vgpr(wf)[1] = np.arange(64, dtype=np.uint32) * 7
        step_wavefront(wf, executor)
        step_wavefront(wf, executor)
        assert np.array_equal(vgpr(wf)[4], vgpr(wf)[1])

    def test_scratch_uses_private_frame(self):
        mem = SimulatedMemory()
        mem.map_range(0x20000, 64 * 16)
        executor = Executor(mem)
        ctx = make_ctx()
        ctx.private_base = 0x20000
        ctx.private_stride = 16
        wf = make_wf([
            Gcn3Instr(opcode="scratch_store_dword", srcs=(VReg(1),),
                      attrs={"offset": 8}),
            Gcn3Instr(opcode="s_endpgm"),
        ], ctx)
        vgpr(wf)[1] = np.arange(64, dtype=np.uint32)
        step_wavefront(wf, executor)
        assert mem.load_scalar(0x20000 + 8, 4) == 0
        assert mem.load_scalar(0x20000 + 16 + 8, 4) == 1

    def test_ds_ops_use_lds(self):
        lds = np.zeros(1024, dtype=np.uint8)
        executor = Executor(SimulatedMemory(), lds)
        wf = make_wf([
            Gcn3Instr(opcode="ds_write_b32", srcs=(VReg(1), VReg(2)),
                      attrs={"offset": 0}),
            Gcn3Instr(opcode="ds_read_b32", dest=VReg(3), srcs=(VReg(1),),
                      attrs={"offset": 0}),
            Gcn3Instr(opcode="s_endpgm"),
        ])
        vgpr(wf)[1] = np.arange(64, dtype=np.uint32) * 4
        vgpr(wf)[2] = np.arange(64, dtype=np.uint32) + 1
        r = step_wavefront(wf, executor)
        assert r.mem_kind == MemKind.LDS_ACCESS
        step_wavefront(wf, executor)
        assert np.array_equal(vgpr(wf)[3], vgpr(wf)[2])


class TestAbiInitialization:
    def test_initial_registers(self):
        ctx = DispatchContext(
            grid_size=(512, 1, 1), wg_size=(128, 1, 1), wg_id=(2, 0, 0),
            wf_index_in_wg=1, kernarg_base=0x3000, aql_packet_addr=0x4000,
            private_base=0x5000, private_stride=32,
        )
        wf = make_wf([Gcn3Instr(opcode="s_endpgm")], ctx)
        assert s64(wf, 0)[0] == 0x5000   # private base
        assert wf.sgprs[0][2] == 32                          # stride
        assert s64(wf, 4)[0] == 0x4000   # AQL packet
        assert s64(wf, 6)[0] == 0x3000   # kernarg
        assert wf.sgprs[0][8] == 2                           # workgroup id
        assert vgpr(wf)[0][0] == 64                       # wf 1 lane 0
        assert vgpr(wf)[0][5] == 69
