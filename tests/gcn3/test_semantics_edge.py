"""Edge-case semantics tests for less-traveled GCN3 operations."""

import numpy as np
import pytest

from repro.common.exec_types import DispatchContext
from repro.common.lanes import Executor
from repro.gcn3.isa import Gcn3Instr, Gcn3Kernel, SImm, SReg, VReg
from repro.gcn3.semantics import Gcn3Wavefronts
from repro.runtime.memory import SimulatedMemory
from tests.regfile_oracle import bits_of, lanes_of
from tests.trace_oracle import step_wavefront

from .test_semantics import s64, v64, vgpr


def make_wf(instrs, vgprs=24, sgprs=24):
    kernel = Gcn3Kernel(
        name="t", instrs=list(instrs) + [Gcn3Instr(opcode="s_endpgm")],
        sgprs_used=sgprs, vgprs_used=vgprs, params=[], kernarg_bytes=0,
        group_bytes=0, private_bytes=0, spill_bytes=0, scratch_bytes=0,
    )
    kernel.compute_layout()
    ctx = DispatchContext(grid_size=(64, 1, 1), wg_size=(64, 1, 1),
                          wg_id=(0, 0, 0), wf_index_in_wg=0)
    return Gcn3Wavefronts(kernel, [ctx])


@pytest.fixture()
def ex():
    return Executor(SimulatedMemory())


def run(ex, wf, n):
    for _ in range(n):
        step_wavefront(wf, ex)


class TestScalarOddities:
    def test_s_brev(self, ex):
        wf = make_wf([Gcn3Instr(opcode="s_brev_b32", dest=SReg(9),
                                srcs=(SImm(1),))])
        run(ex, wf, 1)
        assert wf.sgprs[0][9] == 0x80000000

    def test_s_not_b32_sets_scc(self, ex):
        wf = make_wf([Gcn3Instr(opcode="s_not_b32", dest=SReg(9),
                                srcs=(SImm(0xFFFFFFFF),))])
        run(ex, wf, 1)
        assert wf.sgprs[0][9] == 0
        assert not wf.sccs[0]

    def test_s_ashr_preserves_sign(self, ex):
        wf = make_wf([
            Gcn3Instr(opcode="s_mov_b32", dest=SReg(9),
                      srcs=(SImm((-64) & 0xFFFFFFFF),)),
            Gcn3Instr(opcode="s_ashr_i32", dest=SReg(10),
                      srcs=(SReg(9), SImm(2))),
        ])
        run(ex, wf, 2)
        assert wf.sgprs[0][10] == ((-16) & 0xFFFFFFFF)

    def test_s_lshr_b64(self, ex):
        wf = make_wf([
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(48),)),
            Gcn3Instr(opcode="s_lshl_b64", dest=SReg(12, count=2),
                      srcs=(SReg(10, count=2), SImm(40))),
            Gcn3Instr(opcode="s_lshr_b64", dest=SReg(14, count=2),
                      srcs=(SReg(12, count=2), SImm(40))),
        ])
        run(ex, wf, 3)
        assert s64(wf, 14)[0] == 48

    def test_or_saveexec(self, ex):
        wf = make_wf([
            Gcn3Instr(opcode="s_mov_b64", dest=SReg(10, count=2),
                      srcs=(SImm(0xF0),)),
            Gcn3Instr(opcode="s_or_saveexec_b64", dest=SReg(12, count=2),
                      srcs=(SReg(10, count=2),)),
        ])
        wf.exec[0] = lanes_of(0x0F)
        run(ex, wf, 2)
        assert s64(wf, 12)[0] == 0x0F
        assert bits_of(wf.exec[0]) == 0xFF


class TestVectorOddities:
    def test_subrev_swaps_operands(self, ex):
        wf = make_wf([Gcn3Instr(opcode="v_subrev_u32", dest=VReg(2),
                                srcs=(SImm(3), VReg(1)))])
        vgpr(wf)[1][:] = 10
        run(ex, wf, 1)
        assert vgpr(wf)[2][0] == 7  # src1 - src0

    def test_v_subb_consumes_borrow(self, ex):
        wf = make_wf([Gcn3Instr(opcode="v_subb_u32", dest=VReg(2),
                                srcs=(SImm(10), VReg(1)))])
        vgpr(wf)[1][:] = 3
        wf.vccs[0] = lanes_of(0b1)  # borrow into lane 0
        run(ex, wf, 1)
        assert vgpr(wf)[2][0] == 6   # 10 - 3 - 1
        assert vgpr(wf)[2][1] == 7

    def test_v_mad_u24_masks_inputs(self, ex):
        wf = make_wf([Gcn3Instr(opcode="v_mad_u32_u24", dest=VReg(2),
                                srcs=(VReg(1), SImm(2), SImm(5)))])
        vgpr(wf)[1][:] = 0x0100_0003  # upper byte must be ignored
        run(ex, wf, 1)
        assert vgpr(wf)[2][0] == 3 * 2 + 5

    def test_v_bfe(self, ex):
        wf = make_wf([Gcn3Instr(opcode="v_bfe_u32", dest=VReg(2),
                                srcs=(VReg(1), SImm(8), SImm(4)))])
        vgpr(wf)[1][:] = 0x00000A00
        run(ex, wf, 1)
        assert vgpr(wf)[2][0] == 0xA

    def test_min_max_i32_signed(self, ex):
        wf = make_wf([
            Gcn3Instr(opcode="v_min_i32", dest=VReg(2),
                      srcs=(SImm((-5) & 0xFFFFFFFFFFFFFFFF), VReg(1))),
            Gcn3Instr(opcode="v_max_i32", dest=VReg(3),
                      srcs=(SImm((-5) & 0xFFFFFFFFFFFFFFFF), VReg(1))),
        ])
        vgpr(wf)[1][:] = 3
        run(ex, wf, 2)
        assert vgpr(wf)[2].view(np.int32)[0] == -5
        assert vgpr(wf)[3][0] == 3

    def test_cvt_f64_to_i32_truncates(self, ex):
        wf = make_wf([Gcn3Instr(opcode="v_cvt_i32_f64", dest=VReg(4),
                                srcs=(VReg(2, count=2),))])
        v64(wf, 2).view(np.float64)[:] = -7.9
        run(ex, wf, 1)
        assert vgpr(wf)[4].view(np.int32)[0] == -7

    def test_readfirstlane_empty_exec_uses_lane_zero(self, ex):
        wf = make_wf([Gcn3Instr(opcode="v_readfirstlane_b32", dest=SReg(9),
                                srcs=(VReg(1),))])
        vgpr(wf)[1][0] = 42
        wf.exec[0] = False
        run(ex, wf, 1)
        assert wf.sgprs[0][9] == 42

    def test_ashrrev_i64(self, ex):
        wf = make_wf([Gcn3Instr(opcode="v_ashrrev_i64", dest=VReg(4, count=2),
                                srcs=(SImm(8), VReg(2, count=2)))])
        v64(wf, 2).view(np.int64)[:] = -4096
        run(ex, wf, 1)
        out = v64(wf, 4).view(np.int64)
        assert out[0] == -16

    def test_vcc_branch(self, ex):
        wf = make_wf([
            Gcn3Instr(opcode="s_cbranch_vccnz", attrs={"target": 2}),
            Gcn3Instr(opcode="s_nop", attrs={"simm": 0}),
        ])
        wf.vccs[0] = lanes_of(1)
        result = step_wavefront(wf, ex)
        assert result.branch_taken and wf.pcs[0] == 2
