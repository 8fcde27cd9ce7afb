"""GCN3 instruction-model tests."""

import pytest

from repro.common.categories import InstrCategory
from repro.common.errors import EncodingError
from repro.gcn3.isa import (
    EXEC,
    MAX_SGPRS,
    MAX_VGPRS,
    OPCODES,
    Gcn3Instr,
    Gcn3Kernel,
    SImm,
    SReg,
    VCC,
    VReg,
    imm_is_inline,
)


class TestArchitecturalLimits:
    def test_register_budgets(self):
        # paper §V.B: 256 VGPRs and 102 SGPRs per wavefront
        assert MAX_VGPRS == 256
        assert MAX_SGPRS == 102


class TestCategories:
    @pytest.mark.parametrize("opcode,category", [
        ("v_add_u32", InstrCategory.VALU),
        ("v_fma_f64", InstrCategory.VALU),
        ("s_add_u32", InstrCategory.SALU),
        ("s_and_saveexec_b64", InstrCategory.SALU),
        ("s_load_dword", InstrCategory.SMEM),
        ("s_branch", InstrCategory.BRANCH),
        ("s_cbranch_execz", InstrCategory.BRANCH),
        ("s_waitcnt", InstrCategory.MISC),
        ("s_barrier", InstrCategory.MISC),
        ("s_endpgm", InstrCategory.MISC),
        ("s_nop", InstrCategory.MISC),
        ("flat_load_dword", InstrCategory.VMEM),
        ("scratch_store_dword", InstrCategory.VMEM),
        ("ds_read_b32", InstrCategory.LDS),
    ])
    def test_category(self, opcode, category):
        assert Gcn3Instr(opcode=opcode).category == category

    def test_unknown_opcode_rejected(self):
        with pytest.raises(EncodingError):
            Gcn3Instr(opcode="v_bogus_b32")


class TestSizes:
    @pytest.mark.parametrize("opcode,size", [
        ("s_mov_b32", 4), ("s_add_u32", 4), ("s_cmp_lt_u32", 4),
        ("s_branch", 4), ("s_waitcnt", 4),
        ("v_mov_b32", 4), ("v_add_u32", 4),
        ("v_fma_f32", 8), ("v_cmp_lt_u32", 8), ("v_cndmask_b32", 8),
        ("s_load_dword", 8), ("flat_load_dword", 8), ("ds_read_b32", 8),
        ("scratch_load_dword", 8),
    ])
    def test_base_sizes(self, opcode, size):
        assert Gcn3Instr(opcode=opcode).size_bytes == size

    def test_literal_adds_a_dword(self):
        small = Gcn3Instr(opcode="v_add_u32", dest=VReg(0),
                          srcs=(SImm(5), VReg(1)))
        big = Gcn3Instr(opcode="v_add_u32", dest=VReg(0),
                        srcs=(SImm(1000), VReg(1)))
        assert small.size_bytes == 4
        assert big.size_bytes == 8

    def test_inline_constant_ranges(self):
        assert imm_is_inline(SImm(0))
        assert imm_is_inline(SImm(64))
        assert not imm_is_inline(SImm(65))
        assert imm_is_inline(SImm((-16) & 0xFFFFFFFFFFFFFFFF))
        assert not imm_is_inline(SImm((-17) & 0xFFFFFFFFFFFFFFFF))

    def test_inline_float_constants(self):
        one_f32 = SImm(0x3F800000, float_kind="f32")
        assert imm_is_inline(one_f32)
        pi_f32 = SImm(0x40490FDB, float_kind="f32")
        assert not imm_is_inline(pi_f32)
        one_f64 = SImm(0x3FF0000000000000, float_kind="f64")
        assert imm_is_inline(one_f64)


class TestIntrospection:
    def test_vgpr_and_sgpr_reads(self):
        instr = Gcn3Instr(opcode="v_add_u32", dest=VReg(3),
                          srcs=(SReg(9), VReg(1, count=2)))
        assert instr.vgpr_reads() == [1, 2]
        assert instr.sgpr_reads() == [9]
        assert instr.vgpr_writes() == [3]
        assert instr.sgpr_writes() == []

    def test_special_regs_not_counted(self):
        instr = Gcn3Instr(opcode="s_mov_b64", dest=EXEC, srcs=(VCC,))
        assert instr.sgpr_reads() == []
        assert instr.sgpr_writes() == []

    def test_implicit_flags(self):
        assert OPCODES["v_add_u32"].writes_vcc
        assert OPCODES["v_addc_u32"].reads_vcc
        assert OPCODES["s_cmp_lt_u32"].writes_scc
        assert OPCODES["s_cselect_b32"].reads_scc
        assert OPCODES["s_and_saveexec_b64"].writes_exec
        assert OPCODES["v_div_scale_f64"].writes_vcc
        assert OPCODES["v_div_fmas_f64"].reads_vcc


class TestKernelLayout:
    def make_kernel(self):
        instrs = [
            Gcn3Instr(opcode="s_mov_b32", dest=SReg(9), srcs=(SImm(1000),)),  # 8B
            Gcn3Instr(opcode="v_mov_b32", dest=VReg(1), srcs=(SReg(9),)),     # 4B
            Gcn3Instr(opcode="s_endpgm"),                                     # 4B
        ]
        k = Gcn3Kernel(
            name="k", instrs=instrs, sgprs_used=10, vgprs_used=2,
            params=[], kernarg_bytes=0, group_bytes=0, private_bytes=0,
            spill_bytes=0, scratch_bytes=0,
        )
        k.compute_layout()
        return k

    def test_variable_length_layout(self):
        k = self.make_kernel()
        assert k.pc_of_index == [0, 8, 12]
        assert k.code_bytes == 16

    def test_branch_attrs(self):
        b = Gcn3Instr(opcode="s_cbranch_scc1", attrs={"target": 5})
        assert b.is_branch and b.is_conditional and b.target == 5
        j = Gcn3Instr(opcode="s_branch", attrs={"target": 2})
        assert j.is_branch and not j.is_conditional
