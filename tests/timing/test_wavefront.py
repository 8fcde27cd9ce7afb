"""TimingWavefront bookkeeping tests."""

import pytest

from repro.gcn3.isa import Gcn3Instr, Gcn3Kernel, SImm, SReg, VReg
from repro.timing.replay import ReplayCursor, WfStream
from repro.timing.wavefront import TimingWavefront


def make_wf(num_instrs=8):
    instrs = [Gcn3Instr(opcode="v_mov_b32", dest=VReg(1), srcs=(SImm(0),))
              for _ in range(num_instrs - 1)]
    instrs.append(Gcn3Instr(opcode="s_endpgm"))
    kernel = Gcn3Kernel(
        name="t", instrs=instrs, sgprs_used=10, vgprs_used=4, params=[],
        kernarg_bytes=0, group_bytes=0, private_bytes=0, spill_bytes=0,
        scratch_bytes=0,
    )
    kernel.compute_layout()
    cursor = ReplayCursor(WfStream(), kernel, is_gcn3=True)
    return TimingWavefront(wf_id=0, simd_id=0, wg_key=(0, 0), cursor=cursor,
                           code_base=0x1000, ib_capacity=4)


class TestInstructionBuffer:
    def test_head_and_pop(self):
        wf = make_wf()
        wf.ib.append((0, 4))
        wf.ib.append((1, 4))
        assert wf.ib_head() == 0
        wf.ib_pop()
        assert wf.ib_head() == 1

    def test_flush_resets_fetch(self):
        wf = make_wf()
        wf.ib.append((0, 4))
        wf.fetch_index = 3
        wf.fetch_inflight = True
        epoch = wf.fetch_epoch
        wf.flush_ib(5)
        assert wf.ib == []
        assert wf.fetch_index == 5
        assert not wf.fetch_inflight
        assert wf.fetch_epoch == epoch + 1

    def test_wants_fetch_conditions(self):
        wf = make_wf()
        assert wf.wants_fetch()
        wf.fetch_inflight = True
        assert not wf.wants_fetch()
        wf.fetch_inflight = False
        wf.ib = [(i, 4) for i in range(4)]  # full
        assert not wf.wants_fetch()
        wf.ib = []
        wf.fetch_index = wf.num_instrs
        assert not wf.wants_fetch()

    def test_instruction_addresses_variable_length(self):
        wf = make_wf()
        # v_mov with inline 0 is 4 bytes each
        assert wf.instr_address(0) == 0x1000
        assert wf.instr_address(1) == 0x1004


class TestScoreboard:
    def test_time_based_release(self):
        wf = make_wf()
        wf.mark_busy([3, 4], until=10)
        assert not wf.slots_ready([3], now=5)
        assert wf.slots_ready_hint([3], now=5) == 10
        assert wf.slots_ready([3], now=10)

    def test_mem_busy_refcounting(self):
        wf = make_wf()
        wf.mark_mem_busy([7])
        wf.mark_mem_busy([7])
        assert not wf.slots_ready([7], now=100)
        wf.release_mem_busy([7])
        assert not wf.slots_ready([7], now=100)
        wf.release_mem_busy([7])
        assert wf.slots_ready([7], now=100)

    def test_mem_busy_has_no_time_hint(self):
        wf = make_wf()
        wf.mark_mem_busy([7])
        assert wf.slots_ready_hint([7], now=5) is None

    def test_unrelated_slots_unaffected(self):
        wf = make_wf()
        wf.mark_busy([3], until=100)
        assert wf.slots_ready([4], now=0)
