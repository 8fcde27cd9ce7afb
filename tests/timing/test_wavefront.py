"""TimingWavefront bookkeeping tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.gcn3.isa import Gcn3Instr, Gcn3Kernel, SImm, VReg
from repro.timing.replay import ReplayCursor, WfStream
from repro.timing.wavefront import TimingWavefront


def make_wf(num_instrs=8, literals=(), ib_capacity=4, fetch_width_bytes=32):
    """A GCN3 wavefront over ``num_instrs`` instructions; the indices in
    ``literals`` carry a 32-bit literal (8 bytes instead of 4).  They
    write v8, so the scoreboard lists cover slots 0-8."""
    instrs = [Gcn3Instr(opcode="v_mov_b32", dest=VReg(8),
                        srcs=(SImm(123456 if i in literals else 0),))
              for i in range(num_instrs - 1)]
    instrs.append(Gcn3Instr(opcode="s_endpgm"))
    kernel = Gcn3Kernel(
        name="t", instrs=instrs, sgprs_used=10, vgprs_used=9, params=[],
        kernarg_bytes=0, group_bytes=0, private_bytes=0, spill_bytes=0,
        scratch_bytes=0,
    )
    kernel.compute_layout()
    cursor = ReplayCursor(WfStream(), kernel, is_gcn3=True)
    return TimingWavefront(wf_id=0, simd_id=0, wg_key=(0, 0), cursor=cursor,
                           code_base=0x1000, ib_capacity=ib_capacity,
                           fetch_width_bytes=fetch_width_bytes)


def ib_head(wf):
    """The buffered instruction the issue stage would take next."""
    return wf.fetch_index - wf.ib_len if wf.ib_len else None


class TestInstructionBuffer:
    # The buffer is a length: it holds [fetch_index - ib_len, fetch_index).

    def test_head_and_pop(self):
        wf = make_wf()
        wf.fill_ib()                  # 32 bytes of 4-byte instructions
        assert (wf.ib_len, ib_head(wf)) == (4, 0)  # capped by the capacity
        wf.ib_len -= 1                # issue pops the head
        assert ib_head(wf) == 1

    def test_flush_resets_fetch(self):
        wf = make_wf()
        wf.fill_ib()
        wf.fetch_inflight = True
        epoch = wf.fetch_epoch
        wf.flush_ib(5)
        assert wf.ib_len == 0 and ib_head(wf) is None
        assert wf.fetch_index == 5
        assert not wf.fetch_inflight
        assert wf.fetch_epoch == epoch + 1

    def test_wants_fetch_conditions(self):
        # A fill and a flush return the new fetch-candidate flag: not
        # done, nothing in flight, room in the buffer, code left.
        wf = make_wf()
        assert wf.fetch_want            # a fresh wavefront fetches from 0
        wf.fetch_inflight = True
        assert not wf.fill_ib()         # the delivery fills the buffer
        assert not wf.fetch_inflight
        assert wf.flush_ib(2)
        assert not wf.flush_ib(wf.num_instrs)  # nothing left to fetch
        roomy = make_wf(ib_capacity=12)
        assert roomy.fill_ib() is False       # all 8 fetched at once
        assert roomy.flush_ib(6) and roomy.fill_ib() is False
        roomy.cursor.done = True
        assert not roomy.flush_ib(0)          # a done wavefront never fetches

    def test_instruction_addresses_variable_length(self):
        # Instruction k starts at 0x1000 + 4k: k = 16 opens the next
        # 64-byte line.  A literal makes instruction 0 eight bytes long,
        # which moves every later one by 4 bytes, so k = 15 opens it.
        plain = make_wf(20)
        assert plain.fetch_lines[15:17] == (0x40, 0x41)
        shifted = make_wf(20, literals={0})
        assert shifted.fetch_lines[14:16] == (0x40, 0x41)
        # one 32-byte fetch from 0 delivers 8 plain or 7 shifted instructions
        assert (plain.fetch_fill[0], shifted.fetch_fill[0]) == (8, 7)


class _ListIb:
    """The reference: the buffer as a list of (index, size) entries,
    filled by a byte-budget loop, popped from the front."""

    def __init__(self, sizes, capacity, width):
        self.sizes, self.capacity, self.width = sizes, capacity, width
        self.ib, self.fetch_index = [], 0

    def fill(self):
        budget = self.width
        while (budget > 0 and len(self.ib) < self.capacity
               and self.fetch_index < len(self.sizes)):
            self.ib.append((self.fetch_index, self.sizes[self.fetch_index]))
            budget -= self.sizes[self.fetch_index]
            self.fetch_index += 1

    def wants_fetch(self):
        return (self.fetch_index < len(self.sizes)
                and len(self.ib) < self.capacity)


@given(n=st.integers(min_value=2, max_value=24),
       literals=st.sets(st.integers(min_value=0, max_value=22)),
       capacity=st.integers(min_value=1, max_value=12),
       width=st.sampled_from([4, 8, 12, 16, 32, 64]),
       ops=st.lists(st.tuples(st.sampled_from(["fill", "pop", "flush"]),
                              st.integers(min_value=0, max_value=23)),
                    max_size=40))
def test_counter_ib_matches_list_ib(n, literals, capacity, width, ops):
    """Random fill/pop/flush sequences: the counter buffer and the list
    buffer agree on head and length at every step, and on fetch
    eligibility after every fill and flush (the flag those return)."""
    wf = make_wf(n, literals, capacity, width)
    ref = _ListIb([d.size_bytes for d in wf.descs], capacity, width)
    assert wf.fetch_want == ref.wants_fetch()
    for op, pc in ops:
        want = None
        if op == "fill" and wf.fetch_index < wf.num_instrs:
            want = wf.fill_ib()
            ref.fill()
        elif op == "pop" and wf.ib_len:
            wf.ib_len -= 1
            ref.ib.pop(0)
        elif op == "flush":
            want = wf.flush_ib(pc % n)
            ref.ib, ref.fetch_index = [], pc % n
        assert ib_head(wf) == (ref.ib[0][0] if ref.ib else None)
        assert wf.ib_len == len(ref.ib)
        if want is not None:
            assert want == ref.wants_fetch()


class TestScoreboard:
    # slot_release: 0 = free, a cycle = timed release, -1 = memory-held.

    def test_time_based_release(self):
        wf = make_wf()
        wf.mark_busy([3, 4], until=10)
        assert wf.slot_release([3], now=5) == 10
        assert wf.slot_release([3], now=10) == 0

    def test_mem_busy_refcounting(self):
        wf = make_wf()
        wf.mark_mem_busy([7])
        wf.mark_mem_busy([7])
        assert wf.slot_release([7], now=100) == -1
        wf.release_mem_busy([7])
        assert wf.slot_release([7], now=100) == -1
        wf.release_mem_busy([7])
        assert wf.slot_release([7], now=100) == 0

    def test_mem_busy_has_no_time_hint(self):
        wf = make_wf()
        wf.mark_mem_busy([7])
        assert wf.slot_release([7], now=5) == -1
        # a timed reservation on another operand still gives a hint
        wf.mark_busy([8], until=9)
        assert wf.slot_release([7, 8], now=5) == 9

    def test_lists_cover_the_kernels_slots(self):
        wf = make_wf()
        assert len(wf.busy_slots) == len(wf.mem_busy_slots) == 9

    def test_unrelated_slots_unaffected(self):
        wf = make_wf()
        wf.mark_busy([3], until=100)
        assert wf.slot_release([4], now=0) == 0
