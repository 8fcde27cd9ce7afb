"""VRF probe tests: bank conflicts, reuse distance, uniqueness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exec_types import ExecResult
from repro.common.stats import StatSet
from repro.gcn3.isa import Gcn3Instr, Gcn3Kernel, SImm, VReg
from repro.obs.trace import TraceBus
from repro.timing.predecode import predecode_kernel, read_banks
from repro.timing.registerfile import VrfModel, unique_counts, unique_rows
from repro.timing.replay import ExecTrace, WfStream
from repro.timing.vector import wf_decode
from tests.trace_oracle import record, walk_stream


def make_vrf():
    stats = StatSet()
    return VrfModel(num_banks=4, stats=stats), stats


def _kernel(instrs, vgprs=12):
    instrs = list(instrs) + [Gcn3Instr(opcode="s_endpgm")]
    kernel = Gcn3Kernel(
        name="t", instrs=instrs, sgprs_used=10, vgprs_used=vgprs, params=[],
        kernarg_bytes=0, group_bytes=0, private_bytes=0, spill_bytes=0,
        scratch_bytes=0,
    )
    kernel.compute_layout()
    return kernel


class TestBankConflicts:
    # note_access takes an instruction's distinct read banks, which the CU
    # reads from the kernel's predecoded read_banks table.

    def test_one_instruction_does_not_self_conflict(self):
        vrf, stats = make_vrf()
        kernel = _kernel([Gcn3Instr(opcode="v_fma_f32", dest=VReg(1),
                                    srcs=(VReg(0), VReg(4), VReg(8)))])
        banks = read_banks(kernel, 4)[0]
        assert banks == (0,)  # v0, v4, v8 all live in bank 0
        vrf.note_access(banks, now=0, duration=4)
        # the three operands occupy bank 0 but belong to one gather
        assert stats["vrf_bank_conflicts"] == 0

    def test_two_instructions_same_bank_conflict(self):
        vrf, stats = make_vrf()
        vrf.note_access((0,), now=0, duration=4)
        vrf.note_access((0,), now=0, duration=4)  # slot 4: also bank 0
        assert stats["vrf_bank_conflicts"] == 4  # overlap on all 4 cycles

    def test_different_banks_no_conflict(self):
        vrf, stats = make_vrf()
        vrf.note_access((0,), now=0, duration=4)
        vrf.note_access((1,), now=0, duration=4)
        assert stats["vrf_bank_conflicts"] == 0

    def test_disjoint_windows_no_conflict(self):
        vrf, stats = make_vrf()
        vrf.note_access((0,), now=0, duration=4)
        vrf.note_access((0,), now=4, duration=4)
        assert stats["vrf_bank_conflicts"] == 0

    def test_partial_overlap(self):
        vrf, stats = make_vrf()
        vrf.note_access((0,), now=0, duration=4)
        vrf.note_access((0,), now=2, duration=4)
        assert stats["vrf_bank_conflicts"] == 2  # cycles 2 and 3

    def test_one_event_per_conflicting_gather(self):
        # Traced or not, the model counts each conflict the moment the
        # overlapping gather is recorded; a traced one also emits that
        # gather's count over the span of cycles it conflicts in.
        for bus in (None, TraceBus()):
            stats = StatSet()
            vrf = VrfModel(num_banks=4, stats=stats, trace=bus)
            vrf.note_access((0,), now=0, duration=2)
            vrf.note_access((0,), now=0, duration=2)
            assert stats["vrf_bank_conflicts"] == 2
        assert [(e.ts, e.dur, e.args) for e in bus.events] == [
            (0, 2, {"conflicts": 2})]

    def test_expired_windows_never_conflict_with_later_issues(self):
        vrf, stats = make_vrf()
        vrf.note_access((0,), now=0, duration=2)   # bank 0, window [0, 2)
        vrf.note_access((0,), now=5, duration=2)   # bank 0, but [0,2) ended
        assert stats["vrf_bank_conflicts"] == 0
        vrf.note_access((0,), now=5, duration=2)   # overlaps the live window
        assert stats["vrf_bank_conflicts"] == 2

    def test_empty_slots_noop(self):
        vrf, stats = make_vrf()
        vrf.note_access((), now=0, duration=4)
        assert stats["vrf_bank_conflicts"] == 0
        # an instruction without vector sources has no banks to note
        kernel = _kernel([Gcn3Instr(opcode="v_mov_b32", dest=VReg(1),
                                    srcs=(SImm(0),))])
        assert read_banks(kernel, 4) == ((), ())


#: One CU's gathers: (cycles after the previous issue, distinct banks,
#: gather window), so issue times are monotonic as on a real CU.
_GATHERS = st.lists(
    st.tuples(st.integers(0, 5),
              st.sets(st.integers(0, 3), max_size=3).map(sorted),
              st.integers(0, 8)),
    max_size=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gathers=_GATHERS)
def test_traced_and_untraced_models_count_the_same_conflicts(gathers):
    """A traced and an untraced model see the same conflict totals, equal
    to the per-cycle definition (each cycle a bank is gathered by ``n``
    windows adds ``n - 1``); the traced one emits one event per
    conflicting gather, at its issue, with its count and spanning up to
    its last conflicting cycle."""
    bus = TraceBus()
    plain, traced = StatSet(), StatSet()
    models = (VrfModel(4, plain), VrfModel(4, traced, trace=bus))
    per_cycle = {}
    gathered = []
    now = 0
    for gap, banks, duration in gathers:
        now += gap
        window = [(cycle, bank) for cycle in range(now, now + max(duration, 1))
                  for bank in banks]
        busy = [cycle for cycle, bank in window if (cycle, bank) in per_cycle]
        if busy:
            gathered.append((now, max(busy) + 1 - now, len(busy)))
        for model in models:
            model.note_access(banks, now, duration)
        for key in window:
            per_cycle[key] = per_cycle.get(key, 0) + 1
    expected = sum(n - 1 for n in per_cycle.values())
    assert plain["vrf_bank_conflicts"] == traced["vrf_bank_conflicts"] == expected
    assert [(e.ts, e.dur, e.args["conflicts"]) for e in bus.events] == gathered


def _reuse(moves):
    """Reuse distance of one wavefront executing ``v_mov_b32 v<dest>,
    v<src>`` per ``(dest, src)`` (``src`` None: an inline constant), as
    the trace fold computes it — checked against the per-issue oracle."""
    instrs = [Gcn3Instr(opcode="v_mov_b32", dest=VReg(dest),
                        srcs=(SImm(0) if src is None else VReg(src),))
              for dest, src in moves]
    instrs.append(Gcn3Instr(opcode="s_endpgm"))
    kernel = Gcn3Kernel(
        name="reuse", instrs=instrs, sgprs_used=10, vgprs_used=32, params=[],
        kernarg_bytes=0, group_bytes=0, private_bytes=0, spill_bytes=0,
        scratch_bytes=0,
    )
    kernel.compute_layout()
    stream = WfStream()
    for pc, desc in enumerate(predecode_kernel(kernel)):
        # one instruction in four carries a uniqueness probe, as recorded
        probed = (pc + 1) & 3 == 0 and bool(desc.rw_slots)
        record(stream, pc, ExecResult(active_lanes=64), probed,
               [1] * len(desc.read_slots), [1] * len(desc.write_slots))
    folded = StatSet()
    wf_decode(ExecTrace({}, [stream]), 0, kernel,
              records=False).fold.apply(folded)
    assert folded.to_payload() == walk_stream(stream, kernel).to_payload()
    return folded.reuse_distance


class TestReuseDistance:
    def test_distance_counted_between_accesses(self):
        # v5 is read by dynamic instructions 1 and 4
        dist = _reuse([(1, 5), (2, None), (3, None), (4, 5)])
        assert dist.count == 1
        assert dist.median == 3

    def test_first_access_records_nothing(self):
        assert _reuse([(1, 5), (2, 6), (3, 7)]).count == 0

    def test_per_slot_tracking(self):
        fillers = [(10 + i, None) for i in range(7)]
        # v1 written at 1, v2 at 2, both touched at 10; then v_mov v1, v1
        # at 11 reuses v1 across instructions (1) and within one (0)
        dist = _reuse([(1, None), (2, None)] + fillers + [(1, 2), (1, 1)])
        assert dist.count == 4
        assert dist.total == (10 - 1) + (10 - 2) + 1 + 0


class TestUniqueness:
    def test_all_same_value(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        regs[1][:] = 7
        assert unique_counts(regs, [1], np.ones(64, dtype=bool), 64) == [1]

    def test_all_unique_values(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        regs[1] = np.arange(64)
        assert unique_counts(regs, [1, 2], np.ones(64, dtype=bool),
                             64) == [64, 1]

    def test_only_active_lanes_counted(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        regs[1] = np.arange(64)
        mask = np.zeros(64, dtype=bool)
        mask[:8] = True
        assert unique_counts(regs, [1], mask, 8) == [8]

    def test_no_active_lanes_noop(self):
        regs = np.zeros((4, 64), dtype=np.uint32)
        assert unique_counts(regs, [1], np.zeros(64, dtype=bool), 0) == []


#: One sampled probe: the slots it reads (duplicates allowed) and its
#: EXEC mask, drawn as random, all-active or one-active lanes.
_PROBES = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                 max_size=4),
        st.one_of(st.integers(min_value=1, max_value=(1 << 64) - 1),
                  st.just((1 << 64) - 1),
                  st.integers(min_value=0, max_value=63).map(
                      lambda lane: 1 << lane)),
    ),
    min_size=1, max_size=6)


class TestBatchedUniqueness:
    @given(probes=_PROBES, seed=st.integers(min_value=0, max_value=2**16),
           spread=st.sampled_from([1, 3, 64, 1 << 32]))
    def test_unique_rows_matches_unique_counts(self, probes, seed, spread):
        """The functional pass's batched count equals the per-slot
        definition probe by probe, for any register contents."""
        regs = (np.random.default_rng(seed)
                .integers(0, spread, size=(8, 64)).astype(np.uint32))
        expected, rows, masks = [], [], []
        for slots, bits in probes:
            mask = np.array([(bits >> lane) & 1 for lane in range(64)],
                            dtype=bool)
            expected += unique_counts(regs, slots, mask, bin(bits).count("1"))
            rows.append(regs[list(slots)])
            masks.append(np.broadcast_to(mask, (len(slots), 64)))
        got = unique_rows(np.concatenate(rows), np.concatenate(masks))
        assert got.tolist() == expected
