"""Unit tests for the functional trace: streams, serialization, cursor."""

import pytest

from repro.common.exec_types import ExecResult, MemKind
from repro.timing.replay import (
    _MEM_KINDS,
    TRACE_FORMAT_VERSION,
    ExecTrace,
    TraceError,
    TraceRecorder,
    WfStream,
)
from tests.trace_oracle import record


def _result(**kw) -> ExecResult:
    r = ExecResult()
    for key, value in kw.items():
        setattr(r, key, value)
    return r


def _sample_trace() -> ExecTrace:
    """A tiny hand-built two-wavefront trace exercising every stream."""
    rec = TraceRecorder()
    s0 = rec.stream(0)
    record(s0, 0, _result(active_lanes=4), False, None, None)
    record(s0, 1, _result(active_lanes=4, mem_kind=MemKind.GLOBAL_LOAD,
                          mem_lines=[64, 128]), True, [2], [1])
    record(s0, 2, _result(active_lanes=2, branch_taken=True, next_pc=7),
           False, None, None)
    s0.jump(9)
    record(s0, 9, _result(active_lanes=4, ends_wavefront=True),
           False, None, None)
    s1 = rec.stream(1)
    record(s1, 0, _result(active_lanes=1, is_barrier=True), False,
           None, None)
    record(s1, 1, _result(active_lanes=1, ends_wavefront=True), False,
           None, None)
    return rec.finish({"verified": True, "workload": "unit", "isa": "gcn3"})


class TestRecorder:
    def test_streams_must_be_created_in_order(self):
        rec = TraceRecorder()
        rec.stream(0)
        with pytest.raises(TraceError):
            rec.stream(2)

    def test_finish_stamps_format_and_counts(self):
        trace = _sample_trace()
        assert trace.meta["format"] == TRACE_FORMAT_VERSION
        assert trace.meta["wavefronts"] == 2
        assert trace.verified
        assert trace.dynamic_instructions == 6  # jumps are not instructions
        assert trace.approx_bytes() > 0


class TestSerialization:
    def test_roundtrip_is_exact(self):
        trace = _sample_trace()
        loaded = ExecTrace.from_bytes(trace.to_bytes())
        assert loaded.meta == trace.meta
        assert len(loaded.streams) == len(trace.streams)
        for a, b in zip(loaded.streams, trace.streams):
            for name in WfStream.__slots__:
                assert getattr(a, name) == getattr(b, name), name

    def test_bad_magic(self):
        with pytest.raises(TraceError, match="magic"):
            ExecTrace.from_bytes(b"definitely not a trace")

    def test_truncated_header(self):
        blob = _sample_trace().to_bytes()
        with pytest.raises(TraceError):
            ExecTrace.from_bytes(blob[:10])

    def test_truncated_stream_payload(self):
        blob = _sample_trace().to_bytes()
        with pytest.raises(TraceError, match="truncated"):
            ExecTrace.from_bytes(blob[:-3])

    def test_trailing_garbage(self):
        blob = _sample_trace().to_bytes()
        with pytest.raises(TraceError, match="trailing"):
            ExecTrace.from_bytes(blob + b"xx")

    def test_stale_format_version(self):
        trace = _sample_trace()
        trace.meta["format"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(TraceError, match="format"):
            ExecTrace.from_bytes(trace.to_bytes())

    @pytest.mark.parametrize("field", ["flags", "active", "targets",
                                       "mem_counts", "mem_lines"])
    def test_stream_laws(self, field):
        """Byte counts alone are not enough: every field's length must
        agree with what the stream's code and flags imply."""
        trace = _sample_trace()
        getattr(trace.streams[0], field).pop()
        with pytest.raises(TraceError, match=f"wavefront 0: .* {field} "):
            ExecTrace.from_bytes(trace.to_bytes())


class TestReplayCursor:
    # advance() returns the record tuple (pc, active_lanes, mem, mem_lines,
    # target, next_pc, is_barrier, ends); mem indexes _MEM_KINDS.

    def test_replays_the_recorded_outcomes(self):
        trace = _sample_trace()
        cur = trace.cursor(0, kernel=None, is_gcn3=True)

        assert not cur.jump_armed and cur.take_jump() is None
        assert cur.advance(0) == (0, 4, 0, (), None, 1, False, False)
        assert cur.pc == 1 and not cur.done

        pc, active, mem, lines, target, *_ = cur.advance(1)
        assert _MEM_KINDS[mem] == MemKind.GLOBAL_LOAD
        assert list(lines) == [64, 128] and target is None

        rec = cur.advance(2)
        assert rec[4] == 7 and rec[5] == 7   # taken branch flushes to 7
        assert cur.pc == 7

        assert cur.jump_armed                # the next record is a jump
        assert cur.take_jump() == 9          # reconvergence overrides pc
        assert cur.pc == 9 and not cur.jump_armed
        *_, barrier, ends = cur.advance(9)
        assert ends and not barrier and cur.done

    def test_second_wavefront_is_independent(self):
        trace = _sample_trace()
        cur = trace.cursor(1, kernel=None, is_gcn3=False)
        assert cur.advance(0) == (0, 1, 0, (), None, 1, True, False)

    def test_pc_desync_aborts(self):
        cur = _sample_trace().cursor(0, kernel=None, is_gcn3=True)
        with pytest.raises(TraceError, match="desynchronized"):
            cur.advance(5)

    def test_overrun_aborts(self):
        trace = _sample_trace()
        cur = trace.cursor(1, kernel=None, is_gcn3=False)
        cur.advance(0)
        cur.advance(1)
        with pytest.raises(TraceError, match="past the end"):
            cur.advance(2)

    def test_unknown_wavefront_aborts(self):
        with pytest.raises(TraceError, match="wavefronts"):
            _sample_trace().cursor(7, kernel=None, is_gcn3=True)
