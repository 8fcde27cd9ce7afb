"""Execution traces: what the functional pass records and the cycle
model replays.

The *stream* — which instruction issues, which lanes are active, which
memory lines it touches, where branches go — is a property of the
program and its input, not of the timing axes (cache geometry, VRF
banks, latencies, CU count) that :mod:`repro.explore` sweeps over.  So
semantics run once, timing-free (:mod:`repro.timing.funcsim`), and the
CU model only ever walks the result:

* :class:`TraceRecorder` collects, per wavefront, the minimal
  timing-relevant outcome of every functional execution into compact
  :mod:`array`-backed streams, written a group step at a time by
  :mod:`repro.timing.funcsim` (``_Records.flush``).
* :class:`ExecTrace` is the recorded artifact: per-wavefront streams plus
  metadata, with a binary serialization for the on-disk trace store
  (:class:`repro.harness.cache.TraceStore`).  An ``execute`` run keeps
  its trace in memory only; ``capture`` stores it; ``replay`` loads one.
* :class:`ReplayCursor` is a wavefront's functional state as the CU sees
  it: the issue path reads the next record's outcome without touching
  registers, memory or a statistic (what a trace determines is folded
  once per wavefront, :class:`repro.timing.vector.FoldArtifact`).  This
  class walks the raw arrays record by record and is what
  ``engine="scalar"`` selects — kept only until the benchmark PR
  releases that name; every other run uses its batch-decoded subclass
  in :mod:`repro.timing.vector`.  Both hand the CU one plain tuple per
  issued instruction (see :meth:`ReplayCursor.advance`).

What must be recorded (everything else the timing model derives from the
static predecoded :class:`~repro.timing.predecode.IssueDesc` tables):

* the per-instruction :class:`~repro.common.exec_types.ExecResult`
  fields the CU consumes — memory kind and line list, branch target,
  wavefront end, barrier, active-lane count;
* HSAIL reconvergence-stack *jumps* (simulator-initiated PC changes that
  flush the instruction buffer **before** an issue);
* the sampled VRF value-uniqueness probe outcomes, which read live
  register values under the live EXEC mask and therefore exist only
  while semantics execute (consumed by the fold, never by a cursor).

Why wavefront identity is a safe stream key: the functional pass runs
workgroups in dispatch order and the dispatcher places them strictly in
that order (one per cycle from a FIFO), both numbering wavefronts with
a running counter, so wavefront ``wf_id`` maps to the same (dispatch,
workgroup, wavefront) triple under every timing configuration — only
*where* and *when* it is timed changes.

Serialized traces are host-local cache artifacts (keyed by a source-tree
stamp and the functional config fingerprint, see ``harness/cache.py``);
the encoding uses native-endian :mod:`array` buffers and is not meant to
move between machines.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..common.errors import ReproError
from ..common.exec_types import MemKind

#: bump when the stream encoding changes; stored traces then read as
#: misses instead of desynchronizing the replay.
TRACE_FORMAT_VERSION = 1

_MAGIC = b"RPROTRC1\n"

# flag-byte layout of one instruction record
_F_TAKEN = 1        # branch_taken was truthy
_F_TARGET = 2       # control transferred: consume one entry of `targets`
_F_ENDS = 4         # ends_wavefront
_F_BARRIER = 8      # is_barrier
_F_MEM_SHIFT = 4    # bits 4-6: MemKind index (0 = none)

_MEM_KINDS: Tuple[str, ...] = (
    MemKind.NONE,
    MemKind.GLOBAL_LOAD,
    MemKind.GLOBAL_STORE,
    MemKind.SCALAR_LOAD,
    MemKind.LDS_ACCESS,
)
_MEM_INDEX: Dict[str, int] = {kind: i for i, kind in enumerate(_MEM_KINDS)}

#: One issued instruction's outcome as a cursor hands it to the CU (see
#: :meth:`ReplayCursor.advance` for the fields).
Record = Tuple[int, int, int, object, Optional[int], int, bool, bool]

#: (attribute name, array typecode) of every stream, in serialization order.
_STREAM_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("code", "i"),          # pc of each instr record; jumps as -(pc + 1)
    ("flags", "B"),         # one flag byte per *instruction* record
    ("active", "B"),        # active-lane count per instruction record
    ("targets", "i"),       # taken-branch / jump-free transfer targets
    ("mem_counts", "H"),    # lines per memory access, in access order
    ("mem_lines", "q"),     # flat 64B line addresses
    ("probe_active", "B"),  # EXEC popcount per sampled probe point
    ("probe_read", "B"),    # unique counts, one per sampled read slot
    ("probe_write", "B"),   # unique counts, one per sampled write slot
)


class TraceError(ReproError):
    """A trace could not be recorded, decoded, or replayed."""


class WfStream:
    """The recorded outcome streams of one wavefront.

    ``code`` interleaves two record kinds: a value ``>= 0`` is an
    instruction record (the PC it executed at) with one parallel entry
    in ``flags``/``active``; a value ``< 0`` encodes a reconvergence
    jump to PC ``-(value + 1)`` taken *before* the next instruction.
    Variable-length payloads (branch targets, memory line lists, probe
    outcomes) live in side streams consumed in order.
    """

    __slots__ = tuple(name for name, _tc in _STREAM_FIELDS)

    def __init__(self) -> None:
        for name, typecode in _STREAM_FIELDS:
            setattr(self, name, array(typecode))

    # -- capture -----------------------------------------------------------

    def jump(self, new_pc: int) -> None:
        """A simulator-initiated (HSAIL reconvergence) PC change."""
        self.code.append(-(new_pc + 1))

    def approx_bytes(self) -> int:
        return sum(
            len(getattr(self, name)) * getattr(self, name).itemsize
            for name, _tc in _STREAM_FIELDS
        )


class TraceRecorder:
    """Collects one :class:`WfStream` per wavefront from the functional
    pass."""

    def __init__(self) -> None:
        self.streams: List[WfStream] = []

    def stream(self, wf_id: int) -> WfStream:
        """The stream for wavefront ``wf_id``.

        Wavefront ids are assigned sequentially, so streams are created
        in id order; a gap means the recorder missed a dispatch.
        """
        if wf_id != len(self.streams):
            raise TraceError(
                f"wavefront ids must be captured in order "
                f"(got {wf_id}, expected {len(self.streams)})"
            )
        stream = WfStream()
        self.streams.append(stream)
        return stream

    def finish(self, meta: "Dict[str, object]") -> "ExecTrace":
        meta = dict(meta)
        meta["format"] = TRACE_FORMAT_VERSION
        meta["wavefronts"] = len(self.streams)
        return ExecTrace(meta=meta, streams=self.streams)


class ExecTrace:
    """A captured functional trace: per-wavefront streams + metadata."""

    __slots__ = ("meta", "streams", "_decode_cache", "_shapes", "witnesses",
                 "staged")

    def __init__(self, meta: "Dict[str, object]",
                 streams: List[WfStream]) -> None:
        self.meta = meta
        self.streams = streams
        #: per-wavefront folds and batch decodes (timing/vector.py),
        #: memoized here because both depend only on the stream contents —
        #: every sweep cell replaying this trace shares one pass.  What
        #: the instruction sequence decides is in ``_shapes``, once per
        #: distinct (kernel, code, flags, targets), not per wavefront.
        self._decode_cache: "Dict[int, object]" = {}
        self._shapes: "Dict[tuple, object]" = {}
        #: eviction-free replays of this trace that later replays may be
        #: derived from (harness/equivalence.py).  Only the trace store's
        #: parsed-trace memo turns this into a list, so it lives and dies
        #: with the memo entry exactly as the decode cache does; a trace
        #: nobody memoizes can neither file nor serve a witness.
        self.witnesses: "Optional[List[object]]" = None
        #: the staged process its replays re-arm (harness/runner.py).
        self.staged: "Optional[object]" = None

    @property
    def verified(self) -> bool:
        return bool(self.meta.get("verified"))

    @property
    def dynamic_instructions(self) -> int:
        return sum(len(s.flags) for s in self.streams)

    def approx_bytes(self) -> int:
        return sum(s.approx_bytes() for s in self.streams)

    def stream(self, wf_id: int) -> WfStream:
        try:
            return self.streams[wf_id]
        except IndexError:
            raise TraceError(
                f"trace has {len(self.streams)} wavefronts, replay asked "
                f"for wf {wf_id}: the capture ran a different dispatch "
                f"sequence"
            ) from None

    def cursor(self, wf_id: int, kernel: object,
               is_gcn3: bool) -> "ReplayCursor":
        return ReplayCursor(self.stream(wf_id), kernel, is_gcn3)

    # -- serialization -----------------------------------------------------
    #
    # Layout: MAGIC, 4-byte little-endian header length, JSON header
    # ({"meta": ..., "streams": [[len per stream field ...], ...]}), then
    # the raw array buffers of every stream in declaration order.

    def to_bytes(self) -> bytes:
        import json

        header = {
            "meta": self.meta,
            "streams": [
                [len(getattr(s, name)) for name, _tc in _STREAM_FIELDS]
                for s in self.streams
            ],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        parts = [_MAGIC, len(blob).to_bytes(4, "little"), blob]
        for stream in self.streams:
            for name, _tc in _STREAM_FIELDS:
                parts.append(getattr(stream, name).tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExecTrace":
        import json

        if not data.startswith(_MAGIC):
            raise TraceError("bad trace magic")
        offset = len(_MAGIC)
        if len(data) < offset + 4:
            raise TraceError("truncated trace header length")
        header_len = int.from_bytes(data[offset:offset + 4], "little")
        offset += 4
        try:
            header = json.loads(data[offset:offset + header_len])
        except ValueError as exc:
            raise TraceError(f"corrupt trace header: {exc}") from exc
        offset += header_len
        meta = header.get("meta")
        lengths = header.get("streams")
        if not isinstance(meta, dict) or not isinstance(lengths, list):
            raise TraceError("malformed trace header")
        if meta.get("format") != TRACE_FORMAT_VERSION:
            raise TraceError(f"trace format {meta.get('format')!r} != "
                             f"{TRACE_FORMAT_VERSION}")
        streams: List[WfStream] = []
        for per_stream in lengths:
            if (not isinstance(per_stream, list)
                    or len(per_stream) != len(_STREAM_FIELDS)):
                raise TraceError("malformed stream length table")
            stream = WfStream()
            for (name, typecode), count in zip(_STREAM_FIELDS, per_stream):
                arr = array(typecode)
                nbytes = int(count) * arr.itemsize
                chunk = data[offset:offset + nbytes]
                if len(chunk) != nbytes:
                    raise TraceError(f"truncated trace stream {name!r}")
                arr.frombytes(chunk)
                offset += nbytes
                setattr(stream, name, arr)
            _check_stream(stream, len(streams))
            streams.append(stream)
        if offset != len(data):
            raise TraceError(f"{len(data) - offset} trailing bytes in trace")
        return cls(meta=meta, streams=streams)


def _check_stream(stream: WfStream, wf_id: int) -> None:
    """The laws tying one stream's fields together: a trace whose length
    table was edited fails to load, not replays wrong or crashes."""
    flags = np.asarray(stream.flags)
    n_instr = int(np.count_nonzero(np.asarray(stream.code) >= 0))
    for name, want in (
            ("flags", n_instr), ("active", n_instr),
            ("targets", np.count_nonzero(flags & _F_TARGET)),
            ("mem_counts", np.count_nonzero(flags >> _F_MEM_SHIFT)),
            ("mem_lines", np.asarray(stream.mem_counts).sum(dtype=np.int64))):
        got = len(getattr(stream, name))
        if got != want:
            raise TraceError(f"wavefront {wf_id}: {got} {name} entries "
                             f"where the stream implies {want}")


class ReplayCursor:
    """Drives one wavefront's issue path from a recorded stream.

    A cursor is the ``cursor`` of a :class:`TimingWavefront`: it exposes
    the attributes the timing model reads (``pc``, ``done``, ``kernel``,
    ``is_gcn3``, ``jump_armed``: the next record is a reconvergence jump)
    and advances them from the trace.
    """

    __slots__ = (
        "kernel", "pc", "done", "is_gcn3", "jump_armed",
        "_code", "_flags", "_active", "_targets", "_mem_counts",
        "_mem_lines", "_i_code", "_i_instr", "_i_target", "_i_mem",
        "_i_line",
    )

    def __init__(self, stream: WfStream, kernel: object,
                 is_gcn3: bool) -> None:
        self.kernel = kernel
        self.pc = 0
        self.done = False
        self.is_gcn3 = is_gcn3
        self._code = stream.code
        self._flags = stream.flags
        self._active = stream.active
        self._targets = stream.targets
        self._mem_counts = stream.mem_counts
        self._mem_lines = stream.mem_lines
        self._i_code = 0
        self._i_instr = 0
        self._i_target = 0
        self._i_mem = 0
        self._i_line = 0
        self.jump_armed = len(stream.code) > 0 and stream.code[0] < 0

    def take_jump(self) -> Optional[int]:
        """Consume a pending reconvergence jump, if the next record is one.

        The functional pass checks reconvergence before every
        instruction, so the jump fires on the wavefront's first issue
        attempt after the preceding instruction, before any
        instruction-buffer checks.
        """
        i = self._i_code
        code = self._code
        if i < len(code) and code[i] < 0:
            self._i_code = i + 1
            self.jump_armed = i + 1 < len(code) and code[i + 1] < 0
            new_pc = -code[i] - 1
            self.pc = new_pc
            return new_pc
        return None

    def advance(self, pc: int) -> Record:
        """Consume the next instruction record and return it.

        A record is the tuple ``(pc, active_lanes, mem, mem_lines,
        target, next_pc, is_barrier, ends)``: ``mem`` indexes
        ``_MEM_KINDS`` (0 = no access), ``target`` is the taken branch's
        destination (``None`` unless control transferred, i.e. unless
        the instruction buffer must flush) and ``next_pc`` the cursor's
        pc after it.  ``pc`` is the issue path's program counter — a
        mismatch with the recorded stream means the trace belongs to a
        different functional execution and the replay must abort rather
        than produce silently wrong statistics.
        """
        i = self._i_code
        code = self._code
        try:
            recorded_pc = code[i]
        except IndexError:
            raise TraceError(
                f"replay ran past the end of a wavefront stream at pc {pc}"
            ) from None
        if recorded_pc != pc:
            raise TraceError(
                f"replay desynchronized: trace recorded pc {recorded_pc}, "
                f"timing model issued pc {pc}"
            )
        self._i_code = i + 1
        if i + 1 < len(code) and code[i + 1] < 0:
            self.jump_armed = True
        j = self._i_instr
        self._i_instr = j + 1
        flags = self._flags[j]

        mem = flags >> _F_MEM_SHIFT
        lines: object = ()
        if mem:
            count = self._mem_counts[self._i_mem]
            self._i_mem += 1
            start = self._i_line
            self._i_line = start + count
            lines = self._mem_lines[start:self._i_line].tolist()

        target = None
        if flags & _F_TARGET:
            target = self._targets[self._i_target]
            self._i_target += 1
            self.pc = target
        else:
            self.pc = pc + 1

        ends = bool(flags & _F_ENDS)
        if ends:
            self.done = True
        return (pc, self._active[j], mem, lines, target, self.pc,
                bool(flags & _F_BARRIER), ends)
