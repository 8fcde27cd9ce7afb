"""Trace folds and the batch-decoded replay cursor.

Everything the CU model reads from a recorded wavefront stream is a
function of the stream alone, never of the swept configuration, so it is
computed here and memoized on the :class:`ExecTrace`: once per stream
shape (:class:`StreamShape`, ``_shapes``) what the instruction sequence
decides, once per wavefront its lanes, lines and probes
(``_decode_cache``):

* :class:`FoldArtifact` — every ``trace``-class statistic
  (:class:`~repro.obs.metrics.MetricClass`: instruction mix, SIMD lane
  utilisation, VRF reuse distance, sampled value uniqueness, IB
  flushes, memory requests by kind, barrier records) as reductions over
  the whole stream.  This is the only place they are computed:
  ``Gpu._place_workgroup`` applies a workgroup's folds
  (:func:`fold_workgroup`) to the dispatch
  :class:`~repro.common.stats.StatSet` for every run — stored trace or
  just recorded, event-traced or not, either cursor — so they cannot
  vary with timing, and the cycle model computes none of them.
* the per-record outcome tuples :meth:`VectorReplayCursor.advance`
  hands out with one list index, in place of the record-by-record array
  walk of :class:`~repro.timing.replay.ReplayCursor`.

A 36-point sweep replaying one stored trace pays for one decode; a run
replaying the trace it just recorded decodes each stream once and keeps
no memo.  What stays in the event loop is exactly the state that depends
on *when* the timing model issues: VRF bank-conflict windows, cache and
DRAM port reservations, ``s_waitcnt`` scoreboards, every scheduling
decision, and event emission.  ``tests/trace_oracle.py`` keeps an
independent per-issue accumulation the fold is checked against.

Engine selection (:func:`resolve_engine`): there is one issue path and
two cursors feeding it.  ``auto`` and ``vector`` mean the batch-decoded
cursor for every run; an explicit ``scalar`` is the raw-array record
walk, kept only until the benchmark PR releases the name.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigError
from ..common.exec_types import MemKind
from ..common.memo import kernel_memo
from ..common.stats import StatSet
from ..obs.metrics import (BARRIERS, DYNAMIC_INSTRUCTIONS, IB_FLUSHES,
                           LDS_ACCESSES, SMEM_REQUESTS, VMEM_LINES,
                           VMEM_REQUESTS, WORKGROUPS_DISPATCHED)
from .predecode import UNIT_SIMD, predecode_kernel
from .replay import (
    _F_BARRIER,
    _F_ENDS,
    _F_MEM_SHIFT,
    _F_TARGET,
    _MEM_INDEX,
    _MEM_KINDS,
    ExecTrace,
    Record,
    ReplayCursor,
    TraceError,
    WfStream,
)

ENGINES = ("auto", "scalar", "vector")

#: Which recorded memory kinds (``_MEM_KINDS`` index) are vector accesses.
_IS_VECTOR = np.array([kind in (MemKind.GLOBAL_LOAD, MemKind.GLOBAL_STORE)
                       for kind in _MEM_KINDS])


def resolve_engine(requested: str, *, replay: bool = False,
                   traced: bool = False) -> str:
    """The cursor a run uses: ``scalar`` only when asked for by name.

    ``replay`` and ``traced`` no longer matter (every run replays a
    trace, and events are emitted from the one issue path); they are
    accepted for the frozen ``benchmarks/e2e`` harness.
    """
    if requested not in ENGINES:
        raise ConfigError(
            f"unknown engine {requested!r}: pick auto, scalar, or vector"
        )
    return "scalar" if requested == "scalar" else "vector"


# ---------------------------------------------------------------------------
# Per-kernel static tables
# ---------------------------------------------------------------------------


class KernelTables:
    """Static per-PC facts of one kernel, laid out for array gathers.

    Everything here is a pure function of the predecoded
    :class:`~repro.timing.predecode.IssueDesc` table; built once per
    kernel and cached on the kernel object like the issue descriptors
    themselves.
    """

    __slots__ = ("categories", "cat_code", "is_simd", "has_slots",
                 "n_read", "n_write", "n_rw", "rw_starts", "rw_flat")

    def __init__(self, kernel: object) -> None:
        descs = predecode_kernel(kernel)
        self.categories = sorted({d.category for d in descs},
                                 key=lambda c: c.value)
        index = {cat: i for i, cat in enumerate(self.categories)}
        rw_starts: List[int] = []
        rw_flat: List[int] = []
        for desc in descs:
            rw_starts.append(len(rw_flat))
            rw_flat.extend(desc.rw_slots)
        self.cat_code = np.array([index[d.category] for d in descs])
        self.is_simd = np.array([d.unit == UNIT_SIMD for d in descs])
        self.has_slots = np.array(
            [bool(d.read_slots or d.write_slots) for d in descs])
        self.n_read = np.array([len(d.read_slots) for d in descs])
        self.n_write = np.array([len(d.write_slots) for d in descs])
        self.n_rw = np.array([len(d.rw_slots) for d in descs])
        self.rw_starts = np.array(rw_starts)
        self.rw_flat = np.array(rw_flat, dtype=np.int64)


def kernel_tables(kernel: object) -> KernelTables:
    """The kernel's fold tables, built once and cached on the kernel."""
    return kernel_memo(kernel, "vector_tables", lambda: KernelTables(kernel))


# ---------------------------------------------------------------------------
# Trace-determined statistics
# ---------------------------------------------------------------------------


class FoldArtifact:
    """One wavefront's trace-determined statistics, pre-reduced.

    Every quantity is a commutative integer sum over the wavefront's
    records, so the order wavefronts are placed in cannot change the
    :class:`StatSet` payload.  Zero-count counter/category/bucket entries
    are never stored — payload encoding preserves key sets.
    """

    __slots__ = ("counts", "barriers", "cats", "simd", "reuse", "read_probe",
                 "write_probe")

    def __init__(self) -> None:
        #: (counter name, count) of every nonzero per-wavefront counter.
        self.counts: "Tuple[Tuple[str, int], ...]" = ()
        #: barrier records; a workgroup's releases are its wavefronts'
        #: maximum (:func:`fold_workgroup`).
        self.barriers = 0
        self.cats: "Tuple[Tuple[object, int], ...]" = ()
        self.simd: "Optional[Tuple[int, int]]" = None
        self.reuse: "Optional[Tuple[Tuple[Tuple[int, int], ...], int, int]]" = None
        self.read_probe: "Optional[Tuple[int, int]]" = None
        self.write_probe: "Optional[Tuple[int, int]]" = None

    def apply(self, stats: StatSet) -> None:
        """Fold this wavefront's statistics into ``stats``."""
        if not self.counts:
            return
        counters = stats.counters
        for name, count in self.counts:
            counters[name] += count
        by_category = stats.instructions_by_category
        for cat, count in self.cats:
            by_category[cat] += count
        if self.simd is not None:
            stats.simd_utilization.add(self.simd[0], self.simd[1])
        if self.reuse is not None:
            items, added, total_distance = self.reuse
            dist = stats.reuse_distance
            buckets = dist._buckets
            for value, count in items:
                buckets[value] += count
            dist._count += added
            dist._total += total_distance
            dist._sorted_keys = None
        if self.read_probe is not None:
            stats.read_uniqueness.add(self.read_probe[0], self.read_probe[1])
        if self.write_probe is not None:
            stats.write_uniqueness.add(self.write_probe[0],
                                       self.write_probe[1])


def fold_workgroup(stats: StatSet, folds: "Sequence[FoldArtifact]") -> None:
    """Apply one placed workgroup's trace-determined statistics: each
    wavefront's fold, the workgroup itself, and its barrier releases.

    Every release frees all live wavefronts of the workgroup at once and
    none ends while waiting, so there are exactly as many releases as
    the wavefront with the most barrier records has, whatever the timing.
    """
    for fold in folds:
        fold.apply(stats)
    stats.bump(WORKGROUPS_DISPATCHED)
    barriers = max(fold.barriers for fold in folds)
    if barriers:
        stats.bump(BARRIERS, barriers)


class StreamShape:
    """Everything a stream's ``code``, ``flags`` and ``targets`` decide,
    built once per distinct ``(kernel, code, flags, targets)`` and shared
    by every wavefront that recorded them (:func:`wf_decode`).

    Lockstep wavefronts record the same sequence; their lanes, lines and
    probes are read per wavefront (:func:`_fold`, :func:`_records`).
    """

    __slots__ = ("counts", "barriers", "cats", "simd", "reuse",
                 "vector_mem", "probe_n_read", "probe_n_write", "mem_at",
                 "active", "records", "jump_at", "jump_target")

    def __init__(self, stream: WfStream, tables: KernelTables) -> None:
        code = np.asarray(stream.code)
        instr_mask = code >= 0
        pcs = code[instr_mask]
        n = len(pcs)
        flags = np.asarray(stream.flags)
        # Memory requests by kind.  IB flushes: every reconvergence
        # jump, plus every record holding TAKEN|TARGET (each consumed
        # exactly one entry of ``targets``).
        mem = flags >> _F_MEM_SHIFT
        by_kind = np.bincount(mem, minlength=len(_MEM_KINDS)).tolist()
        #: which memory accesses are vector ones (for ``vmem_lines``)
        self.vector_mem = _IS_VECTOR[mem[mem > 0]]
        #: the shape's counters, zeros kept (:func:`_fold` drops them)
        self.counts = (
            (DYNAMIC_INSTRUCTIONS.name, n),
            (IB_FLUSHES.name, len(code) - n + len(stream.targets)),
            (VMEM_REQUESTS.name, int(np.count_nonzero(self.vector_mem))),
            (SMEM_REQUESTS.name, by_kind[_MEM_INDEX[MemKind.SCALAR_LOAD]]),
            (LDS_ACCESSES.name, by_kind[_MEM_INDEX[MemKind.LDS_ACCESS]]))
        self.barriers = int(np.count_nonzero(flags & _F_BARRIER))

        # Instruction mix.
        cat_counts = np.bincount(tables.cat_code[pcs],
                                 minlength=len(tables.categories)).tolist()
        self.cats = tuple(
            (cat, count) for cat, count in zip(tables.categories, cat_counts)
            if count
        )
        #: the VALU records: one (active, 64) utilisation sample each
        self.simd = np.flatnonzero(tables.is_simd[pcs])
        self.reuse = _reuse(tables, pcs)

        # Probes: record j is sampled iff (j+1) & 3 == 0 and it touches
        # VRF slots; the unique counts it stored (if any lane was active)
        # are one per read and one per write slot.
        sampled = pcs[((np.arange(1, n + 1) & 3) == 0)
                      & tables.has_slots[pcs]]
        self.probe_n_read = tables.n_read[sampled]
        self.probe_n_write = tables.n_write[sampled]

        #: the decoded tuples (:meth:`decode`), built the first time a
        #: batch-decoded cursor asks; the raw-array cursor never does
        self.records: "Optional[List[Record]]" = None

    def decode(self, stream: WfStream) -> List[Record]:
        """The outcome tuples of ``stream``, a wavefront of this shape,
        with the memory line lists left empty, kept as ``records``."""
        code = np.asarray(stream.code)
        instr_mask = code >= 0
        pc_list = code[instr_mask].tolist()
        n = len(pc_list)
        flags = np.asarray(stream.flags)
        # Reconvergence jumps (records with code < 0) fire *before* the
        # next instruction record: ``jump_at[k]`` is the number of
        # instruction records issued before jump ``k`` (HSAIL only); a
        # closing -1 matches no record.
        jump_pos = np.flatnonzero(~instr_mask)
        self.jump_at = np.cumsum(instr_mask)[jump_pos].tolist() + [-1]
        self.jump_target = (-code[jump_pos] - 1).tolist()
        # Branch targets: records with the TARGET flag consume one entry
        # of the ``targets`` side stream, in order.
        target: List[Optional[int]] = [None] * n
        next_pc = [pc + 1 for pc in pc_list]
        for rec, dest in zip(np.flatnonzero(flags & _F_TARGET).tolist(),
                             stream.targets):
            target[rec] = dest
            next_pc[rec] = dest
        mem_list = (flags >> _F_MEM_SHIFT).tolist()
        #: the records that access memory, in access order
        self.mem_at = [rec for rec, kind in enumerate(mem_list) if kind]
        #: the active-lane counts the tuples carry
        self.active = np.array(stream.active)
        self.records = list(zip(
            pc_list, stream.active.tolist(), mem_list, [()] * n, target,
            next_pc, ((flags & _F_BARRIER) > 0).tolist(),
            ((flags & _F_ENDS) > 0).tolist()))
        return self.records


def _reuse(tables: KernelTables, pcs) -> "Optional[tuple]":
    """Reuse distance: dynamic instructions a wavefront executes between
    two accesses to the same VRF slot (operands in ``rw_slots`` order,
    duplicates kept, so a within-instruction repeat has distance 0).

    Flattening to (record index, slot) pairs in occurrence order and
    stable-sorting by slot turns each slot's access history into one
    run; adjacent differences of the record indices are the distances.
    """
    lens = tables.n_rw[pcs]
    total = int(lens.sum())
    if total == 0:
        return None
    rec_starts = np.cumsum(lens) - lens
    j_flat = np.repeat(np.arange(len(pcs)), lens)
    within = np.arange(total) - rec_starts[j_flat]
    slot_flat = tables.rw_flat[tables.rw_starts[pcs[j_flat]] + within]

    order = np.argsort(slot_flat, kind="stable")
    slot_sorted = slot_flat[order]
    j_sorted = j_flat[order]
    same = slot_sorted[1:] == slot_sorted[:-1]
    distances = (j_sorted[1:] - j_sorted[:-1])[same]
    counts = np.bincount(distances).tolist() if len(distances) else []

    items = tuple((value, count) for value, count in enumerate(counts)
                  if count)
    if not items:
        return None
    return (items, sum(count for _, count in items),
            sum(value * count for value, count in items))


def _fold(shape: StreamShape, stream: WfStream, wf_id: int) -> FoldArtifact:
    """One wavefront's statistics: its shape's, plus what its own lanes,
    lines and probes add."""
    fold = FoldArtifact()
    lines = np.asarray(stream.mem_counts)[shape.vector_mem]
    # A vector access that recorded no line still occupies one line slot.
    vmem_lines = (VMEM_LINES.name, int(np.maximum(lines, 1).sum()))
    counts = shape.counts
    fold.counts = tuple((name, count) for name, count
                        in counts[:3] + (vmem_lines,) + counts[3:] if count)
    fold.barriers = shape.barriers
    fold.cats = shape.cats
    fold.reuse = shape.reuse
    if len(shape.simd):
        active_sum = int(np.asarray(stream.active)[shape.simd].sum())
        fold.simd = (active_sum, 64 * len(shape.simd))

    # Sampled value-uniqueness probes: the numerators are plain sums
    # over the probe streams; the denominators are active x slot-count
    # per sampled record (zero-lane records stored no counts and add 0).
    probe_active = np.asarray(stream.probe_active)
    live = probe_active > 0
    if (len(probe_active) != len(shape.probe_n_read)
            or len(stream.probe_read) != shape.probe_n_read[live].sum()
            or len(stream.probe_write) != shape.probe_n_write[live].sum()):
        raise TraceError(
            f"wavefront {wf_id}: the probe counts do not match the sampled "
            f"records: the trace was edited or captured by another model"
        )
    read_den = int((probe_active * shape.probe_n_read).sum())
    if read_den:
        fold.read_probe = (sum(stream.probe_read), read_den)
    write_den = int((probe_active * shape.probe_n_write).sum())
    if write_den:
        fold.write_probe = (sum(stream.probe_write), write_den)
    return fold


def _records(shape: StreamShape, stream: WfStream) -> List[Record]:
    """One wavefront's outcome tuples: ``recs[j]`` is the complete
    outcome of instruction record ``j``, the tuple
    :meth:`ReplayCursor.advance` returns.

    They are its shape's tuples with the records that differ rebuilt:
    those where its active-lane count is not the shape's, and every
    memory access (its own line list).  A wavefront with neither shares
    the shape's list outright; cursors only read it.
    """
    recs = shape.records
    if recs is None:
        recs = shape.decode(stream)
    differs = np.flatnonzero(np.asarray(stream.active) != shape.active)
    if not len(differs) and not shape.mem_at:
        return recs
    recs = recs.copy()
    active = stream.active
    for rec in differs.tolist():
        old = recs[rec]
        recs[rec] = (old[0], active[rec]) + old[2:]
    start = 0
    lines_flat = stream.mem_lines.tolist()
    for rec, count in zip(shape.mem_at, stream.mem_counts):
        old = recs[rec]
        recs[rec] = old[:3] + (lines_flat[start:start + count],) + old[4:]
        start += count
    return recs


class WfDecode:
    """What one wavefront stream determines, memoized on its trace.

    ``fold`` is computed when the entry is created; ``records`` (see
    :func:`_records`) the first time a batch-decoded cursor asks.
    ``shape`` is shared with every wavefront that recorded the same
    instruction sequence, and the entry with every cell replaying the
    owning trace.
    """

    __slots__ = ("fold", "shape", "records")

    def __init__(self, fold: FoldArtifact, shape: StreamShape) -> None:
        self.fold = fold
        self.shape = shape
        self.records: "Optional[List[Record]]" = None


def wf_decode(trace: ExecTrace, wf_id: int, kernel: object,
              records: bool = True) -> WfDecode:
    """Wavefront ``wf_id``'s fold and (unless ``records`` is false: the
    raw-array cursor reads the stream itself) decoded records, served
    from the trace's memos when any earlier cell, dispatch or wavefront
    paid."""
    cache = trace._decode_cache
    dec = cache.get(wf_id)
    if dec is None:
        stream = trace.stream(wf_id)
        tables = kernel_tables(kernel)
        # The exact bytes, not a digest: equal keys are equal streams.
        key = (tables, stream.code.tobytes(), stream.flags.tobytes(),
               stream.targets.tobytes())
        shape = trace._shapes.get(key)
        if shape is None:
            shape = trace._shapes[key] = StreamShape(stream, tables)
        dec = cache[wf_id] = WfDecode(_fold(shape, stream, wf_id), shape)
    if records and dec.records is None:
        dec.records = _records(dec.shape, trace.streams[wf_id])
    return dec


# ---------------------------------------------------------------------------
# The batch-decoded cursor
# ---------------------------------------------------------------------------


class VectorReplayCursor(ReplayCursor):
    """Batch-decoded stand-in for :class:`ReplayCursor`.

    A thin pair of running indices over a shared (cached)
    :class:`WfDecode`; :meth:`advance` checks the PC against the
    recorded stream (the desync guard) and returns the precomputed
    outcome tuple.

    Subclasses :class:`ReplayCursor` for its slots (``kernel``, ``pc``,
    ``done``, ``is_gcn3``) and so that a wavefront's cursor is one type;
    none of the raw stream slots are initialized or used.
    """

    __slots__ = ("_j", "_jp", "_recs", "_jump_at", "_jump_target")

    def __init__(self, dec: WfDecode, kernel: object, is_gcn3: bool) -> None:
        self.kernel = kernel
        self.pc = 0
        self.done = False
        self.is_gcn3 = is_gcn3
        self._j = 0
        self._jp = 0
        self._recs = dec.records
        self._jump_at = dec.shape.jump_at
        self._jump_target = dec.shape.jump_target
        self.jump_armed = self._jump_at[0] == 0

    def take_jump(self) -> Optional[int]:
        if not self.jump_armed:
            return None
        jp = self._jp + 1
        self._jp = jp
        self.jump_armed = self._jump_at[jp] == self._j
        self.pc = new_pc = self._jump_target[jp - 1]
        return new_pc

    def advance(self, pc: int) -> Record:
        j = self._j
        try:
            rec = self._recs[j]
        except IndexError:
            raise TraceError(
                f"replay ran past the end of a wavefront stream at pc {pc}"
            ) from None
        if rec[0] != pc:
            raise TraceError(
                f"replay desynchronized: trace recorded pc {rec[0]}, "
                f"timing model issued pc {pc}"
            )
        j += 1
        self._j = j
        if j == self._jump_at[self._jp]:
            self.jump_armed = True
        self.pc = rec[5]
        if rec[7]:
            self.done = True
        return rec
