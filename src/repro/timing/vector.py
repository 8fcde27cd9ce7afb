"""Trace folds and the batch-decoded replay cursor.

Everything the CU model reads from a recorded wavefront stream is a
function of the stream alone, never of the swept configuration, so it is
computed once per wavefront here and memoized on the :class:`ExecTrace`
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
    tables = getattr(kernel, "_vector_tables", None)
    if tables is None:
        tables = KernelTables(kernel)
        kernel._vector_tables = tables  # type: ignore[attr-defined]
    return tables


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


def _fold_stream(stream: WfStream, tables: KernelTables) -> FoldArtifact:
    """Reduce one stream's trace-determined statistics."""
    fold = FoldArtifact()
    code = np.asarray(stream.code)
    pcs = code[code >= 0]
    n = len(pcs)
    if n == 0:
        return fold
    flags = np.asarray(stream.flags)
    # Memory requests by kind; a vector access that recorded no line
    # still occupies one line slot.  IB flushes: every reconvergence
    # jump, plus every record holding TAKEN|TARGET (each consumed
    # exactly one entry of ``targets``).
    mem = flags >> _F_MEM_SHIFT
    by_kind = np.bincount(mem, minlength=len(_MEM_KINDS)).tolist()
    lines = np.asarray(stream.mem_counts)[_IS_VECTOR[mem[mem > 0]]]
    counts = ((DYNAMIC_INSTRUCTIONS, n),
              (IB_FLUSHES, len(code) - n + len(stream.targets)),
              (VMEM_REQUESTS, len(lines)),
              (VMEM_LINES, int(np.maximum(lines, 1).sum())),
              (SMEM_REQUESTS, by_kind[_MEM_INDEX[MemKind.SCALAR_LOAD]]),
              (LDS_ACCESSES, by_kind[_MEM_INDEX[MemKind.LDS_ACCESS]]))
    fold.counts = tuple((metric.name, count) for metric, count in counts
                        if count)
    fold.barriers = int(np.count_nonzero(flags & _F_BARRIER))

    # Instruction mix.
    cat_counts = np.bincount(tables.cat_code[pcs],
                             minlength=len(tables.categories)).tolist()
    fold.cats = tuple(
        (cat, count) for cat, count in zip(tables.categories, cat_counts)
        if count
    )

    # SIMD lane utilization: one (active, 64) sample per VALU issue.
    simd = tables.is_simd[pcs]
    simd_issues = int(np.count_nonzero(simd))
    if simd_issues:
        active_sum = int(np.asarray(stream.active)[simd].sum())
        fold.simd = (active_sum, 64 * simd_issues)

    _fold_reuse(fold, tables, pcs)
    _fold_probes(fold, stream, tables, pcs)
    return fold


def _fold_reuse(fold: FoldArtifact, tables: KernelTables, pcs) -> None:
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
        return
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
    if items:
        fold.reuse = (items, sum(count for _, count in items),
                      sum(value * count for value, count in items))


def _fold_probes(fold: FoldArtifact, stream: WfStream, tables: KernelTables,
                 pcs) -> None:
    """Sampled value-uniqueness probes.

    The functional pass stored one ``probe_active`` entry per sampled record
    that touches VRF slots (every 4th issue: record j samples iff
    (j+1) & 3 == 0), and one unique-count per read/write slot of the
    sampled records with active lanes.  The numerators are therefore
    plain sums over the probe streams; the denominators are
    active x slot-count per sampled record — records with zero active
    lanes recorded no probes and contribute 0 via the product.
    """
    if not len(stream.probe_active):
        return
    sampled = (np.arange(1, len(pcs) + 1) & 3) == 0
    sampled_pcs = pcs[sampled & tables.has_slots[pcs]]
    probe_active = np.asarray(stream.probe_active)
    if len(sampled_pcs) != len(probe_active):
        raise TraceError(
            "probe stream length does not match the sampled records: "
            "the trace was captured by an incompatible model"
        )
    read_den = int((probe_active * tables.n_read[sampled_pcs]).sum())
    if read_den:
        fold.read_probe = (sum(stream.probe_read), read_den)
    write_den = int((probe_active * tables.n_write[sampled_pcs]).sum())
    if write_den:
        fold.write_probe = (sum(stream.probe_write), write_den)


# ---------------------------------------------------------------------------
# Whole-stream decode
# ---------------------------------------------------------------------------


def _decode_records(stream: WfStream) -> Tuple[List[Record], List[int], List[int]]:
    """Batch-decode one stream into ``(recs, jump_at, jump_target)``.

    ``recs[j]`` is the complete outcome of instruction record ``j``, the
    tuple :meth:`ReplayCursor.advance` returns.  ``jump_at[k]`` is the
    number of instruction records issued before reconvergence jump ``k``
    fires (HSAIL only).
    """
    code = np.asarray(stream.code)
    instr_mask = code >= 0
    pcs = code[instr_mask].tolist()
    n = len(pcs)

    # Reconvergence jumps: records with code < 0, fired *before* the
    # next instruction record.
    jump_pos = np.flatnonzero(~instr_mask)
    jump_at = np.cumsum(instr_mask)[jump_pos].tolist()
    jump_target = (-code[jump_pos] - 1).tolist()

    flags = np.asarray(stream.flags)
    barrier = ((flags & _F_BARRIER) > 0).tolist()
    ends = ((flags & _F_ENDS) > 0).tolist()

    # Branch targets: records with the TARGET flag consume one entry of
    # the ``targets`` side stream, in order.
    target: List[Optional[int]] = [None] * n
    next_pc = [pc + 1 for pc in pcs]
    for rec, dest in zip(np.flatnonzero(flags & _F_TARGET).tolist(),
                         stream.targets):
        target[rec] = dest
        next_pc[rec] = dest

    # Memory accesses: the flat line list sliced per accessing record.
    mem = (flags >> _F_MEM_SHIFT).tolist()
    mem_lines: List[object] = [()] * n
    mem_pos = [i for i, m in enumerate(mem) if m]
    if mem_pos:
        lines_flat = stream.mem_lines.tolist()
        start = 0
        for rec, count in zip(mem_pos, stream.mem_counts):
            mem_lines[rec] = lines_flat[start:start + count]
            start += count

    recs = list(zip(pcs, stream.active.tolist(), mem, mem_lines, target,
                    next_pc, barrier, ends))
    return recs, jump_at, jump_target


class WfDecode:
    """What one wavefront stream determines, memoized on its trace.

    ``fold`` is computed when the entry is created; ``records`` (see
    :func:`_decode_records`) the first time a batch-decoded cursor asks.
    Shared by every cell replaying the owning trace.
    """

    __slots__ = ("fold", "records")

    def __init__(self, fold: FoldArtifact) -> None:
        self.fold = fold
        self.records: "Optional[Tuple[List[Record], List[int], List[int]]]" = None


def wf_decode(trace: ExecTrace, wf_id: int, kernel: object,
              records: bool = True) -> WfDecode:
    """Wavefront ``wf_id``'s fold and (unless ``records`` is false: the
    raw-array cursor reads the stream itself) decoded records, served
    from the trace's memo when any earlier cell or dispatch paid."""
    cache = trace._decode_cache
    dec = cache.get(wf_id)
    if dec is None:
        dec = cache[wf_id] = WfDecode(
            _fold_stream(trace.stream(wf_id), kernel_tables(kernel)))
    if records and dec.records is None:
        dec.records = _decode_records(trace.streams[wf_id])
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
        self._recs, self._jump_at, self._jump_target = dec.records

    def take_jump(self) -> Optional[int]:
        jp = self._jp
        if jp < len(self._jump_at) and self._jump_at[jp] == self._j:
            self._jp = jp + 1
            new_pc = self._jump_target[jp]
            self.pc = new_pc
            return new_pc
        return None

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
        self._j = j + 1
        self.pc = rec[5]
        if rec[7]:
            self.done = True
        return rec
