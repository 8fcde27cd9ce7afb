"""Vectorized replay engine: whole-wavefront batch decode of ExecTraces.

The scalar :class:`~repro.timing.replay.ReplayCursor` walks a recorded
wavefront stream one record at a time, re-deriving flags, branch targets,
memory-line slices, and probe outcomes inside the hottest loop of the
simulator.  This module trades that per-instruction work for one batched
pass per wavefront:

* the ``code``/``flags``/``targets``/``mem_*`` streams are decoded in
  whole-wavefront chunks through the :mod:`repro.common.xp` array seam
  into flat per-record outcome tuples, so
  :meth:`VectorReplayCursor.advance` is one list index and an unpack;
* every order-independent statistic the scalar path accumulates per
  issue — instruction-category counts, SIMD lane utilization, VRF
  reuse-distance samples, and the sampled value-uniqueness probes — is
  computed as array reductions over the whole stream and kept as a
  :class:`FoldArtifact` applied to the dispatch
  :class:`~repro.common.stats.StatSet` at placement.

Both products depend only on the stream contents, never on the swept
configuration, so they are memoized on the :class:`ExecTrace` itself
(``_decode_cache``): a 36-point sweep replaying one stored trace pays
for one decode, and every subsequent cell's placement cost is a dict
lookup plus a handful of integer adds.  (A run replaying the trace it
just recorded decodes each stream once and keeps no memo.)

What stays in the event loop is exactly the state that depends on *when*
the timing model issues: VRF bank-conflict windows (``note_access``),
cache and DRAM port reservations, ``s_waitcnt`` scoreboards, and every
scheduling decision.  Those paths are untouched, so the vector engine
issues the same instructions on the same cycles as the scalar engine and
the folded statistics are bit-identical — commutative integer sums only
ever change accumulation order, never totals.  The differential harness
(``tests/timing/test_vector_engine.py``, ``tests/integration/
test_engine_fuzz.py``) proves that equivalence cell by cell.

Engine selection (:func:`resolve_engine`): ``scalar`` always takes the
reference path; ``vector`` batches every untraced run — a stored trace
or the one the functional pass just recorded — while event-traced runs
keep the scalar reference so per-issue emission stays exhaustive;
``auto`` means ``vector``.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..common.errors import ConfigError
from ..common.exec_types import ExecResult, MemKind
from ..common.stats import StatSet
from ..common.xp import get_array_module, tolist
from .predecode import UNIT_SIMD, predecode_kernel
from .replay import (
    _F_BARRIER,
    _F_ENDS,
    _F_MEM_SHIFT,
    _F_TAKEN,
    _F_TARGET,
    _MEM_KINDS,
    ExecTrace,
    ReplayCursor,
    TraceError,
    WfStream,
)

ENGINES = ("auto", "scalar", "vector")


def resolve_engine(requested: str, *, replay: bool, traced: bool) -> str:
    """The engine a run actually uses, given the requested knob.

    ``REPRO_ENGINE`` overrides a config-level ``auto`` (so a CI leg can
    force the vector path without touching every config literal), but an
    explicit ``scalar``/``vector`` in the config always wins.  Only
    untraced runs vectorize: event-traced runs need the scalar engine's
    exhaustive per-issue bookkeeping to emit from.  ``replay`` no longer
    matters — every run replays a trace, stored or just recorded.
    """
    if requested not in ENGINES:
        raise ConfigError(
            f"unknown engine {requested!r}: pick auto, scalar, or vector"
        )
    if requested == "auto":
        env = os.environ.get("REPRO_ENGINE", "").strip()
        if env:
            if env not in ("scalar", "vector"):
                raise ConfigError(
                    f"unknown REPRO_ENGINE {env!r}: pick scalar or vector"
                )
            requested = env
    if traced or requested == "scalar":
        return "scalar"
    return "vector"


# ---------------------------------------------------------------------------
# Per-kernel static tables
# ---------------------------------------------------------------------------


class KernelTables:
    """Static per-PC facts of one kernel, laid out for array gathers.

    Everything here is a pure function of the predecoded
    :class:`~repro.timing.predecode.IssueDesc` table; built once per
    (kernel, backend) and cached on the kernel object like the issue
    descriptors themselves.
    """

    __slots__ = ("categories", "cat_code", "is_simd", "has_slots",
                 "n_read", "n_write", "n_rw", "rw_starts", "rw_flat")

    def __init__(self, kernel: object, xp) -> None:
        descs = predecode_kernel(kernel)
        self.categories = sorted({d.category for d in descs},
                                 key=lambda c: c.value)
        index = {cat: i for i, cat in enumerate(self.categories)}
        cat_code: List[int] = []
        is_simd: List[int] = []
        has_slots: List[int] = []
        n_read: List[int] = []
        n_write: List[int] = []
        n_rw: List[int] = []
        rw_starts: List[int] = []
        rw_flat: List[int] = []
        for desc in descs:
            cat_code.append(index[desc.category])
            is_simd.append(1 if desc.unit == UNIT_SIMD else 0)
            has_slots.append(1 if (desc.read_slots or desc.write_slots) else 0)
            n_read.append(len(desc.read_slots))
            n_write.append(len(desc.write_slots))
            n_rw.append(len(desc.rw_slots))
            rw_starts.append(len(rw_flat))
            rw_flat.extend(desc.rw_slots)
        self.cat_code = xp.asarray(cat_code)
        self.is_simd = xp.asarray(is_simd)
        self.has_slots = xp.asarray(has_slots)
        self.n_read = xp.asarray(n_read)
        self.n_write = xp.asarray(n_write)
        self.n_rw = xp.asarray(n_rw)
        self.rw_starts = xp.asarray(rw_starts)
        self.rw_flat = xp.asarray(rw_flat)


def kernel_tables(kernel: object, xp) -> KernelTables:
    """The kernel's vector tables, built once per backend and cached."""
    backend = getattr(xp, "name", "numpy")
    cache = getattr(kernel, "_vector_tables", None)
    if cache is None:
        cache = {}
        kernel._vector_tables = cache  # type: ignore[attr-defined]
    tables = cache.get(backend)
    if tables is None:
        tables = KernelTables(kernel, xp)
        cache[backend] = tables
    return tables


# ---------------------------------------------------------------------------
# Batched statistics
# ---------------------------------------------------------------------------


class FoldArtifact:
    """One wavefront's order-independent statistics, pre-reduced.

    Every quantity here is a commutative integer sum the scalar engine
    accumulates per issue; batching only reorders additions, so applying
    the artifact leaves the :class:`StatSet` payload bit-identical.
    Zero-count category/bucket entries are never stored — the scalar
    path never creates them, and payload encoding preserves key sets.
    """

    __slots__ = ("n", "cats", "simd", "reuse", "read_probe", "write_probe")

    def __init__(self) -> None:
        self.n = 0
        self.cats: "Tuple[Tuple[object, int], ...]" = ()
        self.simd: "Optional[Tuple[int, int]]" = None
        self.reuse: "Optional[Tuple[Tuple[Tuple[int, int], ...], int, int]]" = None
        self.read_probe: "Optional[Tuple[int, int]]" = None
        self.write_probe: "Optional[Tuple[int, int]]" = None

    def apply(self, stats: StatSet) -> None:
        """Fold this wavefront's statistics into ``stats``."""
        if not self.n:
            return
        by_category = stats.instructions_by_category
        for cat, count in self.cats:
            by_category[cat] += count
        stats.counters["dynamic_instructions"] += self.n
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


# ---------------------------------------------------------------------------
# Whole-stream decode
# ---------------------------------------------------------------------------


class WfDecode:
    """One wavefront stream, batch-decoded.

    ``recs[j]`` is the complete outcome of instruction record ``j``:
    ``(pc, active_lanes, branch_taken, is_barrier, mem_kind, mem_lines,
    result_next_pc, cursor_next_pc, ends_wavefront)``.  ``jump_at[k]``
    is the number of instruction records issued before reconvergence
    jump ``k`` fires (HSAIL only).  ``fold`` carries the pre-reduced
    statistics.  Instances are immutable after construction and shared
    by every cell replaying the owning trace.
    """

    __slots__ = ("recs", "jump_at", "jump_target", "fold")

    def __init__(self, recs: List[tuple], jump_at: List[int],
                 jump_target: List[int], fold: FoldArtifact) -> None:
        self.recs = recs
        self.jump_at = jump_at
        self.jump_target = jump_target
        self.fold = fold


def decode_stream(stream: WfStream, tables: KernelTables, xp) -> WfDecode:
    """Batch-decode one wavefront stream through the array seam."""
    code = xp.asarray(stream.code)
    instr_mask = xp.greater_equal(code, 0)
    pcs = tolist(xp.compress(instr_mask, code))
    n = len(pcs)

    # Reconvergence jumps: records with code < 0, fired *before* the
    # next instruction record.
    instr_before = xp.cumsum(instr_mask)
    jump_pos = xp.flatnonzero(xp.equal(instr_mask, 0))
    jump_at = tolist(xp.take(instr_before, jump_pos))
    jump_target = tolist(
        xp.subtract(xp.multiply(xp.take(code, jump_pos), -1), 1))

    flags = xp.asarray(stream.flags)
    act = tolist(xp.asarray(stream.active))
    taken = tolist(xp.greater(xp.bitwise_and(flags, _F_TAKEN), 0))
    barrier = tolist(xp.greater(xp.bitwise_and(flags, _F_BARRIER), 0))
    ends = tolist(xp.greater(xp.bitwise_and(flags, _F_ENDS), 0))

    # Branch targets: records with the TARGET flag consume one entry of
    # the ``targets`` side stream, in order.
    target_pos = tolist(xp.flatnonzero(xp.bitwise_and(flags, _F_TARGET)))
    res_next_pc: List[Optional[int]] = [None] * n
    next_pc = [pc + 1 for pc in pcs]
    for rec, target in zip(target_pos, stream.targets):
        res_next_pc[rec] = target
        next_pc[rec] = target

    # Memory accesses: MemKind per record, plus the flat line slices.
    mem_idx = tolist(xp.right_shift(flags, _F_MEM_SHIFT))
    mem_kind: List[str] = [MemKind.NONE] * n
    mem_lines: List[object] = [()] * n
    mem_pos = [i for i, m in enumerate(mem_idx) if m]
    if mem_pos:
        lines_flat = stream.mem_lines.tolist()
        start = 0
        for rec, count in zip(mem_pos, stream.mem_counts):
            mem_kind[rec] = _MEM_KINDS[mem_idx[rec]]
            mem_lines[rec] = lines_flat[start:start + count]
            start += count

    recs = list(zip(pcs, act, taken, barrier, mem_kind, mem_lines,
                    res_next_pc, next_pc, ends))
    fold = _fold_stream(stream, tables, xp, pcs, act, n)
    return WfDecode(recs, jump_at, jump_target, fold)


def _fold_stream(stream: WfStream, tables: KernelTables, xp,
                 pcs_list: List[int], act: List[int], n: int) -> FoldArtifact:
    """Reduce one stream's order-independent statistics (see
    :class:`FoldArtifact` for the bit-identity argument)."""
    fold = FoldArtifact()
    if n == 0:
        return fold
    fold.n = n
    pcs = xp.asarray(pcs_list)

    # Instruction mix.
    cat_counts = tolist(xp.bincount(xp.take(tables.cat_code, pcs),
                                    minlength=len(tables.categories)))
    fold.cats = tuple(
        (cat, count) for cat, count in zip(tables.categories, cat_counts)
        if count
    )

    # SIMD lane utilization: one (active, 64) sample per VALU issue.
    simd_mask = xp.take(tables.is_simd, pcs)
    simd_issues = int(xp.count_nonzero(simd_mask))
    if simd_issues:
        active_sum = int(xp.sum(xp.multiply(xp.asarray(act), simd_mask)))
        fold.simd = (active_sum, 64 * simd_issues)

    _fold_reuse(fold, tables, xp, pcs, n)
    _fold_probes(fold, stream, tables, xp, pcs, n)
    return fold


def _fold_reuse(fold: FoldArtifact, tables: KernelTables, xp, pcs,
                n: int) -> None:
    """Reuse distance, batched.

    The scalar engine tracks slot -> last ``instr_counter`` per
    wavefront and emits ``counter_now - counter_last`` on every repeat
    access (operands in ``rw_slots`` order, duplicates kept, so a
    within-instruction repeat emits distance 0).  Flattening to
    (record index, slot) pairs in occurrence order and stable-sorting
    by slot turns each slot's access history into one run; adjacent
    differences of the record indices are exactly those distances —
    record j carries ``instr_counter`` j+1, and (j2+1)-(j1+1) = j2-j1.
    """
    lens = xp.take(tables.n_rw, pcs)
    total = int(xp.sum(lens))
    if total == 0:
        return
    rec_ends = xp.cumsum(lens)
    rec_starts = xp.subtract(rec_ends, lens)
    j_flat = xp.repeat(xp.arange(n), lens)
    within = xp.subtract(xp.arange(total), xp.take(rec_starts, j_flat))
    flat_idx = xp.add(xp.take(tables.rw_starts, xp.take(pcs, j_flat)),
                      within)
    slot_flat = xp.take(tables.rw_flat, flat_idx)

    order = xp.argsort(slot_flat, kind="stable")
    slot_sorted = xp.take(slot_flat, order)
    j_sorted = xp.take(j_flat, order)
    same = xp.equal(slot_sorted[1:], slot_sorted[:-1])
    distances = xp.compress(same, xp.subtract(j_sorted[1:], j_sorted[:-1]))
    counts = tolist(xp.bincount(distances)) if len(distances) else []

    items: List[Tuple[int, int]] = []
    added = 0
    total_distance = 0
    for value, count in enumerate(counts):
        if count:
            items.append((value, count))
            added += count
            total_distance += value * count
    if added:
        fold.reuse = (tuple(items), added, total_distance)


def _fold_probes(fold: FoldArtifact, stream: WfStream, tables: KernelTables,
                 xp, pcs, n: int) -> None:
    """Sampled value-uniqueness probes, batched.

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
    rec = xp.arange(n)
    sampled = xp.equal(xp.bitwise_and(xp.add(rec, 1), 3), 0)
    probed = xp.logical_and(sampled, xp.greater(
        xp.take(tables.has_slots, pcs), 0))
    sampled_pcs = xp.compress(probed, pcs)
    probe_active = xp.asarray(stream.probe_active)
    if len(sampled_pcs) != len(tolist(probe_active)):
        raise TraceError(
            "probe stream length does not match the sampled records: "
            "the trace was captured by an incompatible model"
        )
    read_den = int(xp.sum(xp.multiply(
        probe_active, xp.take(tables.n_read, sampled_pcs))))
    if read_den:
        fold.read_probe = (int(sum(stream.probe_read)), read_den)
    write_den = int(xp.sum(xp.multiply(
        probe_active, xp.take(tables.n_write, sampled_pcs))))
    if write_den:
        fold.write_probe = (int(sum(stream.probe_write)), write_den)


# ---------------------------------------------------------------------------
# The vectorized cursor
# ---------------------------------------------------------------------------


class VectorReplayCursor(ReplayCursor):
    """Batch-decoded stand-in for :class:`ReplayCursor`.

    A thin pair of running indices over a shared (cached)
    :class:`WfDecode`; :meth:`advance` checks the PC against the
    recorded stream (the desync guard) and unpacks the precomputed
    outcome tuple.  The per-issue statistics the scalar cursor
    accumulates were pre-reduced into the decode's
    :class:`FoldArtifact`, applied by :func:`vector_cursor`.

    Subclasses :class:`ReplayCursor` for its slots (``kernel``, ``pc``,
    ``done``, ``is_gcn3``, ``result``) and so that a wavefront's state
    is one type; none of the scalar stream slots are initialized or
    used.
    """

    vectorized = True

    __slots__ = ("_j", "_jp", "_recs", "_jump_at", "_jump_target")

    def __init__(self, dec: WfDecode, kernel: object, is_gcn3: bool) -> None:
        self.kernel = kernel
        self.pc = 0
        self.done = False
        self.is_gcn3 = is_gcn3
        self.result = ExecResult()
        self._j = 0
        self._jp = 0
        self._recs = dec.recs
        self._jump_at = dec.jump_at
        self._jump_target = dec.jump_target

    # -- the replay-path hot calls ------------------------------------

    def take_jump(self) -> Optional[int]:
        jp = self._jp
        if jp < len(self._jump_at) and self._jump_at[jp] == self._j:
            self._jp = jp + 1
            new_pc = self._jump_target[jp]
            self.pc = new_pc
            return new_pc
        return None

    def advance(self, pc: int) -> ExecResult:
        """Consume the next record; all stats were folded at placement."""
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
        result = self.result
        (_, result.active_lanes, result.branch_taken, result.is_barrier,
         result.mem_kind, result.mem_lines, result.next_pc, self.pc,
         ends) = rec
        if ends:
            result.ends_wavefront = True
            self.done = True
        else:
            result.ends_wavefront = False
        return result


# ---------------------------------------------------------------------------
# Entry point used by the dispatcher
# ---------------------------------------------------------------------------


def vector_cursor(trace: ExecTrace, wf_id: int, kernel: object,
                  is_gcn3: bool, stats: StatSet, xp=None) -> VectorReplayCursor:
    """A batch-decoded cursor for one wavefront, with its
    order-independent statistics folded into the dispatch StatSet.

    The decode is served from the trace's memo when any earlier cell
    (or dispatch) already paid for it; a miss decodes through the array
    seam and populates the memo for everyone after.
    """
    cache = trace._decode_cache
    dec = cache.get(wf_id)
    if dec is None:
        try:
            stream = trace.streams[wf_id]
        except IndexError:
            raise TraceError(
                f"trace has {len(trace.streams)} wavefronts, replay asked "
                f"for wf {wf_id}: the capture ran a different dispatch "
                f"sequence"
            ) from None
        if xp is None:
            xp = get_array_module()
        dec = decode_stream(stream, kernel_tables(kernel, xp), xp)
        cache[wf_id] = dec
    dec.fold.apply(stats)
    return VectorReplayCursor(dec, kernel, is_gcn3)
