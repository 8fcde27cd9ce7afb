"""Lane-level state and helpers shared by both functional models: the
execution-mask conversions, the typed register file with its operand
accessors, the one-pass per-wavefront memory access, and the step
protocol both ISAs' instructions compile to (:class:`Executor`)."""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ExecutionError
from .exec_types import ExecResult, MemKind
from .xp import ensure_quiet_numeric, pack_mask

WF_SIZE = 64
FULL_MASK = (1 << WF_SIZE) - 1

_LANES_U64 = np.arange(WF_SIZE, dtype=np.uint64)
_LANES_I64 = np.arange(WF_SIZE, dtype=np.int64)
#: Pair views and the word-aligned memory paths reinterpret bytes as
#: native words, which matches the little-endian composition (low
#: register / low address first) only on little-endian hosts; big-endian
#: hosts keep the portable split and byte-plane paths.
_LITTLE_ENDIAN = sys.byteorder == "little"


def mask_to_bool(bits: int) -> np.ndarray:
    """64-bit execution mask -> bool[64]."""
    return (((np.uint64(bits & FULL_MASK)) >> _LANES_U64) & np.uint64(1)).astype(bool)


def bool_to_mask(mask: np.ndarray) -> int:
    """bool[64] -> 64-bit execution mask."""
    return pack_mask(mask)


class ExecLanes:
    """The lane-mask views of a wavefront state: mixed into both ISAs'
    state classes, which own ``exec_mask`` (an int) and an
    ``_exec_cache`` slot."""

    def exec_bool(self) -> np.ndarray:
        """The execution mask as bool lanes, cached per mask value."""
        cached = self._exec_cache
        if cached is not None and cached[0] == self.exec_mask:
            return cached[1]
        arr = mask_to_bool(self.exec_mask)
        self._exec_cache = (self.exec_mask, arr)
        return arr

    def lane_where(self) -> "bool | np.ndarray":
        """The execution mask as a ufunc ``where=`` operand: True (no
        masking at all) while every lane is on."""
        return True if self.exec_mask == FULL_MASK else self.exec_bool()


# ---------------------------------------------------------------------------
# Typed register file
# ---------------------------------------------------------------------------

#: Element types a register (pair) can be viewed as; the constants index
#: the ``views`` tuple of :func:`register_file`.  Kinds from ``U64`` up
#: name an even-aligned register *pair*.
VIEW_DTYPES = (np.uint32, np.int32, np.float32, np.uint64, np.int64, np.float64)
U32, I32, F32, U64, I64, F64 = range(6)

Accessor = Callable[[object], np.ndarray]


def register_file(nregs: int) -> Tuple[np.ndarray, ...]:
    """One wavefront's vector registers as zero-copy typed views.

    The backing block is lane-major -- ``uint32[lane, reg]`` -- so the two
    registers of an even-aligned pair sit side by side in each lane and
    the same bytes read as one ``uint64``/``int64``/``float64`` element.
    Every view is handed out transposed, ``[reg (pair), lane]``: row
    ``i`` of a 32-bit view is register ``i``, row ``i >> 1`` of a 64-bit
    view is the pair starting at even register ``i``.
    """
    base = np.zeros((WF_SIZE, nregs + (nregs & 1)), dtype=np.uint32)
    return tuple(base.view(dt).T for dt in VIEW_DTYPES)


def _viewable(kind: int, index: int) -> bool:
    return kind < U64 or (_LITTLE_ENDIAN and not index & 1)


@lru_cache(maxsize=None)  # at most kinds x register indices entries
def reg_view(kind: int, index: int) -> Accessor:
    """``f(wf)`` -> the lanes of register (pair) ``index`` typed ``kind``.

    A view of the register file wherever one element covers the operand;
    an odd-aligned pair straddles two ``uint64`` elements, so it alone is
    recombined from its halves into a copy.
    """
    if _viewable(kind, index):
        row = index >> 1 if kind >= U64 else index

        def view(wf):
            return wf.views[kind][row]
        return view
    dtype = VIEW_DTYPES[kind]

    def combined(wf):
        u32 = wf.views[U32]
        return (u32[index].astype(np.uint64)
                | (u32[index + 1].astype(np.uint64) << np.uint64(32))).view(dtype)
    return combined


def reg_dest(kind: int, index: int) -> Tuple[Accessor, Optional[Callable]]:
    """``(out, commit)`` for writing register (pair) ``index`` in place.

    ``out(wf)`` is the view a leaf hands to ``ufunc(..., out=, where=)``
    and ``commit`` is None -- except for an odd-aligned pair, where
    ``out`` is a staging vector and ``commit(wf)`` splits its active
    lanes into the two halves.
    """
    if _viewable(kind, index):
        return reg_view(kind, index), None
    stage = np.zeros(WF_SIZE, dtype=VIEW_DTYPES[kind])

    def commit(wf):
        write_lanes(wf, kind, index, stage, wf.lane_where())
    return (lambda wf: stage), commit


def write_lanes(wf, kind: int, index: int, values: np.ndarray, where) -> None:
    """``reg[index][where] = values`` for values already typed ``kind``."""
    if _viewable(kind, index):
        np.copyto(wf.views[kind][index >> 1 if kind >= U64 else index],
                  values, where=where)
        return
    raw = values.view(np.uint64)
    u32 = wf.views[U32]
    np.copyto(u32[index], raw & np.uint64(0xFFFFFFFF), where=where,
              casting="unsafe")
    np.copyto(u32[index + 1], raw >> np.uint64(32), where=where,
              casting="unsafe")


@lru_cache(maxsize=1024)
def splat(pattern: int, kind: int) -> Accessor:
    """``f(wf)`` -> a static bit pattern broadcast to every lane: one
    read-only vector shared by every operand with that pattern."""
    raw = np.uint64 if kind >= U64 else np.uint32
    vec = np.full(WF_SIZE, pattern & (FULL_MASK if kind >= U64 else 0xFFFFFFFF),
                  dtype=raw).view(VIEW_DTYPES[kind])
    vec.flags.writeable = False
    return lambda wf: vec


def lane_op(fn: Callable, dest: Tuple[Accessor, Optional[Callable]],
            *srcs: Accessor) -> Callable:
    """The step computing ``dest[EXEC] = fn(*srcs)`` in place.

    ``fn(*arrays, out=, where=)`` is a ufunc or a composite with the
    same signature.  The aliasing rule every ``fn`` keeps: all sources
    are read (into temporaries where it takes more than one step) before
    the single, final, masked write into ``out`` -- so a destination
    that is also a source, or half of one, behaves as if the result had
    been computed into a fresh vector first.  A register view may be an
    input of that final write only in ``out``'s own type (then it is
    ``out`` itself or disjoint from it); for a view that overlaps ``out``
    any other way numpy stages the output in an uninitialized copy and
    writes *all* of it back, masked-off lanes included -- such results
    go through a fresh vector (:func:`compare`, :func:`convert`).
    Inactive lanes are never written, so their bits (NaN payloads,
    ``-0.0``) survive.
    """
    out, commit = dest
    if len(srcs) == 1:
        a, = srcs

        def run(wf, exe):
            fn(a(wf), out=out(wf), where=wf.lane_where())
    elif len(srcs) == 2:
        a, b = srcs

        def run(wf, exe):
            fn(a(wf), b(wf), out=out(wf), where=wf.lane_where())
    else:
        def run(wf, exe):
            fn(*[s(wf) for s in srcs], out=out(wf), where=wf.lane_where())
    if commit is None:
        return run

    def run_staged(wf, exe):
        run(wf, exe)
        commit(wf)
    return run_staged


def copy_lanes(a, out, where=True) -> None:
    np.copyto(out, a, where=where)


def fma(a, b, c, out, where=True) -> None:
    np.add(a * b, c, out=out, where=where)


def mul_hi(a, b, out, where=True) -> None:
    """High 32 bits of the 64-bit product (signed for int32 lanes)."""
    wide = np.int64 if a.dtype == np.int32 else np.uint64
    np.copyto(out, (a.astype(wide) * b.astype(wide)) >> 32, where=where,
              casting="unsafe")


COMPARISONS = {"eq": np.equal, "ne": np.not_equal, "lt": np.less,
               "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}


def compare(fn: Callable) -> Callable:
    """Comparison ``fn`` writing 0/1 into 32-bit lanes of any type's
    registers -- possibly its own operands, hence the fresh vector."""
    def run(a, b, out, where=True):
        np.copyto(out, fn(a, b), where=where)
    return run


def convert(a, out, where=True) -> None:
    """Value conversion to ``out``'s type.  The source is made contiguous
    first: numpy's out-of-range float->integer results differ between
    its strided and contiguous loops, and the reference semantics
    converted contiguous rows."""
    np.copyto(out, np.ascontiguousarray(a).astype(out.dtype), where=where)


def select(pred, t, f, out, where=True) -> None:
    np.copyto(out, np.where(pred, t, f), where=where)


def shift(fn: Callable, bits: int) -> Callable:
    """``fn(a, n mod bits)`` for ``bits``-wide lanes ``a``; the amount
    ``n`` is always a 32-bit lane vector."""
    low = np.uint32(bits - 1)

    def run(a, n, out, where=True):
        fn(a, (n & low).astype(a.dtype, copy=False), out=out, where=where)
    return run


# ---------------------------------------------------------------------------
# Per-wavefront memory access
# ---------------------------------------------------------------------------


def lane_access(addrs: np.ndarray, where, size: int
                ) -> Tuple[np.ndarray, int, List[int]]:
    """One pass over a wavefront memory operand.

    Returns the active lanes' byte addresses (``int64``, lane order),
    their bitwise OR (whose low bits give the common alignment) and the
    sorted unique 64-byte lines they cover -- the ``mem_lines`` of the
    access.  ``where`` is True (all lanes) or bool[64].  Accesses wider
    than a dword count the line of their last byte too; it can only
    differ from the first byte's when a lane is not ``size``-aligned.
    """
    idx = addrs.view(np.int64)
    if where is not True:
        idx = idx[where]
        if idx.size == 0:
            return idx, 0, []
    align = int(np.bitwise_or.reduce(idx))
    lines = set((idx >> 6).tolist())
    if size > 4 and align & (size - 1):
        lines.update(((idx + (size - 1)) >> 6).tolist())
    return idx, align, sorted(lines)


def touched_lines(addrs: np.ndarray, mask: np.ndarray, size: int) -> List[int]:
    """Unique 64-byte line addresses covered by the active lanes."""
    return lane_access(addrs, mask, size)[2]


def in_bounds(idx: np.ndarray, lines: List[int], size: int,
              lo: int, hi: int) -> bool:
    """True when every ``size``-byte access of a non-empty
    :func:`lane_access` lies inside ``[lo, hi)``.  Decided from the line
    numbers when they clear both ends by a line; only accesses near an
    end pay the exact min/max reductions."""
    if lines[0] << 6 >= lo and (lines[-1] + 2) << 6 <= hi:
        return True
    return int(idx.min()) >= lo and int(idx.max()) + size <= hi


class LaneBuffer:
    """A little-endian byte buffer read and written a wavefront at a time.

    Subclasses own the bytes and implement :meth:`admit`, the gate on
    every non-empty access: it raises when a lane is out of bounds and
    records whatever the owner tracks (device memory's footprint).
    """

    def __init__(self, buf: np.ndarray) -> None:
        self._bind(buf)

    def _bind(self, buf: np.ndarray) -> None:
        self._buf = buf
        self._words = {
            size: buf[: buf.size & -size].view(dt)
            for size, dt in ((4, np.uint32), (8, np.uint64))
        } if _LITTLE_ENDIAN else {}

    def admit(self, idx: np.ndarray, align: int, lines: List[int],
              size: int) -> None:
        raise NotImplementedError

    def gather(self, addrs: np.ndarray, where, size: int = 4
               ) -> Tuple[np.ndarray, List[int]]:
        """Per-lane ``size``-byte (4 or 8) load.

        ``addrs`` holds 64 lane addresses (64-bit), ``where`` is True or
        bool[64].  Returns the active lanes' values in lane order and the
        sorted unique lines covered.  Lanes need not be aligned or
        contiguous.
        """
        idx, align, lines = lane_access(addrs, where, size)
        if lines:
            self.admit(idx, align, lines, size)
        if self._words and not align & (size - 1):
            return self._words[size][idx >> (size.bit_length() - 1)], lines
        dtype = np.uint32 if size == 4 else np.uint64
        out = np.zeros(idx.size, dtype=dtype)
        for k in range(size):
            out |= self._buf[idx + k].astype(dtype) << dtype(8 * k)
        return out, lines

    def scatter(self, addrs: np.ndarray, values: np.ndarray, where,
                size: int = 4) -> List[int]:
        """Per-lane ``size``-byte store of the active lanes of ``values``
        (uint32/uint64[64]); returns the sorted unique lines covered.

        On colliding bytes, byte plane ``k + 1`` lands after plane ``k``
        and within a plane later lanes win.  When every lane is
        ``size``-aligned collisions are whole elements, and one word
        scatter (later lanes win) has the same outcome.
        """
        idx, align, lines = lane_access(addrs, where, size)
        if not lines:
            return lines
        self.admit(idx, align, lines, size)
        if where is not True:
            values = values[where]
        if self._words and not align & (size - 1):
            self._words[size][idx >> (size.bit_length() - 1)] = values
        else:
            for k in range(size):
                self._buf[idx + k] = (
                    values >> values.dtype.type(8 * k)).astype(np.uint8)
        return lines


class LdsImage(LaneBuffer):
    """One workgroup's LDS bytes, bounds-checked against the allocation."""

    def admit(self, idx, align, lines, size) -> None:
        if not in_bounds(idx, lines, size, 0, self._buf.size):
            raise ExecutionError("LDS access out of bounds")


# -- memory instructions, shared by both ISAs --------------------------
#
# Steps over per-static-instruction operand accessors; ``lds`` picks the
# executor's LDS image over device memory.  A load reads its addresses
# before it writes its destination, so the destination may be its own
# address pair.


def frame_addresses(ctx, offset: int) -> np.ndarray:
    """Address (``int64``) of byte ``offset`` of each lane's work-item
    frame in the launch's private area."""
    return ((_LANES_I64 + ctx.workitem_base()) * ctx.private_stride
            + (ctx.private_base + offset))


def load_op(address: Accessor, dest, size: int, lds: bool = False) -> Callable:
    out, commit = dest
    kind = MemKind.LDS_ACCESS if lds else MemKind.GLOBAL_LOAD

    def run(wf, exe):
        where = wf.lane_where()
        values, lines = (exe.lds if lds else exe.memory).gather(
            address(wf), where, size)
        if where is True:
            out(wf)[:] = values
        else:
            out(wf)[where] = values
        if commit is not None:
            commit(wf)
        return ExecResult(mem_kind=kind, mem_lines=lines)
    return run


def store_op(address: Accessor, data: Accessor, size: int,
             lds: bool = False) -> Callable:
    kind = MemKind.LDS_ACCESS if lds else MemKind.GLOBAL_STORE

    def run(wf, exe):
        lines = (exe.lds if lds else exe.memory).scatter(
            address(wf), data(wf), wf.lane_where(), size)
        return ExecResult(mem_kind=kind, mem_lines=lines)
    return run


def atomic_add_op(address: Accessor, data: Accessor, dest) -> Callable:
    """32-bit atomic add returning the old value (``dest`` may be None)."""
    def run(wf, exe):
        mask = wf.exec_bool()
        addrs = address(wf)
        old = serialized_atomic_add(exe.memory, addrs, data(wf), mask)
        if dest is not None:
            np.copyto(dest[0](wf), old, where=mask)
            if dest[1] is not None:
                dest[1](wf)
        return ExecResult(mem_kind=MemKind.GLOBAL_STORE,
                          mem_lines=touched_lines(addrs, mask, 4))
    return run


def serialized_atomic_add(memory, addrs: np.ndarray, values: np.ndarray,
                          mask: np.ndarray) -> np.ndarray:
    """Batched 32-bit atomic add; lanes serialize in ascending order.

    Returns the per-lane *old* values (inactive lanes read 0).  The
    batched body computes, per address segment, an exclusive prefix sum
    of the colliding lanes' addends — modular addition is associative,
    so each lane's old value is exactly what the one-lane-at-a-time loop
    would have loaded, and the final stored value (later lanes win in
    :meth:`scatter_u32`) is the initial word plus the segment total.
    Unaligned lanes fall back to the serial loop: 4-byte accesses that
    straddle words can partially overlap, and only byte-accurate
    load/store sequencing reproduces that.
    """
    old = np.zeros(WF_SIZE, dtype=np.uint32)
    act = np.flatnonzero(mask)
    if act.size == 0:
        return old
    a = addrs[mask].astype(np.uint64)
    if np.any(a & np.uint64(3)):
        for lane in act:
            addr = int(addrs[lane])
            prev = memory.load_scalar(addr, 4)
            memory.store_scalar(addr, (prev + int(values[lane])) & 0xFFFFFFFF, 4)
            old[lane] = prev
        return old
    v = values[mask].astype(np.uint64)
    initial = memory.gather_u32(addrs, mask)[mask].astype(np.uint64)
    order = np.argsort(a, kind="stable")
    a_s = a[order]
    v_s = v[order]
    csum = np.cumsum(v_s)  # < 64 * 2^32, exact in uint64
    excl = csum - v_s
    seg_start = np.empty(a_s.size, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = a_s[1:] != a_s[:-1]
    seg_id = np.cumsum(seg_start) - 1
    within = excl - excl[seg_start][seg_id]
    old_sorted = (initial[order] + within) & np.uint64(0xFFFFFFFF)
    new_sorted = (old_sorted + v_s) & np.uint64(0xFFFFFFFF)
    old_act = np.empty(a.size, dtype=np.uint64)
    old_act[order] = old_sorted
    old[act] = old_act.astype(np.uint32)
    new_full = np.zeros(WF_SIZE, dtype=np.uint32)
    new_act = np.empty(a.size, dtype=np.uint64)
    new_act[order] = new_sorted
    new_full[act] = new_act.astype(np.uint32)
    memory.scatter_u32(addrs, new_full, mask)
    return old


# ---------------------------------------------------------------------------
# Steps and the executor
# ---------------------------------------------------------------------------
#
# Each ISA compiles every static instruction into one step,
# ``step(wf, exe)``: it applies the instruction to wavefront ``wf``
# (``exe`` holds the device memory and LDS a memory step touches) and
# returns None when the only outcome the timing model sees is the
# active-lane count, else an :class:`ExecResult`.  No step moves
# ``wf.pc``: the caller advances it to ``next_pc`` when control
# transferred, else by one, so a branch step reads its own pc there.

Step = Callable[[object, "Executor"], Optional[ExecResult]]


def nop(wf, exe) -> None:
    """The step of an instruction without functional effect."""


def barrier(wf, exe) -> ExecResult:
    return ExecResult(is_barrier=True)


def end(wf, exe) -> ExecResult:
    wf.done = True
    return ExecResult(ends_wavefront=True)


class Executor:
    """Executes one ISA's instructions for the wavefronts of one
    workgroup, a step at a time; ``compiled`` is the ISA's
    ``instr -> step`` compiler."""

    compiled: Callable[[object], Step]

    def __init__(self, memory, lds: Optional[np.ndarray] = None) -> None:
        self.memory = memory
        self.lds = LdsImage(
            lds if lds is not None else np.zeros(64 * 1024, dtype=np.uint8))
        # The ALU steps run one numpy expression per dynamic
        # instruction; a per-call errstate costs more than the math.
        ensure_quiet_numeric()

    @classmethod
    def steps(cls, kernel) -> Tuple[Step, ...]:
        """``kernel``'s per-pc step table, built once and cached on the
        kernel beside its issue descriptors."""
        table = getattr(kernel, "_steps", None)
        if table is None:
            table = kernel._steps = tuple(map(cls.compiled, kernel.instrs))
        return table

    def execute(self, wf) -> ExecResult:
        """Execute the instruction at ``wf.pc`` and advance it."""
        pc = wf.pc
        # popcount of the mask integer == mask.sum(), without numpy.
        active = (wf.exec_mask & FULL_MASK).bit_count()
        result = self.steps(wf.kernel)[pc](wf, self) or ExecResult()
        result.active_lanes = active
        wf.pc = pc + 1 if result.next_pc is None else result.next_pc
        return result
