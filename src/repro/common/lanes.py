"""Lane-level state and helpers shared by both functional models: the
lane-mask codec, the typed register file of a set of wavefronts with its
operand accessors, the one-pass memory access over those wavefronts'
lanes, and the step protocol both ISAs' instructions compile to
(:class:`Wavefronts`, :class:`Group`, :class:`Executor`)."""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ExecutionError
from .exec_types import DispatchContext, ExecResult, MemKind
from .memo import kernel_memo
from .xp import ensure_quiet_numeric

WF_SIZE = 64
FULL_MASK = (1 << WF_SIZE) - 1

_LANES_I64 = np.arange(WF_SIZE, dtype=np.int64)
#: Pair views and the word-aligned memory paths reinterpret bytes as
#: native words, which matches the little-endian composition (low
#: register / low address first) only on little-endian hosts; big-endian
#: hosts keep the portable split and byte-plane paths.
_LITTLE_ENDIAN = sys.byteorder == "little"


def pack_rows(lanes: np.ndarray) -> np.ndarray:
    """bool[n, 64] lane masks -> uint64[n] mask words."""
    return np.packbits(lanes, axis=1, bitorder="little").view("<u8")[:, 0] \
        .astype(np.uint64)


def unpack_rows(words: np.ndarray) -> np.ndarray:
    """uint64[n] mask words -> bool[n, 64] lane masks."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw.reshape(-1, 8), axis=1,
                         bitorder="little").view(bool)


# ---------------------------------------------------------------------------
# Typed register file
# ---------------------------------------------------------------------------

#: Element types a register (pair) can be viewed as; the constants index
#: the ``views`` tuple of :func:`register_file`.  Kinds from ``U64`` up
#: name an even-aligned register *pair*.
VIEW_DTYPES = (np.uint32, np.int32, np.float32, np.uint64, np.int64, np.float64)
U32, I32, F32, U64, I64, F64 = range(6)

Accessor = Callable[[object], np.ndarray]


def register_file(nregs: int, wavefronts: int = 1) -> Tuple[np.ndarray, ...]:
    """The vector registers of ``wavefronts`` wavefronts as zero-copy
    typed views.

    The backing block is ``uint32[wf, lane, reg]`` -- lane-major within a
    wavefront, so the two registers of an even-aligned pair sit side by
    side in each lane and the same bytes read as one
    ``uint64``/``int64``/``float64`` element.  Every view is handed out
    as ``[reg (pair), wf, lane]``: row ``i`` of a 32-bit view is register
    ``i`` of every wavefront, row ``i >> 1`` of a 64-bit view the pair
    starting at even register ``i``.
    """
    base = np.zeros((wavefronts, WF_SIZE, nregs + (nregs & 1)), dtype=np.uint32)
    return tuple(base.view(dt).transpose(2, 0, 1) for dt in VIEW_DTYPES)


def _viewable(kind: int, index: int) -> bool:
    return kind < U64 or (_LITTLE_ENDIAN and not index & 1)


@lru_cache(maxsize=None)  # at most kinds x register indices entries
def reg_view(kind: int, index: int) -> Accessor:
    """``f(g)`` -> the ``[wf, lane]`` lanes of register (pair) ``index``
    typed ``kind`` over a group's wavefronts.

    A view of the register file wherever one element covers the operand;
    an odd-aligned pair straddles two ``uint64`` elements, so it alone is
    recombined from its halves into a copy.
    """
    if _viewable(kind, index):
        row = index >> 1 if kind >= U64 else index

        def view(g):
            return g.views[kind][row]
        return view
    dtype = VIEW_DTYPES[kind]

    def combined(g):
        u32 = g.views[U32]
        return (u32[index].astype(np.uint64)
                | (u32[index + 1].astype(np.uint64) << np.uint64(32))).view(dtype)
    return combined


def reg_dest(kind: int, index: int) -> Tuple[Accessor, Optional[Callable]]:
    """``(out, commit)`` for writing register (pair) ``index`` in place.

    ``out(g)`` is the view a leaf hands to ``ufunc(..., out=, where=)``
    and ``commit`` is None -- except for an odd-aligned pair, where
    ``out`` is a staging block (one per group height, reused) and
    ``commit(g)`` splits its active lanes into the two halves.
    """
    if _viewable(kind, index):
        return reg_view(kind, index), None
    stages: dict = {}

    def stage(g):
        rows = len(g.exec)
        block = stages.get(rows)
        if block is None:
            block = stages[rows] = np.zeros((rows, WF_SIZE), VIEW_DTYPES[kind])
        return block

    def commit(g):
        write_lanes(g, kind, index, stage(g), g.where)
    return stage, commit


def write_lanes(g, kind: int, index: int, values: np.ndarray, where) -> None:
    """``reg[index][where] = values`` for values already typed ``kind``."""
    if _viewable(kind, index):
        np.copyto(g.views[kind][index >> 1 if kind >= U64 else index],
                  values, where=where)
        return
    raw = values.view(np.uint64)
    u32 = g.views[U32]
    np.copyto(u32[index], raw & np.uint64(0xFFFFFFFF), where=where,
              casting="unsafe")
    np.copyto(u32[index + 1], raw >> np.uint64(32), where=where,
              casting="unsafe")


@lru_cache(maxsize=1024)
def splat(pattern: int, kind: int) -> Accessor:
    """``f(g)`` -> a static bit pattern as one read-only lane vector,
    which broadcasts over any number of wavefronts and is shared by
    every operand with that pattern."""
    raw = np.uint64 if kind >= U64 else np.uint32
    vec = np.full(WF_SIZE, pattern & (FULL_MASK if kind >= U64 else 0xFFFFFFFF),
                  dtype=raw).view(VIEW_DTYPES[kind])
    vec.flags.writeable = False
    return lambda g: vec


def lane_op(fn: Callable, dest: Tuple[Accessor, Optional[Callable]],
            *srcs: Accessor) -> Callable:
    """The step computing ``dest[EXEC] = fn(*srcs)`` in place, for every
    wavefront of the group in one call.

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

        def run(g, exe):
            fn(a(g), out=out(g), where=g.where)
    elif len(srcs) == 2:
        a, b = srcs

        def run(g, exe):
            fn(a(g), b(g), out=out(g), where=g.where)
    else:
        def run(g, exe):
            fn(*[s(g) for s in srcs], out=out(g), where=g.where)
    if commit is None:
        return run

    def run_staged(g, exe):
        run(g, exe)
        commit(g)
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
# Memory access over a group's lanes
# ---------------------------------------------------------------------------

_LINE_BITS = 40
_LINE_FIELD = (1 << _LINE_BITS) - 1


@lru_cache(maxsize=64)
def _dense_rows(rows: int) -> np.ndarray:
    """Row numbers of a dense access, each row's repeated once per lane,
    shifted into the row field of a ``(row, line)`` key."""
    return np.repeat(np.arange(rows, dtype=np.int64), WF_SIZE) << _LINE_BITS


@lru_cache(maxsize=64)
def _row_keys(rows: int) -> np.ndarray:
    """The first ``(row, line)`` key of each row, and one past the last."""
    return np.arange(rows + 1, dtype=np.int64) << _LINE_BITS


class RowLines:
    """The sorted unique 64-byte lines of each row (wavefront) of one
    access, as slices of one array: row ``r``'s are
    ``lines[starts[r]:ends[r]]``."""

    __slots__ = ("lines", "starts", "ends")

    def __init__(self, lines: np.ndarray, starts: List[int],
                 ends: List[int]) -> None:
        self.lines = lines
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, row: int) -> List[int]:
        return self.lines[self.starts[row]:self.ends[row]].tolist()

    def pick(self, pos) -> "RowLines":
        """The rows at positions ``pos`` (a slice keeps them all)."""
        if isinstance(pos, slice):
            return self
        return RowLines(self.lines, [self.starts[p] for p in pos],
                        [self.ends[p] for p in pos])


def row_access(addrs: np.ndarray, where, size: int
               ) -> Tuple[np.ndarray, int, List[int], RowLines]:
    """One pass over a memory operand of a group's ``[wf, lane]`` lanes.

    Returns the active lanes' byte addresses (``int64``, wavefront then
    lane order), their bitwise OR (whose low bits give the common
    alignment), every line touched (unordered) and, per window row, the
    sorted unique 64-byte lines its lanes cover -- a member's
    ``mem_lines``.  ``where`` is True (all lanes) or bool[wf, 64].  One
    sort over ``(wf, line)`` keys yields every row's lines.  Accesses
    wider than a dword count the line of their last byte too; it can
    only differ from the first byte's when a lane is not
    ``size``-aligned.
    """
    rows = addrs.shape[0]
    if addrs.shape[1] != WF_SIZE:
        addrs = np.broadcast_to(addrs, (rows, WF_SIZE))
    idx = addrs.view(np.int64)
    if where is True:
        idx = idx.reshape(-1)
        row_of = _dense_rows(rows)
    else:
        idx = idx[where]
        if idx.size == 0:
            return idx, 0, [], RowLines(idx, [0] * rows, [0] * rows)
        row_of = np.nonzero(where)[0] << _LINE_BITS
    align = int(np.bitwise_or.reduce(idx))
    lines = idx >> 6
    if size > 4 and align & (size - 1):
        lines = np.concatenate((lines, (idx + (size - 1)) >> 6))
        row_of = np.concatenate((row_of, row_of))
    keys = lines & _LINE_FIELD
    if rows > 1:
        keys |= row_of
    keys.sort()
    if keys.size > 1:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    if rows == 1:
        return idx, align, keys.tolist(), RowLines(keys, [0], [keys.size])
    bounds = np.searchsorted(keys, _row_keys(rows)).tolist()
    lines = keys & _LINE_FIELD
    return idx, align, lines.tolist(), RowLines(lines, bounds[:-1], bounds[1:])


def in_bounds(idx: np.ndarray, lines: List[int], size: int,
              lo: int, hi: int) -> bool:
    """True when every ``size``-byte access of a non-empty
    :func:`row_access` (touching ``lines``) lies inside ``[lo, hi)``.
    Decided from the lines when they clear both ends by a line; only
    accesses near an end pay the exact min/max reductions."""
    if min(lines) << 6 >= lo and (max(lines) + 2) << 6 <= hi:
        return True
    return int(idx.min()) >= lo and int(idx.max()) + size <= hi


class LaneBuffer:
    """A little-endian byte buffer read and written a group of lanes at
    a time.

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
        """Gate an access whose active addresses are ``idx`` and which
        touches ``lines`` (at least one lane)."""
        raise NotImplementedError

    def _access(self, addrs, where, size, pos, phys):
        """``(physical idx, align, per-member lines)`` of one admitted
        access."""
        idx, align, touched, lines = row_access(addrs, where, size)
        if idx.size:
            self.admit(idx, align, touched, size)
            if phys is not None:
                if phys.shape[-1] != WF_SIZE:
                    phys = np.broadcast_to(phys, (len(phys), WF_SIZE))
                idx = phys.reshape(-1) if where is True else phys[where]
        return idx, align, lines.pick(pos)

    def gather(self, addrs: np.ndarray, where, size: int = 4, pos=slice(None),
               phys: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, RowLines]:
        """Per-lane ``size``-byte (4 or 8) load.

        ``addrs`` holds the lane addresses (64-bit) of a group's
        wavefronts (``[wf, 64]``), ``where`` is True or a bool mask of
        that shape.  Returns the active lanes' values in
        wavefront-then-lane order and the sorted unique lines covered,
        one list per member (``pos``).
        ``phys``, when given, is where the lanes really point (an LDS
        image's per-workgroup base added); ``addrs`` is what is admitted
        and recorded.  Lanes need not be aligned or contiguous.
        """
        idx, align, lines = self._access(addrs, where, size, pos, phys)
        if self._words and not align & (size - 1):
            return self._words[size][idx >> (size.bit_length() - 1)], lines
        dtype = np.uint32 if size == 4 else np.uint64
        out = np.zeros(idx.size, dtype=dtype)
        for k in range(size):
            out |= self._buf[idx + k].astype(dtype) << dtype(8 * k)
        return out, lines

    def scatter(self, addrs: np.ndarray, values: np.ndarray, where,
                size: int = 4, pos=slice(None),
                phys: Optional[np.ndarray] = None) -> RowLines:
        """Per-lane ``size``-byte store of the active lanes of ``values``
        (uint32/uint64, shaped like ``addrs`` or broadcastable to it);
        returns the lines as :meth:`gather` does.

        On colliding bytes, byte plane ``k + 1`` lands after plane ``k``
        and within a plane later lanes (of later wavefronts) win.  When
        every lane is ``size``-aligned collisions are whole elements,
        and one word scatter (later lanes win) has the same outcome.
        """
        idx, align, lines = self._access(addrs, where, size, pos, phys)
        if not idx.size:
            return lines
        shape = (len(addrs), WF_SIZE)
        if values.shape != shape:
            values = np.broadcast_to(values, shape)
        values = values.reshape(-1) if where is True else values[where]
        if self._words and not align & (size - 1):
            self._words[size][idx >> (size.bit_length() - 1)] = values
        else:
            for k in range(size):
                self._buf[idx + k] = (
                    values >> values.dtype.type(8 * k)).astype(np.uint8)
        return lines


class LdsImage(LaneBuffer):
    """The LDS bytes of the workgroups of a dispatch, ``limit`` bytes
    each (default: one workgroup owning the whole buffer).  Addresses
    are offsets into the own workgroup's allocation, bounds-checked
    against it; a group's per-wavefront base picks the allocation."""

    def __init__(self, buf: np.ndarray, limit: Optional[int] = None) -> None:
        super().__init__(buf)
        self.limit = buf.size if limit is None else limit

    def admit(self, idx, align, lines, size) -> None:
        if not in_bounds(idx, lines, size, 0, self.limit):
            raise ExecutionError("LDS access out of bounds")


# -- memory instructions, shared by both ISAs --------------------------
#
# Steps over per-static-instruction operand accessors; ``lds`` picks the
# executor's LDS image over device memory.  A load reads its addresses
# before it writes its destination, so the destination may be its own
# address pair.


def frame_addresses(g, offset: int) -> np.ndarray:
    """Address (``int64[wf, lane]``) of byte ``offset`` of each lane's
    work-item frame in the launch's private area."""
    return g.state.frames[g.lo:g.hi] + offset


def window_addresses(address: Accessor, g) -> np.ndarray:
    """A memory operand's addresses over the group's whole ``[wf, lane]``
    window: an immediate one is a single shared lane vector."""
    addrs = address(g)
    if addrs.ndim == 1:
        addrs = np.broadcast_to(addrs, g.exec.shape)
    return addrs


def load_op(address: Accessor, dest, size: int, lds: bool = False) -> Callable:
    out, commit = dest
    kind = MemKind.LDS_ACCESS if lds else MemKind.GLOBAL_LOAD

    def run(g, exe):
        where = g.where
        addrs = window_addresses(address, g)
        if lds:
            values, lines = exe.lds.gather(addrs, where, size, g.pos,
                                           addrs + g.lds_base)
        else:
            values, lines = exe.memory.gather(addrs, where, size, g.pos)
        dst = out(g)
        if where is True:
            dst[...] = values.reshape(dst.shape)
        else:
            dst[where] = values
        if commit is not None:
            commit(g)
        return ExecResult(mem_kind=kind, mem_lines=lines)
    return run


def store_op(address: Accessor, data: Accessor, size: int,
             lds: bool = False) -> Callable:
    kind = MemKind.LDS_ACCESS if lds else MemKind.GLOBAL_STORE

    def run(g, exe):
        addrs = window_addresses(address, g)
        if lds:
            lines = exe.lds.scatter(addrs, data(g), g.where, size, g.pos,
                                    addrs + g.lds_base)
        else:
            lines = exe.memory.scatter(addrs, data(g), g.where, size, g.pos)
        return ExecResult(mem_kind=kind, mem_lines=lines)
    return run


def atomic_add_op(address: Accessor, data: Accessor, dest) -> Callable:
    """32-bit atomic add returning the old value into ``dest``; the
    active lanes load, add and store one at a time in ascending order.
    Its group is one wavefront: the functional pass never groups a
    kernel with an atomic (:func:`has_atomic`)."""
    out, commit = dest

    def run(g, exe):
        assert len(g.rows) == 1, "atomics run one wavefront at a time"
        lanes = g.lanes
        addrs = window_addresses(address, g)
        values = np.broadcast_to(data(g), lanes.shape)
        old = np.zeros(lanes.shape, dtype=np.uint32)
        memory = exe.memory
        for lane in np.flatnonzero(lanes[0]).tolist():
            addr = int(addrs[0, lane])
            prev = memory.load_scalar(addr, 4)
            memory.store_scalar(addr, (prev + int(values[0, lane]))
                                & 0xFFFFFFFF, 4)
            old[0, lane] = prev
        np.copyto(out(g), old, where=lanes)
        if commit is not None:
            commit(g)
        return ExecResult(mem_kind=MemKind.GLOBAL_STORE,
                          mem_lines=row_access(addrs, lanes, 4)[3])
    return run


# ---------------------------------------------------------------------------
# Wavefront state, groups, steps and the executor
# ---------------------------------------------------------------------------
#
# Each ISA compiles every static instruction into one step,
# ``step(g, exe)``: it applies the instruction to every member
# wavefront of group ``g`` at once (``exe`` holds the device memory and
# LDS a memory step touches) and returns None when the only outcome the
# timing model sees is each member's active-lane count, else an
# :class:`ExecResult` whose ``mem_lines`` holds one line list per
# member and whose ``branch_taken`` is one flag per member (or one for
# all).  No step moves a pc: the caller advances every member to
# ``next_pc`` when its branch was taken, else by one, so a branch step
# reads its own pc there.

Step = Callable[["Group", "Executor"], Optional[ExecResult]]


class Wavefronts:
    """The architectural state every ISA shares, of ``len(contexts)``
    wavefronts (the rows): the register file, EXEC as bool lanes, a pc
    and an end flag per wavefront, and the per-lane launch values
    (work-item ids, private frame addresses) the steps read.  This is
    the one place launch geometry becomes lanes: the ids and the initial
    EXEC (lanes inside both the workgroup box and the grid) feed HSAIL's
    dispatch queries and GCN3's ABI registers alike.  Each ISA subclass
    adds its own state, binds its windows into a :class:`Group`
    (:meth:`bind`) and names its ``instr -> step`` compiler
    (``compiled``)."""

    compiled: Callable[[object], Step]

    @classmethod
    def steps(cls, kernel) -> Tuple[Step, ...]:
        """``kernel``'s per-pc step table, built once and cached on the
        kernel beside its issue descriptors."""
        return kernel_memo(kernel, "steps",
                           lambda: tuple(map(cls.compiled, kernel.instrs)))

    def __init__(self, kernel, contexts: Sequence[DispatchContext],
                 nregs: int) -> None:
        self.kernel = kernel
        self.contexts = contexts
        rows = len(contexts)
        self.views = register_file(nregs, rows)
        first = contexts[0]
        wx, wy, wz = first.wg_size
        gx, gy, gz = first.grid_size
        index = np.array([c.wf_index_in_wg for c in contexts], dtype=np.uint32)
        flat = (index[:, None] * np.uint32(first.wavefront_size)
                + np.arange(WF_SIZE, dtype=np.uint32))
        lx = flat % np.uint32(wx)
        rest = flat // np.uint32(wx)
        ly = rest % np.uint32(wy)
        lz = rest // np.uint32(wy)
        #: per-lane (x, y, z) work-item ids within the workgroup
        self.local_ids = (lx, ly, lz)
        #: [wf, dim] workgroup ids
        self.wg_ids = np.array([c.wg_id for c in contexts], dtype=np.uint32)
        wg = np.array(first.wg_size, dtype=np.uint32)
        ax, ay, az = (self.wg_ids[:, d:d + 1] * wg[d] + ids
                      for d, ids in enumerate(self.local_ids))
        #: per-lane absolute (grid) work-item ids
        self.absolute_ids = (ax, ay, az)
        base = np.array([c.workitem_base() for c in contexts], dtype=np.int64)
        #: flat absolute work-item id of each lane
        self.flat_ids = (base[:, None] + _LANES_I64).astype(np.uint32)
        stride = np.array([c.private_stride for c in contexts], dtype=np.int64)
        private = np.array([c.private_base for c in contexts], dtype=np.int64)
        self.frames = ((base[:, None] + _LANES_I64) * stride[:, None]
                       + private[:, None])
        self.lds_base = np.array([[c.lds_base_offset] for c in contexts],
                                 dtype=np.int64)
        self.exec = ((lz < np.uint32(wz)) & (ax < np.uint32(gx))
                     & (ay < np.uint32(gy)) & (az < np.uint32(gz)))
        self.pcs = [0] * rows
        self.ended = [False] * rows

    def bind(self, g: "Group") -> None:
        """Give ``g`` the windows of the ISA's own state (``sgpr``,
        ``vcc``, ``scc``) and ``rpcs``, the reconvergence pcs its members'
        stacks wait for."""
        raise NotImplementedError


class Group:
    """Member wavefronts (``rows``, ascending) of a :class:`Wavefronts`
    that share a pc, as the steps see them.

    Every per-wavefront array is viewed through the *window* of rows
    ``[lo, hi)`` spanning the members, ``[wf, ...]``-shaped.  Rows of the
    window that are not members (wavefronts elsewhere) take no lanes:
    ``lanes`` is EXEC and membership, and ``where`` -- the ufunc operand
    -- is True while every member has every lane on and the members
    fill the window.  ``pos`` picks the members' positions in the
    window (``index``: the same as an array) and ``member`` masks a
    per-wavefront write (True: all).
    ``active`` is each member's lane count; :meth:`refresh` recomputes
    these after a step writes EXEC.
    """

    __slots__ = ("state", "rows", "lo", "hi", "pc", "views", "exec",
                 "member", "member_col", "pos", "index", "lanes", "where",
                 "active", "lds_base", "sgpr", "scc", "vcc", "rpcs")

    def __init__(self, state: Wavefronts, rows: List[int], pc: int) -> None:
        self.state = state
        self.rows = rows
        self.pc = pc
        lo = self.lo = rows[0]
        hi = self.hi = rows[-1] + 1
        self.views = tuple(v[:, lo:hi] for v in state.views)
        self.exec = state.exec[lo:hi]
        self.lds_base = state.lds_base[lo:hi]
        if hi - lo == len(rows):
            self.member = self.member_col = True
            self.pos = slice(None)
            self.index = _positions(len(rows))
        else:
            pos = self.pos = self.index = np.array(rows, dtype=np.intp) - lo
            member = self.member = np.zeros(hi - lo, dtype=bool)
            member[pos] = True
            self.member_col = member[:, None]
        state.bind(self)
        self.refresh()

    def refresh(self) -> None:
        """Recompute the lane views after EXEC changed."""
        lanes = self.exec if self.member is True else self.exec & self.member_col
        self.lanes = lanes
        counts = np.count_nonzero(lanes, axis=1)
        active = self.active = counts[self.pos].tolist()
        self.where = (True if self.member is True
                      and min(active) == WF_SIZE else lanes)

    def set_exec(self, lanes: np.ndarray) -> None:
        """Write the members' EXEC rows (``lanes`` spans the window)."""
        np.copyto(self.exec, lanes, where=self.member_col)
        self.refresh()


@lru_cache(maxsize=64)
def _positions(rows: int) -> np.ndarray:
    return np.arange(rows, dtype=np.intp)


def nop(g, exe) -> None:
    """The step of an instruction without functional effect."""


_BARRIER = ExecResult(is_barrier=True)
_END = ExecResult(ends_wavefront=True)


def barrier(g, exe) -> ExecResult:
    return _BARRIER


def end(g, exe) -> ExecResult:
    return _END


def has_atomic(kernel) -> bool:
    """Whether ``kernel`` has an atomic.  Every atomic hands its old
    value to a register, so the values one wavefront sees depend on
    which others ran before it: the functional pass keeps such kernels
    in the canonical one-wavefront-at-a-time order."""
    return kernel_memo(kernel, "has_atomic", lambda: any(
        "atomic" in instr.opcode for instr in kernel.instrs))


class Executor:
    """The memory a step touches: device memory and the dispatch's LDS
    image (``lds_limit`` bytes per workgroup; default, all of it)."""

    def __init__(self, memory, lds: Optional[np.ndarray] = None,
                 lds_limit: Optional[int] = None) -> None:
        self.memory = memory
        self.lds = LdsImage(
            lds if lds is not None else np.zeros(64 * 1024, dtype=np.uint8),
            lds_limit)
        # The ALU steps run one numpy expression per dynamic
        # instruction; a per-call errstate costs more than the math.
        ensure_quiet_numeric()
