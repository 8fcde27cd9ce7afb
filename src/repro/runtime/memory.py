"""Simulated flat virtual memory and the segment allocator.

A single grow-on-demand numpy buffer backs the GPU-visible address space.
Addresses below :data:`HEAP_BASE` are unmapped so null-pointer bugs in
generated code fault loudly.

Device-side accesses (the functional models' loads/stores) are *tracked*:
every unique 64-byte line touched is recorded, which is how the paper's
Table 6 "data footprint" is measured.  Host-side writes (input staging,
code loading) use the untracked paths.

The footprint asymmetry the paper reports for FFT and LULESH falls out of
the allocation policy implemented in :class:`SegmentAllocator`: the HSAIL
runtime emulation allocates private/spill segments per *kernel launch*,
while the GCN3 path allocates them once per *process* and reuses them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set

import numpy as np

from ..common.bits import align_up
from ..common.errors import MemoryError_
from ..common.lanes import LaneBuffer, in_bounds

#: First mapped address. Everything below faults.
HEAP_BASE = 0x1_0000
#: Footprint granularity (cache line).
LINE_BYTES = 64
_LINE_SHIFT = 6


class Segment(str, Enum):
    """HSA memory segments (HSA PRM §2; paper §III.A.2)."""

    GLOBAL = "global"
    READONLY = "readonly"
    KERNARG = "kernarg"
    GROUP = "group"        # LDS-backed; addresses are CU-local
    PRIVATE = "private"
    SPILL = "spill"
    ARG = "arg"


class SimulatedMemory(LaneBuffer):
    """Byte-addressable simulated memory with device-access footprint
    tracking.  The per-lane vector accesses (``gather``/``scatter``) are
    :class:`LaneBuffer`'s, gated by :meth:`admit`."""

    def __init__(self, capacity: int = 1 << 22) -> None:
        super().__init__(np.zeros(capacity, dtype=np.uint8))
        self._limit = HEAP_BASE  # highest mapped address (exclusive)
        self._touched_lines: Set[int] = set()
        self.track_footprint = True

    # -- mapping ---------------------------------------------------------

    @property
    def mapped_limit(self) -> int:
        return self._limit

    def map_range(self, addr: int, size: int) -> None:
        """Mark [addr, addr+size) as mapped, growing the backing store."""
        if addr < HEAP_BASE:
            raise MemoryError_(f"cannot map below heap base: {addr:#x}")
        end = addr + size
        while end > len(self._buf):
            self._bind(np.concatenate([self._buf, np.zeros(len(self._buf), dtype=np.uint8)]))
        if end > self._limit:
            self._limit = end

    def _check(self, addr: int, size: int) -> None:
        if addr < HEAP_BASE or addr + size > self._limit:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) outside mapped range "
                f"[{HEAP_BASE:#x}, {self._limit:#x})"
            )

    # -- footprint -------------------------------------------------------

    def _touch_scalar(self, addr: int, size: int) -> None:
        if not self.track_footprint:
            return
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        for line in range(first, last + 1):
            self._touched_lines.add(line)

    @property
    def data_footprint_bytes(self) -> int:
        """Unique device-touched bytes, at cache-line granularity."""
        return len(self._touched_lines) * LINE_BYTES

    def touched_line_addresses(self) -> Set[int]:
        """Line indices (addr >> 6) touched by device accesses."""
        return set(self._touched_lines)

    def reset_footprint(self) -> None:
        self._touched_lines.clear()

    # -- host (untracked) access ----------------------------------------

    def write_block(self, addr: int, data: "bytes | bytearray | np.ndarray") -> None:
        raw = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) else data
        raw = raw.view(np.uint8).reshape(-1)
        self._check(addr, raw.size)
        self._buf[addr : addr + raw.size] = raw

    def read_block(self, addr: int, size: int) -> np.ndarray:
        self._check(addr, size)
        return self._buf[addr : addr + size].copy()

    def write_array(self, addr: int, array: np.ndarray) -> None:
        """Stage a typed numpy array into memory (host side, untracked)."""
        self.write_block(addr, np.ascontiguousarray(array).view(np.uint8).reshape(-1))

    def read_array(self, addr: int, dtype: "np.dtype | type", count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        raw = self.read_block(addr, dt.itemsize * count)
        return raw.view(dt).copy()

    # -- scalar device access (tracked) ----------------------------------

    def load_scalar(self, addr: int, size: int, *, track: bool = True) -> int:
        """Device scalar load of 1/2/4/8 bytes, little-endian unsigned."""
        self._check(addr, size)
        if track:
            self._touch_scalar(addr, size)
        raw = self._buf[addr : addr + size].tobytes()
        return int.from_bytes(raw, "little")

    def store_scalar(self, addr: int, value: int, size: int, *, track: bool = True) -> None:
        self._check(addr, size)
        if track:
            self._touch_scalar(addr, size)
        self._buf[addr : addr + size] = np.frombuffer(
            int(value).to_bytes(size, "little"), dtype=np.uint8
        )

    def load_u32(self, addr: int) -> int:
        return self.load_scalar(addr, 4)

    def load_u64(self, addr: int) -> int:
        return self.load_scalar(addr, 8)

    def store_u32(self, addr: int, value: int) -> None:
        self.store_scalar(addr, value & 0xFFFFFFFF, 4)

    def store_u64(self, addr: int, value: int) -> None:
        self.store_scalar(addr, value & 0xFFFFFFFFFFFFFFFF, 8)

    def load_f64(self, addr: int) -> float:
        return struct.unpack("<d", bytes(self.read_block(addr, 8)))[0]

    # -- vector device access (tracked) -----------------------------------

    def admit(self, idx: np.ndarray, align: int, lines: List[int],
              size: int) -> None:
        """The bounds check and the footprint of one access, from the
        one pass that also yields each wavefront's ``mem_lines``."""
        if not in_bounds(idx, lines, size, HEAP_BASE, self._limit):
            lo = int(idx.min())
            self._check(lo, int(idx.max()) + size - lo)
        if not self.track_footprint:
            return
        touched = self._touched_lines
        if size > 4 and align & 3:
            # The footprint counts a pair as its two dwords, each by the
            # line of its first byte; off dword alignment that is not
            # the line of the pair's last byte.
            for half in (idx, idx + 4):
                touched.update((half >> _LINE_SHIFT).tolist())
        else:
            touched.update(lines)


@dataclass
class Allocation:
    """One live allocation."""

    addr: int
    size: int
    segment: Segment
    tag: str


class SegmentAllocator:
    """Bump allocator over :class:`SimulatedMemory` with per-segment policy.

    ``policy`` selects the paper's two behaviours for private/spill/kernarg
    segments: ``"per_process"`` reuses one region per (segment, tag) across
    kernel launches (GCN3 / real runtime), ``"per_launch"`` always hands out
    fresh memory (the HSAIL simulator-defined ABI).
    """

    def __init__(self, memory: SimulatedMemory, policy: str = "per_process") -> None:
        if policy not in ("per_process", "per_launch"):
            raise MemoryError_(f"unknown allocation policy {policy!r}")
        self.memory = memory
        self.policy = policy
        self._cursor = HEAP_BASE
        self._live: Dict[int, Allocation] = {}
        self._reusable: Dict[str, Allocation] = {}

    def alloc(self, size: int, segment: Segment = Segment.GLOBAL, *, align: int = 64, tag: str = "") -> int:
        """Allocate ``size`` bytes; returns the base address."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        key = f"{segment.value}:{tag}"
        # Kernarg buffers are always per-dispatch (the host writes them
        # before each launch); only private/spill segment frames follow
        # the per-process-vs-per-launch policy split (paper §VI.A).
        reuse = (
            self.policy == "per_process"
            and segment in (Segment.PRIVATE, Segment.SPILL)
            and tag
        )
        if reuse and key in self._reusable:
            existing = self._reusable[key]
            if existing.size >= size:
                return existing.addr
        addr = align_up(self._cursor, align)
        self.memory.map_range(addr, size)
        self._cursor = addr + size
        allocation = Allocation(addr=addr, size=size, segment=segment, tag=tag or segment.value)
        self._live[addr] = allocation
        if reuse:
            self._reusable[key] = allocation
        return addr

    def free(self, addr: int) -> None:
        """Release an allocation record (storage is not recycled)."""
        if addr not in self._live:
            raise MemoryError_(f"free of unallocated address {addr:#x}")
        allocation = self._live.pop(addr)
        key = f"{allocation.segment.value}:{allocation.tag}"
        self._reusable.pop(key, None)

    def lookup(self, addr: int) -> Optional[Allocation]:
        return self._live.get(addr)

    def segment_ranges(self, segments: "set[Segment]") -> "list[tuple[int, int]]":
        """Sorted [start, end) address ranges of allocations in ``segments``."""
        return sorted(
            (a.addr, a.addr + a.size)
            for a in self._live.values()
            if a.segment in segments
        )
