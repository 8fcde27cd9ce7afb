"""The GPU process: memory, segment policy, and dispatch preparation.

One :class:`GpuProcess` represents a host process using the GPU under one
ISA.  The crucial per-ISA difference (paper §VI.A) is the allocation
policy for special segments:

* GCN3 runs on the real runtime's ABI — private/spill segment memory is
  allocated **per process** and reused across kernel launches.
* HSAIL has no ABI, so the emulated runtime must allocate **per launch**,
  inflating the data footprint of workloads that spill (FFT, LULESH).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..common.errors import RuntimeStackError
from ..common.exec_types import DispatchContext
from ..gcn3.isa import Gcn3Kernel
from ..hsail.isa import HsailKernel
from .loader import CodeObjectLoader, LoadedKernel
from .memory import Segment, SegmentAllocator, SimulatedMemory
from .packets import AqlDispatchPacket
from .queues import AqlQueue
from .signals import Signal

AnyKernel = Union[HsailKernel, Gcn3Kernel]

KernargValue = Union[int, float]


def _frame_bytes(kernel: AnyKernel) -> int:
    scratch = getattr(kernel, "scratch_bytes", 0)
    return kernel.private_bytes + kernel.spill_bytes + scratch


@dataclass
class Dispatch:
    """One prepared kernel launch."""

    kernel: AnyKernel
    loaded: LoadedKernel
    grid: Tuple[int, int, int]
    wg: Tuple[int, int, int]
    kernarg_addr: int
    packet_addr: int
    private_base: int
    private_stride: int
    signal: Signal

    @property
    def is_gcn3(self) -> bool:
        return isinstance(self.kernel, Gcn3Kernel)

    @property
    def num_workgroups(self) -> int:
        return tuple_ceil_div(self.grid, self.wg)

    @property
    def wavefronts_per_wg(self) -> int:
        wg_items = self.wg[0] * self.wg[1] * self.wg[2]
        return -(-wg_items // 64)

    def workgroup_id(self, wg_index: int) -> Tuple[int, int, int]:
        """Decompose a flat workgroup ordinal into (x, y, z) ids."""
        nx = -(-self.grid[0] // self.wg[0])
        ny = -(-self.grid[1] // self.wg[1])
        x = wg_index % nx
        rest = wg_index // nx
        return (x, rest % ny, rest // ny)

    def wavefronts_in_wg(self, wg_index: int) -> int:
        """Wavefronts actually populated in workgroup ``wg_index``.

        Edge workgroups of ragged grids have inactive lanes; wavefronts
        beyond the last active in-workgroup flat id are never launched
        (work-items fill the workgroup box x-fastest)."""
        wx, wy, wz = self.wg
        gx, gy, gz = self.grid
        ix, iy, iz = self.workgroup_id(wg_index)
        span_x = max(1, min(wx, gx - ix * wx))
        span_y = max(1, min(wy, gy - iy * wy))
        span_z = max(1, min(wz, gz - iz * wz))
        last_flat = (span_z - 1) * wy * wx + (span_y - 1) * wx + (span_x - 1)
        return last_flat // 64 + 1

    def make_context(self, wg_id: Tuple[int, int, int], wf_index: int,
                     lds_base_offset: int = 0) -> DispatchContext:
        return DispatchContext(
            grid_size=self.grid,
            wg_size=self.wg,
            wg_id=wg_id,
            wf_index_in_wg=wf_index,
            kernarg_base=self.kernarg_addr,
            aql_packet_addr=self.packet_addr,
            private_base=self.private_base,
            private_stride=self.private_stride,
            lds_base_offset=lds_base_offset,
        )


def tuple_ceil_div(grid: Tuple[int, int, int], wg: Tuple[int, int, int]) -> int:
    n = 1
    for g, w in zip(grid, wg):
        n *= -(-g // w)
    return n


class GpuProcess:
    """Owns the address space and stages dispatches for one ISA's run."""

    def __init__(self, isa: str, memory_capacity: int = 1 << 22) -> None:
        if isa not in ("hsail", "gcn3"):
            raise RuntimeStackError(f"unknown ISA {isa!r}")
        self.isa = isa
        self.memory = SimulatedMemory(capacity=memory_capacity)
        policy = "per_process" if isa == "gcn3" else "per_launch"
        self.allocator = SegmentAllocator(self.memory, policy=policy)
        self.loader = CodeObjectLoader(self.allocator)
        # Runtime plumbing (queue ring, signals) lives in the ARG segment
        # so it never pollutes the application data footprint.
        queue_base = self.allocator.alloc(64 * 256, Segment.ARG, tag="aql_queue")
        self.queue = AqlQueue(self.memory, queue_base)
        #: packets staged while the ring was full, in dispatch order
        self._backlog: Deque[AqlDispatchPacket] = deque()
        self.dispatches: List[Dispatch] = []
        self._signal_count = 0

    # -- host-side memory API ------------------------------------------------

    def alloc_buffer(self, nbytes: int, tag: str = "buffer") -> int:
        return self.allocator.alloc(nbytes, Segment.GLOBAL, tag=tag)

    def upload(self, array: np.ndarray, tag: str = "buffer") -> int:
        addr = self.alloc_buffer(max(int(array.nbytes), 4), tag=tag)
        self.memory.write_array(addr, array)
        return addr

    def download(self, addr: int, dtype: "np.dtype | type", count: int) -> np.ndarray:
        return self.memory.read_array(addr, dtype, count)

    # -- dispatch ---------------------------------------------------------------

    def dispatch(
        self,
        kernel: AnyKernel,
        grid: "int | Tuple[int, int, int]",
        wg: "int | Tuple[int, int, int]",
        kernargs: "List[KernargValue]",
    ) -> Dispatch:
        """Stage kernargs, segments, and the AQL packet for one launch."""
        grid_t = grid if isinstance(grid, tuple) else (int(grid), 1, 1)
        wg_t = wg if isinstance(wg, tuple) else (int(wg), 1, 1)
        loaded = self.loader.load(kernel)

        kernarg_addr = self._stage_kernargs(kernel, kernargs)
        stride = _frame_bytes(kernel)
        total_items = grid_t[0] * grid_t[1] * grid_t[2]
        # Pad the grid to whole wavefronts: trailing lanes of the last WF
        # still own a frame slot (hardware allocates per-wave).
        padded_items = -(-total_items // 64) * 64
        if stride:
            private_base = self.allocator.alloc(
                stride * padded_items, Segment.PRIVATE, tag=f"frame:{kernel.name}"
            )
        else:
            private_base = 0

        signal_addr = self.allocator.alloc(8, Segment.ARG, tag="signal")
        signal = Signal(self.memory, signal_addr, initial=1)
        packet = AqlDispatchPacket(
            workgroup_size=wg_t,
            grid_size=grid_t,
            private_segment_size=stride,
            group_segment_size=kernel.group_bytes,
            kernel_object=loaded.code_base,
            kernarg_address=kernarg_addr,
            completion_signal=signal_addr,
        )
        index = self._submit(packet)
        dispatch = Dispatch(
            kernel=kernel,
            loaded=loaded,
            grid=grid_t,
            wg=wg_t,
            kernarg_addr=kernarg_addr,
            packet_addr=self.queue.packet_addr(index),
            private_base=private_base,
            private_stride=stride,
            signal=signal,
        )
        self.dispatches.append(dispatch)
        return dispatch

    def _submit(self, packet: AqlDispatchPacket) -> int:
        """Enqueue ``packet``, or hold it while the ring is full; returns
        its packet index either way (its slot is known in advance)."""
        queue = self.queue
        if self._backlog or queue.size >= queue.capacity:
            self._backlog.append(packet)
            return queue.write_index + len(self._backlog) - 1
        return queue.enqueue(packet)

    def next_packet(self) -> Optional[AqlDispatchPacket]:
        """The packet processor's dequeue.  Staging runs in bounded
        batches: before the next packet is consumed, held packets move
        into the slots of packets already consumed -- whose dispatches
        have completed, so no kernel still reads the packet it
        overwrites -- and dispatch order is staging order."""
        queue = self.queue
        backlog = self._backlog
        while backlog and queue.size < queue.capacity:
            queue.enqueue(backlog.popleft())
        return queue.dequeue()

    def _stage_kernargs(self, kernel: AnyKernel, values: "List[KernargValue]") -> int:
        params = kernel.params
        if len(values) != len(params):
            raise RuntimeStackError(
                f"kernel {kernel.name} expects {len(params)} kernargs, got {len(values)}"
            )
        size = max(kernel.kernarg_bytes, 8)
        addr = self.allocator.alloc(size, Segment.KERNARG, tag=f"kernarg:{kernel.name}")
        for (name, dtype, offset), value in zip(params, values):
            raw = _encode_kernarg(dtype, value)
            self.memory.store_scalar(addr + offset, raw, dtype.size_bytes, track=False)
        return addr

    @property
    def data_footprint_bytes(self) -> int:
        """Device-touched bytes in *application data* segments.

        Kernarg buffers, AQL packets, and code are excluded: the paper's
        Table 6 footprint is the kernel's working set, and at our scaled
        problem sizes per-launch runtime plumbing would otherwise swamp
        the private/spill-segment signal under study.
        """
        import bisect

        ranges = self.allocator.segment_ranges(
            {Segment.GLOBAL, Segment.PRIVATE, Segment.SPILL}
        )
        if not ranges:
            return 0
        starts = [r[0] for r in ranges]
        count = 0
        for line in self.memory.touched_line_addresses():
            addr = line << 6
            i = bisect.bisect_right(starts, addr) - 1
            if i >= 0 and addr < ranges[i][1]:
                count += 1
        return count * 64


def _encode_kernarg(dtype: object, value: KernargValue) -> int:
    from ..kernels.types import DType, encode_imm

    assert isinstance(dtype, DType)
    return encode_imm(dtype, value)
