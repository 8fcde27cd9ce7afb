"""Types shared between the functional models and the timing model.

Both ISA semantics modules return an :class:`ExecResult` describing the
side effects the timing model must account for (memory lines touched,
branch outcome, barrier/end markers).  :class:`DispatchContext` carries
the per-wavefront launch state that instruction semantics read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .xp import pack_mask


@dataclass
class DispatchContext:
    """Launch-time state visible to one wavefront's instructions."""

    grid_size: Tuple[int, int, int]
    wg_size: Tuple[int, int, int]
    wg_id: Tuple[int, int, int]
    wf_index_in_wg: int          # which 64-lane slice of the workgroup
    wavefront_size: int = 64
    kernarg_base: int = 0        # address of the kernarg segment
    aql_packet_addr: int = 0     # address of the dispatch packet
    private_base: int = 0        # base of this launch/process private area
    private_stride: int = 0      # bytes per work-item in the private area
    spill_base: int = 0
    spill_stride: int = 0
    scratch_base: int = 0        # regalloc spill scratch (GCN3)
    scratch_stride: int = 0
    lds_base_offset: int = 0     # this WG's offset within CU LDS

    @property
    def flat_wg_id(self) -> int:
        gx = max(1, -(-self.grid_size[0] // self.wg_size[0]))
        gy = max(1, -(-self.grid_size[1] // self.wg_size[1]))
        x, y, z = self.wg_id
        return x + y * gx + z * gx * gy

    @property
    def wg_flat_size(self) -> int:
        return self.wg_size[0] * self.wg_size[1] * self.wg_size[2]

    def workitem_base(self) -> int:
        """Flat work-item id of lane 0 of this wavefront within the grid."""
        return self.flat_wg_id * self.wg_flat_size + self.wf_index_in_wg * self.wavefront_size

    @property
    def grid_flat_size(self) -> int:
        return self.grid_size[0] * self.grid_size[1] * self.grid_size[2]

    def local_ids(self) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Per-lane (x, y, z) work-item ids within the workgroup.

        Work-items fill the workgroup box x-fastest (HSA order); lane i of
        wavefront w covers in-workgroup flat id ``w*64 + i``.
        """
        flat = (np.uint32(self.wf_index_in_wg * self.wavefront_size)
                + np.arange(self.wavefront_size, dtype=np.uint32))
        wx, wy, _wz = self.wg_size
        lx = flat % np.uint32(wx)
        rest = flat // np.uint32(wx)
        ly = rest % np.uint32(wy)
        lz = rest // np.uint32(wy)
        return lx, ly, lz

    def absolute_ids(self) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Per-lane absolute (grid) work-item ids along each dimension."""
        lx, ly, lz = self.local_ids()
        return (
            np.uint32(self.wg_id[0] * self.wg_size[0]) + lx,
            np.uint32(self.wg_id[1] * self.wg_size[1]) + ly,
            np.uint32(self.wg_id[2] * self.wg_size[2]) + lz,
        )

    def active_mask_array(self) -> np.ndarray:
        """Boolean per-lane activity: inside the workgroup box *and* the
        grid (edge workgroups of ragged multi-dimensional grids have
        inactive lanes interleaved mid-wavefront, not just at the tail)."""
        lx, ly, lz = self.local_ids()
        in_wg = lz < np.uint32(self.wg_size[2])
        ax, ay, az = self.absolute_ids()
        in_grid = (
            (ax < np.uint32(self.grid_size[0]))
            & (ay < np.uint32(self.grid_size[1]))
            & (az < np.uint32(self.grid_size[2]))
        )
        return in_wg & in_grid

    def active_mask_bits(self) -> int:
        """The initial EXEC mask for this wavefront."""
        return pack_mask(self.active_mask_array())

    def active_lanes(self) -> int:
        """Number of lanes of this wavefront that map to real work-items."""
        return int(self.active_mask_array().sum())


class MemKind:
    """Memory traffic classes the timing model routes differently."""

    NONE = "none"
    GLOBAL_LOAD = "global_load"
    GLOBAL_STORE = "global_store"
    SCALAR_LOAD = "scalar_load"
    LDS_ACCESS = "lds"


@dataclass(slots=True)
class ExecResult:
    """Functional side effects of executing one instruction on one WF."""

    mem_kind: str = MemKind.NONE
    mem_lines: List[int] = field(default_factory=list)  # unique 64B line addrs
    branch_taken: Optional[bool] = None
    next_pc: Optional[int] = None     # set when control transfers
    ends_wavefront: bool = False
    is_barrier: bool = False
    waitcnt: Optional[Tuple[int, int]] = None  # (vmcnt, lgkmcnt) thresholds
    active_lanes: int = 0             # lanes this instruction operated on
