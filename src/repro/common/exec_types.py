"""Types shared between the functional models and the timing model.

Both ISA semantics modules return an :class:`ExecResult` describing the
side effects the timing model must account for (memory lines touched,
branch outcome, barrier/end markers).  :class:`DispatchContext` carries
the per-wavefront launch state; :class:`~repro.common.lanes.Wavefronts`
turns it into the lanes instruction semantics read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


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


class MemKind:
    """Memory traffic classes the timing model routes differently."""

    NONE = "none"
    GLOBAL_LOAD = "global_load"
    GLOBAL_STORE = "global_store"
    SCALAR_LOAD = "scalar_load"
    LDS_ACCESS = "lds"


@dataclass(slots=True)
class ExecResult:
    """Functional side effects of one group step (the step protocol of
    :mod:`repro.common.lanes`) that the timing model must account for."""

    mem_kind: str = MemKind.NONE
    #: the sorted unique 64-byte lines each member touched, one list per
    #: member (a :class:`~repro.common.lanes.RowLines`)
    mem_lines: Sequence[List[int]] = field(default_factory=list)
    #: one flag for every member, or one per member
    branch_taken: Union[None, bool, List[bool]] = None
    next_pc: Optional[int] = None     # set when control transfers
    ends_wavefront: bool = False
    is_barrier: bool = False
    waitcnt: Optional[Tuple[int, int]] = None  # (vmcnt, lgkmcnt) thresholds
    #: lanes the instruction operated on; set only where one wavefront
    #: is stepped on its own (the functional pass records the group's
    #: ``active`` counts instead)
    active_lanes: int = 0
