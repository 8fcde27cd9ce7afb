"""The GCN3 kernel ABI: descriptor and initial register state.

This is the machinery HSAIL lacks (paper §III.A).  The ABI dictates which
registers the command processor initializes before a wavefront starts:

====================  =====================================================
``s[0:3]``            private ("scratch") segment descriptor: 64-bit base
                      address, per-work-item stride, total size
``s[4:5]``            dispatch (AQL) packet address
``s[6:7]``            kernarg segment base address
``s8``                workgroup id X  (Y/Z via the dispatch packet)
``v0``                work-item id within the workgroup (flattened)
====================  =====================================================

GCN3 instructions know the semantics of each initialized register; e.g.
Table 1 of the paper obtains the global work-item id by ``s_load``-ing the
workgroup size from the packet at ``s[4:5]``, multiplying by ``s8`` and
adding ``v0``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..common.exec_types import DispatchContext

# Fixed SGPR assignments (indices into the wavefront SGPR file).
SGPR_PRIVATE_DESC = 0      # s[0:3]
SGPR_DISPATCH_PTR = 4      # s[4:5]
SGPR_KERNARG_PTR = 6       # s[6:7]
SGPR_WORKGROUP_ID_X = 8
SGPR_WORKGROUP_ID_Y = 9    # initialized only when the kernel uses dim >= 1
SGPR_WORKGROUP_ID_Z = 10   # initialized only when the kernel uses dim >= 2
#: First SGPR available to the register allocator (1-D kernels; kernels
#: using higher dimensions reserve s9/s10 as well).
FIRST_FREE_SGPR = 9
#: v0 holds the in-workgroup work-item X id; v1/v2 hold Y/Z when enabled.
FIRST_FREE_VGPR = 1


def first_free_sgpr(dims: int) -> int:
    """First allocatable SGPR for a kernel using ``dims`` grid dimensions."""
    return FIRST_FREE_SGPR + max(0, dims - 1)


def first_free_vgpr(dims: int) -> int:
    """First allocatable VGPR for a kernel using ``dims`` grid dimensions."""
    return max(FIRST_FREE_VGPR, dims)


def initialize_wavefront_registers(
    sgpr: np.ndarray,
    vgpr: np.ndarray,
    contexts: Sequence[DispatchContext],
    local_ids: Tuple[np.ndarray, np.ndarray, np.ndarray],
    dims: int = 1,
) -> None:
    """Apply the ABI's initial register state to a set of wavefronts.

    ``sgpr`` is a uint32 array ``[wf, sgprs]`` (row ``i`` the scalar
    registers of ``contexts[i]``'s wavefront), ``vgpr`` a uint32 view
    ``[vgprs, wf, lane]`` and ``local_ids`` the per-lane (x, y, z)
    work-item ids ``[wf, lane]``.  ``dims`` is the kernel descriptor's
    enabled work-item-id dimension count: v0 always holds the X id;
    v1/v2 and s9/s10 are initialized only when enabled.
    """
    def column(field: str) -> np.ndarray:
        return np.array([getattr(ctx, field) for ctx in contexts],
                        dtype=np.uint64)

    def store64(base: int, value: np.ndarray) -> None:
        sgpr[:, base] = value & np.uint64(0xFFFFFFFF)
        sgpr[:, base + 1] = value >> np.uint64(32)

    store64(SGPR_PRIVATE_DESC, column("private_base"))
    sgpr[:, SGPR_PRIVATE_DESC + 2] = column("private_stride")
    sgpr[:, SGPR_PRIVATE_DESC + 3] = 0  # size field, unused by generated code
    store64(SGPR_DISPATCH_PTR, column("aql_packet_addr"))
    store64(SGPR_KERNARG_PTR, column("kernarg_base"))
    wg_ids = np.array([ctx.wg_id for ctx in contexts], dtype=np.uint32)
    for dim in range(max(1, min(dims, 3))):
        sgpr[:, SGPR_WORKGROUP_ID_X + dim] = wg_ids[:, dim]
        vgpr[dim] = local_ids[dim]
