"""Code-object loader.

Places kernel code into the simulated address space so instruction fetch
has real addresses to miss on:

* GCN3 kernels occupy their encoded byte size (variable-length
  instructions; see :mod:`repro.gcn3.encoding`).
* HSAIL kernels are BRIG data structures that hardware could not fetch;
  following the gem5 approximation the paper describes (§III.C.3), the
  loader maps a fixed 8 bytes per instruction and the fetch model indexes
  it by ``8 * instruction_index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from ..gcn3.isa import Gcn3Kernel
from ..hsail.isa import HsailKernel
from .memory import Segment, SegmentAllocator

AnyKernel = Union[HsailKernel, Gcn3Kernel]


@dataclass
class LoadedKernel:
    """A kernel mapped into the address space."""

    kernel: AnyKernel
    code_base: int
    code_bytes: int


class CodeObjectLoader:
    """Maps kernels into memory, one region per unique kernel."""

    def __init__(self, allocator: SegmentAllocator) -> None:
        self.allocator = allocator
        self._loaded: Dict[int, LoadedKernel] = {}

    def load(self, kernel: AnyKernel) -> LoadedKernel:
        """Load (or return the already-loaded mapping of) a kernel."""
        key = id(kernel)
        if key in self._loaded:
            return self._loaded[key]
        if isinstance(kernel, Gcn3Kernel):
            if not kernel.pc_of_index:
                kernel.compute_layout()
            size = kernel.code_bytes
            base = self.allocator.alloc(max(size, 4), Segment.READONLY, align=256,
                                        tag=f"code:{kernel.name}")
            kernel.code_base = base
            try:
                from ..gcn3.encoding import encode_kernel

                image = encode_kernel(kernel)
                self.allocator.memory.write_block(base, image)
            except ImportError:  # encoder optional for timing purposes
                pass
        else:
            size = kernel.code_bytes
            base = self.allocator.alloc(max(size, 8), Segment.READONLY, align=256,
                                        tag=f"code:{kernel.name}")
        loaded = LoadedKernel(kernel=kernel, code_base=base, code_bytes=size)
        self._loaded[key] = loaded
        return loaded
