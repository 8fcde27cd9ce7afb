"""One memo for the tables compiled from a kernel.

Kernels are immutable after finalization, so every table derived from
one (issue descriptors, step table, fetch and bank tables, fold tables,
the atomic flag) is built once and kept on the kernel object itself: it
lives exactly as long as the kernel, and every dispatch and wavefront of
it shares one copy.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


def kernel_memo(kernel: object, key: Hashable, build: Callable[[], T]) -> T:
    """``kernel``'s table named ``key``, built by ``build()`` on first use
    (a hit makes no call: the CU places wavefronts through it)."""
    try:
        return kernel._memo[key]  # type: ignore[attr-defined]
    except (AttributeError, KeyError):
        value = kernel.__dict__.setdefault("_memo", {})[key] = build()
        return value
