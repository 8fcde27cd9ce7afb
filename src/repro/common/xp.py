"""Array-module seam for the vectorized replay engine.

The vector engine (:mod:`repro.timing.vector`) is written against a small,
numpy-shaped vocabulary of array operations — ``asarray``, ``compress``,
``cumsum``, ``repeat``, ``bincount``, a stable ``argsort`` and elementwise
arithmetic — obtained through :func:`get_array_module` and threaded
through its functions as a local ``xp`` parameter rather than by
importing numpy directly.  numpy is a hard dependency
(``pyproject.toml``) and the only backend.
"""

from __future__ import annotations

import numpy as _numpy

_QUIET_NUMERIC = False


def ensure_quiet_numeric() -> None:
    """Switch numpy's floating-point error state to ``ignore``, once.

    The semantics engines intentionally divide by zero, overflow, and
    produce NaN/Inf exactly the way the modeled hardware does, and they
    do it on every ALU instruction.  Wrapping each helper in
    ``np.errstate(all="ignore")`` costs two ``seterr`` round trips per
    dynamic instruction — more than the guarded arithmetic itself — so
    the executors flip the process-wide state here instead, at
    construction.  Idempotent.
    """
    global _QUIET_NUMERIC
    if _QUIET_NUMERIC:
        return
    _numpy.seterr(all="ignore")
    _QUIET_NUMERIC = True


def backend_name(*_ignored: object) -> str:
    """Provenance constant for ``benchmarks/e2e/run.py``'s full-mode
    header; nothing in ``src/`` may call it, and the next ``benchmark``
    PR drops the import and this function with it."""
    return "numpy"


def get_array_module():
    """The array module the vector engine computes with (numpy)."""
    return _numpy


def tolist(a) -> list:
    """Normalize an array (or an already-plain list) to a Python list."""
    if isinstance(a, list):
        return a
    if hasattr(a, "tolist"):
        return a.tolist()
    return list(a)


# -- whole-wavefront mask kernel ---------------------------------------


def pack_mask(mask) -> int:
    """bool[64] lane vector -> 64-bit execution mask."""
    return int.from_bytes(
        _numpy.packbits(mask, bitorder="little").tobytes(), "little"
    )
