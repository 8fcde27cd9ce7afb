"""Process-wide numpy helpers shared by both ISAs' semantics."""

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

