"""Provenance constant for ``benchmarks/e2e/run.py``'s full-mode header.

The time-warp engine is gone (PR 12); the scan dispatcher in
``timing/gpu.py`` is the only one.  Nothing in ``src/`` may call this;
the next ``benchmark`` PR drops the import and this file with it.
"""


def resolve_timing(*_ignored: object) -> str:
    return "scan"
