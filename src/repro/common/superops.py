"""Provenance constant for ``benchmarks/e2e/run.py``'s full-mode header.

The functional pass takes one compiled step per instruction
(:mod:`repro.timing.funcsim`); there is no semantics engine to pick.
Nothing in ``src/`` may call this; the next ``benchmark`` PR drops the
import and this file with it.
"""


def resolve_semantics(*_ignored: object) -> str:
    return "step"
