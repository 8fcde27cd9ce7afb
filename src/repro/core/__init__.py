"""Core public API: dual-ISA kernel compilation and execution.

The paper's central artifact is the ability to run the *same* kernel
source through both instruction-set abstractions on the same machine
model.  :class:`Session` is the front door: ``Session().compile(ir)``
produces the HSAIL and GCN3 forms of a kernel, ``.run()``/``.suite()``
simulate them cycle by cycle (optionally recording a
:class:`repro.obs.TraceData`); :mod:`repro.timing.funcsim` executes
either ISA functionally.  Every execution surface — the Session
methods, the CLI, the dist workers, and the ``repro serve`` daemon —
goes through the frozen, JSON-round-trippable request objects in
:mod:`repro.core.requests`.
"""

from .api import DualKernel, Session
from .requests import (
    API_VERSION,
    RequestError,
    RunRequest,
    SuiteRequest,
    SweepRequest,
    parse_request,
    parse_request_json,
)

__all__ = [
    "API_VERSION",
    "DualKernel",
    "RequestError",
    "RunRequest",
    "Session",
    "SuiteRequest",
    "SweepRequest",
    "parse_request",
    "parse_request_json",
    "run_dispatch_functional",
]


def __getattr__(name: str):
    """``run_dispatch_functional`` is re-exported lazily, so importing
    :mod:`repro.core` does not load the timing package for it."""
    if name == "run_dispatch_functional":
        from ..timing.funcsim import run_dispatch_functional
        return run_dispatch_functional
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
