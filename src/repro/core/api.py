"""The public API: one :class:`Session` object in front of the pipeline.

A session binds the knobs that must agree across an experiment — the
:class:`~repro.common.config.GpuConfig`, finalizer options, and trace
settings — and exposes the three things users do:

* :meth:`Session.compile` — DSL kernel IR -> HSAIL (the IL) + GCN3 (the
  machine ISA) as one :class:`DualKernel`;
* :meth:`Session.run` — simulate one registered workload under one ISA,
  optionally recording a cycle-level trace
  (:class:`repro.obs.TraceConfig`);
* :meth:`Session.suite` — the paper's full (workload x ISA) matrix with
  caching and ``jobs``-worker fan-out.

Since the request-object redesign, ``Session.run/.suite/.sweep`` are
thin *builders*: each assembles a frozen, JSON-round-trippable request
object (:class:`repro.core.requests.RunRequest` /
:class:`~repro.core.requests.SuiteRequest` /
:class:`~repro.core.requests.SweepRequest`) and calls its ``execute()``
— the exact same path the CLI, the dist workers, and the ``repro
serve`` daemon take.  ``session.build_run_request(...)`` et al. expose the
request without executing it (e.g. to POST it to a daemon)::

    from repro.core import Session

    session = Session(small_config(2))
    dual = session.compile(build_saxpy())
    run = session.run("bitonic", "gcn3", trace=TraceConfig())
    results = session.suite(scale=0.5, jobs=4)
    request = session.build_run_request("bitonic", "gcn3")  # -> wire JSON
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..finalizer.finalize import FinalizeOptions, finalize
from ..gcn3.isa import Gcn3Kernel
from ..hsail.codegen import compile_hsail
from ..hsail.isa import HsailKernel
from ..kernels.ir import KernelIR
from ..obs.host import span
from .requests import RunRequest, SuiteRequest, SweepRequest

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..common.config import GpuConfig
    from ..explore.space import Axis
    from ..explore.sweep import SweepResults
    from ..harness.parallel import ProgressFn
    from ..harness.runner import SuiteResults, WorkloadRun


@dataclass
class DualKernel:
    """The same kernel in both instruction-set abstractions."""

    ir: KernelIR
    hsail: HsailKernel
    gcn3: Gcn3Kernel

    @property
    def name(self) -> str:
        return self.ir.name

    def for_isa(self, isa: str) -> "HsailKernel | Gcn3Kernel":
        if isa == "hsail":
            return self.hsail
        if isa == "gcn3":
            return self.gcn3
        raise ValueError(f"unknown ISA {isa!r}")

    @property
    def expansion_ratio(self) -> float:
        """Static GCN3/HSAIL instruction-count ratio (paper Figure 5 is the
        dynamic analogue)."""
        return self.gcn3.static_instructions / max(1, self.hsail.static_instructions)


def _compile_dual(ir: KernelIR,
                  options: Optional[FinalizeOptions] = None) -> DualKernel:
    """The full two-phase flow: frontend -> HSAIL (BRIG-ready) ->
    finalizer -> GCN3.  Internal; the public door is
    :meth:`Session.compile`."""
    with span("toolchain.codegen"):
        hsail = compile_hsail(ir)
    with span("toolchain.finalize"):
        gcn3 = finalize(hsail, options)
    return DualKernel(ir=ir, hsail=hsail, gcn3=gcn3)


class Session:
    """One configured simulation context; see the module docstring.

    ``config`` defaults to the paper's Table 4 machine and is resolved
    lazily, so compile-only sessions never touch the timing-model
    configuration.
    """

    def __init__(self, config: "Optional[GpuConfig]" = None, *,
                 finalize_options: Optional[FinalizeOptions] = None) -> None:
        self._config = config
        self.finalize_options = finalize_options

    @property
    def config(self) -> "GpuConfig":
        if self._config is None:
            from ..common.config import paper_config

            self._config = paper_config()
        return self._config

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        config = "paper" if self._config is None else self._config.fingerprint()
        return f"Session(config={config})"

    # -- compilation -----------------------------------------------------------

    def compile(self, ir: KernelIR,
                options: Optional[FinalizeOptions] = None) -> DualKernel:
        """Compile kernel IR to both ISAs (``options`` overrides the
        session-level finalizer options for this kernel only)."""
        return _compile_dual(ir, options if options is not None
                             else self.finalize_options)

    # -- request builders ------------------------------------------------------
    # ``**fields`` are the fields of the request dataclass, by name (see
    # :mod:`repro.core.requests` for each one's meaning and default);
    # ``config`` is this session's.  An unknown name fails with a
    # close-match suggestion, exactly like an unknown key on the wire.

    def build_run_request(self, workload: str, isa: str,
                          **fields: object) -> RunRequest:
        """The :class:`RunRequest` that :meth:`run` would execute — build
        it here to serialize it (``request.to_json()``) or POST it to a
        ``repro serve`` daemon instead of executing in-process."""
        return RunRequest.build(workload=workload, isa=isa,
                                config=self.config, **fields)

    def build_suite_request(self, **fields: object) -> SuiteRequest:
        """The :class:`SuiteRequest` that :meth:`suite` would execute."""
        return SuiteRequest.build(config=self.config, **fields)

    def build_sweep_request(self, axes: "Sequence[Axis | str]",
                            **fields: object) -> SweepRequest:
        """The :class:`SweepRequest` that :meth:`sweep` would execute."""
        return SweepRequest.build(axes=axes, config=self.config, **fields)

    # -- simulation ------------------------------------------------------------

    def run(self, workload: str, isa: str, **fields: object) -> "WorkloadRun":
        """Simulate one workload under one ISA; with ``trace`` set (a
        :class:`repro.obs.TraceConfig`), the returned run carries a
        :class:`repro.obs.TraceData` in ``.trace``.

        ``execution`` selects what happens to the instruction stream
        (``"execute"`` | ``"capture"`` | ``"replay"`` | ``"auto"``; see
        :data:`repro.core.requests.EXECUTION_MODES`); non-default modes
        use the trace store (default ``<cache-dir>/traces``).
        ``engine`` overrides the session config's replay-cursor knob for
        this run only; ``None`` keeps it."""
        return self.build_run_request(workload, isa, **fields).execute()

    def suite(self, *, progress: "Optional[ProgressFn]" = None,
              **fields: object) -> "SuiteResults":
        """Run every workload under both ISAs (the paper's evaluation
        matrix) as a one-point :meth:`sweep` with zero axes: the same
        on-disk result cache (each cell written as it finishes) and
        ``jobs``-worker fan-out.  There is no in-process memo: a repeated
        call is served from the disk cache, and ``use_disk_cache=False``
        re-simulates.  Traced suites
        neither read nor write the cache — a cached result has no events
        to replay."""
        return self.build_suite_request(**fields).execute(progress=progress)

    def sweep(self, axes: "Sequence[Axis | str]", *,
              progress: "Optional[ProgressFn]" = None,
              **fields: object) -> "SweepResults":
        """Design-space sweep around this session's config.

        ``axes`` are :class:`repro.explore.Axis` objects or their CLI
        spellings (``"l1i.size_bytes=8k,16k,32k"``); ``mode`` is
        ``"grid"`` or ``"ofat"``.  Points fan out through the same
        forked workers and disk cache as :meth:`suite`, journaled under
        ``.repro_cache/sweeps/<sweep-id>/`` so a killed sweep resumes
        (``resume=True`` or an explicit sweep id) without re-simulating
        completed points.  With the default ``execution="auto"``, each
        workload x ISA x functional-fingerprint group executes semantics
        once (capturing a trace) and every other point replays the trace
        through the timing model — bit-identical statistics, guarded by
        ``verify_replay``.  Sensitivity reports live in
        :mod:`repro.explore.analyze`::

            results = Session().sweep(["l1i.size_bytes=2k,4k,8k,16k"],
                                      workloads=["lulesh"], jobs=4)
            table = tornado(results, "ratio:ifetch_misses")
        """
        return self.build_sweep_request(axes, **fields).execute(
            progress=progress)
