"""Design-space exploration: declarative sweeps over ``GpuConfig`` axes.

The paper's claims are sensitivity statements evaluated at a single
Table 4 point; this package turns the parallel, cached runner into a
design-space machine:

* :mod:`~repro.explore.space` — :class:`Axis` / :class:`Grid` /
  :class:`OneFactorAtATime` enumerate frozen, eagerly-validated config
  variants (deduplicated by fingerprint);
* :mod:`~repro.explore.sweep` — :class:`SweepLedger` owns a sweep's
  resumable JSONL journal, caches and per-point failure isolation;
  :func:`execute_sweep_request` fans its live points x workloads x ISAs
  through the process pool, and :func:`execute_suite_request` runs the
  paper matrix as the one-point sweep over zero axes;
* :mod:`~repro.explore.analyze` — tornado tables, response curves,
  threshold detection, and CSV/JSON/markdown export.

Entry points: ``Session.sweep(...)`` and the ``repro sweep`` CLI.
"""

from .analyze import (
    DEFAULT_RESPONSE,
    curve,
    curve_report,
    monotonicity,
    points_report,
    response_value,
    threshold,
    tornado,
    write_csv,
    write_json,
    write_markdown,
    write_text,
)
from .space import Axis, Grid, OneFactorAtATime, SweepPoint, build_space, parse_value
from .sweep import (
    PointResult,
    SweepJournal,
    SweepLedger,
    SweepResults,
    default_sweeps_dir,
    execute_suite_request,
    execute_sweep_request,
    sweep_fingerprint,
)

__all__ = [
    "Axis",
    "DEFAULT_RESPONSE",
    "Grid",
    "OneFactorAtATime",
    "PointResult",
    "SweepJournal",
    "SweepLedger",
    "SweepPoint",
    "SweepResults",
    "build_space",
    "curve",
    "curve_report",
    "default_sweeps_dir",
    "execute_suite_request",
    "execute_sweep_request",
    "monotonicity",
    "parse_value",
    "points_report",
    "response_value",
    "sweep_fingerprint",
    "threshold",
    "tornado",
    "write_csv",
    "write_json",
    "write_markdown",
    "write_text",
]
