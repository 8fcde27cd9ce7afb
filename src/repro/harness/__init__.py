"""Experiment harness: the cell runner, forked timed cells, result cache,
figure generators, hardware proxy.  The (workload x ISA) matrix runs
through the sweep ledger (:func:`repro.explore.sweep.execute_suite_request`)."""

from .cache import ResultCache, job_fingerprint, source_tree_stamp
from .figures import ALL_FIGURES
from .hardware_model import correlate, hardware_cycles, table07_rows
from .parallel import Job, JobEvent
from .runner import (
    SuiteResults,
    WorkloadRun,
    clear_suite_cache,
    execute_run_request,
    run_workload,
)

__all__ = [
    "ALL_FIGURES",
    "Job",
    "JobEvent",
    "ResultCache",
    "SuiteResults",
    "WorkloadRun",
    "clear_suite_cache",
    "correlate",
    "execute_run_request",
    "hardware_cycles",
    "job_fingerprint",
    "run_workload",
    "source_tree_stamp",
    "table07_rows",
]
