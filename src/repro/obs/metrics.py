"""The metric registry: every statistic the simulator emits, declared.

Historically the timing model bumped ad-hoc string counters
(``stats.bump("ib_flushes")``); a typo silently created a new counter and
a misspelled lookup silently read zero.  This module formalizes the
vocabulary: each metric is declared once with a kind, a unit, a scope and
a one-line description, and the timing model bumps the declared
:class:`Metric` objects instead of bare strings.

Per-instance counters (one per cache, e.g. ``l1d3_hits``) are declared as
*families* — a regex over the instance names — so lookups like
``WorkloadRun.stat("l1d0_misses")`` validate without enumerating every
hardware instance up front.

The registry is the source of truth for:

* :meth:`repro.harness.runner.WorkloadRun.stat` — unknown names raise
  ``KeyError`` with close-match suggestions instead of returning 0.0;
* the ``repro metrics`` CLI command — a human-readable catalogue;
* the trace round-trip tests — event counts cross-check metric counts;
* which half of the paper a metric belongs to (:class:`MetricClass`).
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional

from ..common.categories import CATEGORY_ORDER


class MetricKind(str, Enum):
    """How a metric accumulates."""

    COUNTER = "counter"            # monotonically bumped integer
    DISTRIBUTION = "distribution"  # bucketed samples (median/percentiles)
    RATIO = "ratio"                # numerator/denominator accumulator
    DERIVED = "derived"            # computed from other metrics at snapshot


class MetricClass(str, Enum):
    """What determines a metric's value.

    A ``trace`` metric is a property of the instruction stream: the
    functional pass records it and the trace's fold
    (:mod:`repro.timing.vector`) computes it, so it is equal under every
    timing configuration.  A ``timing`` metric exists only once the CU
    and memory model time that stream; the cycle model computes exactly
    these and nothing else.
    """

    TRACE = "trace"
    TIMING = "timing"


class MetricScope(str, Enum):
    """The hardware structure a metric is attributed to."""

    DISPATCH = "dispatch"   # one value per kernel launch
    CU = "cu"               # per compute unit (aggregated per dispatch)
    CLUSTER = "cluster"     # per 4-CU cluster (L1I / scalar / L2 caches)
    GPU = "gpu"             # whole-device


@dataclass(frozen=True)
class Metric:
    """One declared statistic."""

    name: str
    kind: MetricKind
    unit: str
    scope: MetricScope
    description: str
    metric_class: MetricClass = MetricClass.TIMING
    #: For per-instance families: regex matching the concrete counter
    #: names (e.g. ``l1d\d+_hits``); ``name`` is then the family label.
    pattern: Optional[str] = None

    def matches(self, name: str) -> bool:
        if self.pattern is None:
            return name == self.name
        return re.fullmatch(self.pattern, name) is not None


class MetricRegistry:
    """All declared metrics, queryable by concrete counter name."""

    def __init__(self) -> None:
        self._exact: Dict[str, Metric] = {}
        self._families: List[Metric] = []

    # -- declaration ---------------------------------------------------------

    def declare(
        self,
        name: str,
        kind: MetricKind,
        unit: str,
        scope: MetricScope,
        description: str,
        metric_class: MetricClass = MetricClass.TIMING,
        pattern: Optional[str] = None,
    ) -> Metric:
        metric = Metric(name, kind, unit, scope, description, metric_class,
                        pattern)
        if pattern is None:
            if name in self._exact:
                raise ValueError(f"metric {name!r} declared twice")
            self._exact[name] = metric
        else:
            self._families.append(metric)
        return metric

    def counter(self, name: str, unit: str, scope: MetricScope,
                description: str,
                metric_class: MetricClass = MetricClass.TIMING,
                pattern: Optional[str] = None) -> Metric:
        return self.declare(name, MetricKind.COUNTER, unit, scope,
                            description, metric_class, pattern)

    def derived(self, name: str, unit: str, scope: MetricScope,
                description: str,
                metric_class: MetricClass = MetricClass.TIMING) -> Metric:
        return self.declare(name, MetricKind.DERIVED, unit, scope, description,
                            metric_class)

    # -- lookup ----------------------------------------------------------------

    def find(self, name: str) -> Optional[Metric]:
        """The metric a concrete counter name belongs to, or None."""
        metric = self._exact.get(name)
        if metric is not None:
            return metric
        for family in self._families:
            if family.matches(name):
                return family
        return None

    def known(self, name: str) -> bool:
        return self.find(name) is not None

    def suggest(self, name: str, extra: Iterable[str] = ()) -> List[str]:
        """Close matches for a misspelled metric name."""
        candidates = set(self._exact)
        candidates.update(f.name for f in self._families)
        candidates.update(extra)
        return difflib.get_close_matches(name, sorted(candidates), n=3,
                                         cutoff=0.6)

    def __iter__(self) -> Iterator[Metric]:
        yield from sorted(self._exact.values(), key=lambda m: m.name)
        yield from sorted(self._families, key=lambda m: m.name)

    def __len__(self) -> int:
        return len(self._exact) + len(self._families)


#: The process-wide registry every simulator structure declares into.
METRICS = MetricRegistry()

_D = MetricScope.DISPATCH
_CU = MetricScope.CU
_CL = MetricScope.CLUSTER
_G = MetricScope.GPU
_TRACE = MetricClass.TRACE

# -- core pipeline ------------------------------------------------------------

CYCLES = METRICS.counter(
    "cycles", "cycles", _D,
    "GPU clock cycles from dispatch start to last workgroup retirement")
DYNAMIC_INSTRUCTIONS = METRICS.counter(
    "dynamic_instructions", "instructions", _D,
    "wavefront instructions issued (one per 64-lane wavefront issue)",
    _TRACE)
WORKGROUPS_DISPATCHED = METRICS.counter(
    "workgroups_dispatched", "workgroups", _D,
    "workgroups placed on compute units by the command processor", _TRACE)
BARRIERS = METRICS.counter(
    "barriers", "events", _CU,
    "workgroup barrier releases (all resident wavefronts arrived)", _TRACE)
IB_FLUSHES = METRICS.counter(
    "ib_flushes", "events", _CU,
    "instruction-buffer flushes from taken branches and HSAIL "
    "reconvergence-stack jumps (paper Figure 9)", _TRACE)

# -- register file ------------------------------------------------------------

VRF_BANK_CONFLICTS = METRICS.counter(
    "vrf_bank_conflicts", "events", _CU,
    "cycles an operand gather serialized behind another wavefront's "
    "access to the same VRF bank (paper Figure 6)")

# -- memory system ------------------------------------------------------------

VMEM_REQUESTS = METRICS.counter(
    "vmem_requests", "requests", _CU,
    "coalesced vector memory requests issued to the L1D", _TRACE)
VMEM_LINES = METRICS.counter(
    "vmem_lines", "lines", _CU,
    "cache lines touched by vector memory requests (post-coalescing)",
    _TRACE)
SMEM_REQUESTS = METRICS.counter(
    "smem_requests", "requests", _CL,
    "scalar loads issued to the per-cluster scalar cache", _TRACE)
LDS_ACCESSES = METRICS.counter(
    "lds_accesses", "requests", _CU,
    "local-data-share accesses", _TRACE)
IFETCH_REQUESTS = METRICS.counter(
    "ifetch_requests", "requests", _CL,
    "instruction-fetch requests issued to the per-cluster L1I")
IFETCH_MISSES = METRICS.counter(
    "ifetch_misses", "events", _CL,
    "instruction fetches that missed in the L1I (paper Figure 8 driver)")
DRAM_ACCESSES = METRICS.counter(
    "dram_accesses", "lines", _G,
    "line requests that reached DRAM (misses plus write-through traffic)")

# -- per-instance cache families ----------------------------------------------

L1D_HITS = METRICS.counter(
    "l1d<cu>_hits", "events", _CU, "per-CU L1 data cache hits",
    pattern=r"l1d\d+_hits")
L1D_MISSES = METRICS.counter(
    "l1d<cu>_misses", "events", _CU, "per-CU L1 data cache misses",
    pattern=r"l1d\d+_misses")
L1I_HITS = METRICS.counter(
    "l1i<cluster>_hits", "events", _CL, "per-cluster L1 instruction cache hits",
    pattern=r"l1i\d+_hits")
L1I_MISSES = METRICS.counter(
    "l1i<cluster>_misses", "events", _CL,
    "per-cluster L1 instruction cache misses",
    pattern=r"l1i\d+_misses")
SCALAR_HITS = METRICS.counter(
    "sc<cluster>_hits", "events", _CL, "per-cluster scalar cache hits",
    pattern=r"sc\d+_hits")
SCALAR_MISSES = METRICS.counter(
    "sc<cluster>_misses", "events", _CL, "per-cluster scalar cache misses",
    pattern=r"sc\d+_misses")
L2_HITS = METRICS.counter(
    "l2_<cluster>_hits", "events", _CL, "per-cluster unified L2 hits",
    pattern=r"l2_\d+_hits")
L2_MISSES = METRICS.counter(
    "l2_<cluster>_misses", "events", _CL, "per-cluster unified L2 misses",
    pattern=r"l2_\d+_misses")

# -- instruction mix (paper Figure 5) -----------------------------------------

INSTR_BY_CATEGORY = {
    cat: METRICS.counter(
        f"instr_{cat.value}", "instructions", _D,
        f"dynamic {cat.value.upper()} instructions (Figure 5 breakdown)",
        _TRACE)
    for cat in CATEGORY_ORDER
}

# -- derived / probe metrics (snapshot views) ---------------------------------

IPC = METRICS.derived(
    "ipc", "instructions/cycle", _D,
    "dynamic_instructions / cycles (paper Figure 11)")
REUSE_DISTANCE_MEDIAN = METRICS.derived(
    "reuse_distance_median", "instructions", _D,
    "median dynamic instructions between accesses to the same vector "
    "register (paper Figure 7)", _TRACE)
REUSE_DISTANCE_MEAN = METRICS.derived(
    "reuse_distance_mean", "instructions", _D,
    "mean register reuse distance", _TRACE)
READ_UNIQUENESS = METRICS.derived(
    "read_uniqueness", "ratio", _D,
    "unique lane values / active lanes over sampled VRF reads "
    "(paper Figure 10)", _TRACE)
WRITE_UNIQUENESS = METRICS.derived(
    "write_uniqueness", "ratio", _D,
    "unique lane values / active lanes over sampled VRF writes", _TRACE)
SIMD_UTILIZATION = METRICS.derived(
    "simd_utilization", "ratio", _D,
    "active lanes / 64 over VALU issues (divergence proxy)", _TRACE)
