"""Statistics containers for simulation runs.

A :class:`StatSet` is a flat registry of named counters plus a few typed
sub-structures (distributions for medians, ratio probes for uniqueness).
Kernel launches each get their own StatSet; the harness merges them into a
per-workload aggregate with :meth:`StatSet.merge`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, Iterable, List, Mapping

from .categories import CATEGORY_ORDER, InstrCategory

#: A category and its wire value, both ways, so the payload codec builds
#: no enum member per key.
_CATEGORY_OF = {cat.value: cat for cat in InstrCategory}
_VALUE_OF = {cat: cat.value for cat in InstrCategory}


class Distribution:
    """A sample accumulator supporting count/mean/median/percentiles.

    Samples are bucketed exactly (value -> count) because reuse distances
    and similar metrics repeat heavily; this keeps memory bounded without
    losing the median.
    """

    __slots__ = ("_buckets", "_count", "_total", "_sorted_keys")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = defaultdict(int)
        self._count = 0
        self._total = 0
        #: Cached ``sorted(self._buckets)``; invalidated whenever the
        #: bucket set may change (add/merge) so :meth:`percentile` can
        #: skip the O(n log n) sort on repeated queries.
        self._sorted_keys: "List[int] | None" = None

    def add(self, value: int, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        value = int(value)
        self._buckets[value] += count
        self._count += count
        self._total += value * count
        self._sorted_keys = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Inclusive-rank percentile over the bucketed samples."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} out of range")
        if not self._count:
            return 0.0
        target = max(1, round(p / 100.0 * self._count))
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._buckets)
        seen = 0
        for value in keys:
            seen += self._buckets[value]
            if seen >= target:
                return float(value)
        return float(keys[-1])

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def merge(self, other: "Distribution") -> None:
        for value, count in other._buckets.items():
            self._buckets[value] += count
        self._count += other._count
        self._total += other._total
        self._sorted_keys = None

    def to_payload(self) -> Dict[str, int]:
        """JSON-friendly bucket map (JSON object keys must be strings)."""
        return {str(value): count for value, count in sorted(self._buckets.items())}

    @classmethod
    def from_payload(cls, payload: Mapping[str, int]) -> "Distribution":
        dist = cls()
        buckets = dist._buckets = defaultdict(
            int, zip(map(int, payload), map(int, payload.values())))
        if len(buckets) < len(payload) or min(buckets.values(), default=1) <= 0:
            raise ValueError("bucket values must be distinct, counts positive")
        dist._count = sum(buckets.values())
        dist._total = sum(map(mul, buckets, buckets.values()))
        return dist


class RatioProbe:
    """Accumulates numerator/denominator pairs (e.g. unique lanes / lanes)."""

    __slots__ = ("numerator", "denominator")

    def __init__(self) -> None:
        self.numerator = 0
        self.denominator = 0

    def add(self, numerator: int, denominator: int) -> None:
        if denominator < 0 or numerator < 0:
            raise ValueError("ratio components must be non-negative")
        self.numerator += numerator
        self.denominator += denominator

    @property
    def value(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0

    def merge(self, other: "RatioProbe") -> None:
        self.numerator += other.numerator
        self.denominator += other.denominator

    def to_payload(self) -> "List[int]":
        return [self.numerator, self.denominator]

    @classmethod
    def from_payload(cls, payload: "Iterable[int]") -> "RatioProbe":
        probe = cls()
        numerator, denominator = payload
        probe.numerator = int(numerator)
        probe.denominator = int(denominator)
        return probe


@dataclass
class StatSet:
    """All statistics collected for one kernel launch (or an aggregate)."""

    counters: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    instructions_by_category: Dict[InstrCategory, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    reuse_distance: Distribution = field(default_factory=Distribution)
    read_uniqueness: RatioProbe = field(default_factory=RatioProbe)
    write_uniqueness: RatioProbe = field(default_factory=RatioProbe)
    simd_utilization: RatioProbe = field(default_factory=RatioProbe)

    def bump(self, name: "str | object", amount: int = 1) -> None:
        """Add to a counter, addressed by name or by a declared
        :class:`repro.obs.metrics.Metric` (preferred: typo-proof)."""
        if not isinstance(name, str):
            name = name.name  # type: ignore[attr-defined]
        self.counters[name] += amount

    def __getitem__(self, name: str) -> int:
        return self.counters.get(name, 0)

    def record_instruction(self, category: InstrCategory, count: int = 1) -> None:
        self.instructions_by_category[category] += count
        self.counters["dynamic_instructions"] += count

    @property
    def dynamic_instructions(self) -> int:
        return self.counters.get("dynamic_instructions", 0)

    @property
    def cycles(self) -> int:
        return self.counters.get("cycles", 0)

    @property
    def ipc(self) -> float:
        return self.dynamic_instructions / self.cycles if self.cycles else 0.0

    def category_breakdown(self) -> "List[tuple[InstrCategory, int]]":
        """Categories in canonical (Figure 5) order, zeros included."""
        return [(cat, self.instructions_by_category.get(cat, 0)) for cat in CATEGORY_ORDER]

    def merge(self, other: "StatSet") -> None:
        """Fold another StatSet into this one (counters add, probes merge)."""
        # Kernel-launch overlap is not modeled, so every counter --
        # including "cycles" -- adds: aggregate runtime is the sum of
        # per-launch cycles.
        for name, value in other.counters.items():
            self.counters[name] += value
        for cat, count in other.instructions_by_category.items():
            self.instructions_by_category[cat] += count
        self.reuse_distance.merge(other.reuse_distance)
        self.read_uniqueness.merge(other.read_uniqueness)
        self.write_uniqueness.merge(other.write_uniqueness)
        self.simd_utilization.merge(other.simd_utilization)

    def to_payload(self) -> "Dict[str, object]":
        """A lossless JSON-friendly encoding (inverse of :meth:`from_payload`).

        Unlike :meth:`snapshot`, which flattens to derived scalars for
        display, this round-trips every underlying accumulator exactly so
        results can cross process boundaries or live in the on-disk cache.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "by_category": dict(sorted(
                (_VALUE_OF[cat], count)
                for cat, count in self.instructions_by_category.items()
            )),
            "reuse_distance": self.reuse_distance.to_payload(),
            "read_uniqueness": self.read_uniqueness.to_payload(),
            "write_uniqueness": self.write_uniqueness.to_payload(),
            "simd_utilization": self.simd_utilization.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: "Mapping[str, object]") -> "StatSet":
        counters: Mapping = payload.get("counters", {})  # type: ignore[assignment]
        by_category: Mapping = payload.get("by_category", {})  # type: ignore[assignment]
        return cls(
            defaultdict(int, zip(counters, map(int, counters.values()))),
            defaultdict(int, {_CATEGORY_OF[cat]: int(count)
                              for cat, count in by_category.items()}),
            Distribution.from_payload(payload.get("reuse_distance", {})),  # type: ignore[arg-type]
            *(RatioProbe.from_payload(payload.get(name, (0, 0)))  # type: ignore[arg-type]
              for name in ("read_uniqueness", "write_uniqueness", "simd_utilization")),
        )

    def snapshot(self) -> Mapping[str, float]:
        """A flat, JSON-friendly view used by the harness cache."""
        out: Dict[str, float] = dict(self.counters)
        for cat, count in self.instructions_by_category.items():
            out[f"instr_{cat.value}"] = count
        out["reuse_distance_median"] = self.reuse_distance.median
        out["reuse_distance_mean"] = self.reuse_distance.mean
        out["read_uniqueness"] = self.read_uniqueness.value
        out["write_uniqueness"] = self.write_uniqueness.value
        out["simd_utilization"] = self.simd_utilization.value
        out["ipc"] = self.ipc
        return out


def merge_all(stat_sets: Iterable[StatSet]) -> StatSet:
    """Merge an iterable of StatSets into a fresh aggregate."""
    total = StatSet()
    for stats in stat_sets:
        total.merge(stats)
    return total
