"""Declarative design-space specs: axes over nested ``GpuConfig`` fields.

An :class:`Axis` names one dotted configuration path (``"l1i.size_bytes"``,
``"cu.vrf_banks"``) and the values to try; :class:`Grid` takes the full
cartesian product of its axes and :class:`OneFactorAtATime` varies each
axis alone against the base configuration (the classic sensitivity-study
layout).  Enumeration goes through
:meth:`~repro.common.config.GpuConfig.with_overrides`, so every point is
a frozen, eagerly re-validated config variant: an impossible geometry is
caught here and carried as a marked-invalid :class:`SweepPoint` (the
sweep journals it as failed instead of aborting), and duplicate points —
e.g. an axis value equal to the base value under one-factor-at-a-time —
are deduplicated by :meth:`GpuConfig.fingerprint`.

Axis value strings accept the CLI shorthand ``8k``/``2m`` for sizes,
``true``/``false`` for booleans, and plain int/float literals::

    Axis.parse("l1i.size_bytes=8k,16k,32k,64k")
    Axis("cu.vrf_banks", (2, 4, 8))
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.config import GpuConfig
from ..common.errors import ConfigError

#: size-suffix multipliers for axis value shorthand ("8k" -> 8192).
_SIZE_SUFFIXES = {"k": 1024, "m": 1024 * 1024, "g": 1024 * 1024 * 1024}


def parse_value(text: str) -> object:
    """One axis value from its CLI spelling.

    ``8k``/``2m`` are binary sizes, ``true``/``false`` booleans, then
    int and float literals; anything else raises :class:`ConfigError`
    (config fields are numeric or boolean — a typo should not silently
    become a string that fails deep inside ``dataclasses.replace``).
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty axis value")
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered[-1] in _SIZE_SUFFIXES:
        head = lowered[:-1]
        try:
            return int(float(head) * _SIZE_SUFFIXES[lowered[-1]])
        except ValueError:
            raise ConfigError(f"bad size literal {text!r}") from None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"bad axis value {text!r} (expected int, float, true/false, "
            f"or a size like 16k)"
        ) from None


def format_value(value: object) -> str:
    """Compact inverse of :func:`parse_value` for point ids (``8192`` of
    a ``*_bytes`` field still prints as ``8192`` — ids must be exact)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Axis:
    """One swept configuration parameter."""

    path: str                     # dotted GpuConfig field path
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigError("axis needs a non-empty path")
        if not self.values:
            raise ConfigError(f"axis {self.path!r} needs at least one value")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ConfigError(f"axis {self.path!r} has duplicate values")

    @classmethod
    def parse(cls, spec: str) -> "Axis":
        """From the CLI form ``path=v1,v2,...`` (``l1i.size_bytes=8k,16k``)."""
        path, sep, rest = spec.partition("=")
        if not sep or not path.strip():
            raise ConfigError(
                f"bad axis spec {spec!r}: expected path=v1,v2,... "
                f"(e.g. l1i.size_bytes=8k,16k,32k)"
            )
        values = tuple(parse_value(v) for v in rest.split(","))
        return cls(path=path.strip(), values=values)

    def describe(self) -> str:
        return f"{self.path}={','.join(format_value(v) for v in self.values)}"


@dataclass(frozen=True)
class SweepPoint:
    """One enumerated configuration variant.

    ``config`` is the validated frozen :class:`GpuConfig`; a point whose
    overrides violate a config invariant instead carries ``error`` (and
    ``config=None``) so the sweep can journal it as failed without ever
    touching the timing model.
    """

    overrides: Tuple[Tuple[str, object], ...]
    config: Optional[GpuConfig]
    error: Optional[str] = None

    @property
    def point_id(self) -> str:
        """Stable, human-readable id: ``l1i.size_bytes=8192+cu.vrf_banks=8``
        (or ``base`` for the all-defaults point)."""
        if not self.overrides:
            return "base"
        return "+".join(f"{p}={format_value(v)}" for p, v in self.overrides)

    @property
    def valid(self) -> bool:
        return self.error is None

    def fingerprint(self) -> Optional[str]:
        return self.config.fingerprint() if self.config is not None else None

    def to_dict(self) -> "Dict[str, object]":
        return {
            "point_id": self.point_id,
            "overrides": {p: v for p, v in self.overrides},
            "config_fingerprint": self.fingerprint(),
            "error": self.error,
        }


def _make_point(base: GpuConfig,
                overrides: Sequence[Tuple[str, object]]) -> SweepPoint:
    try:
        config = base.with_overrides(dict(overrides))
    except ConfigError as exc:
        return SweepPoint(overrides=tuple(overrides), config=None,
                          error=str(exc))
    return SweepPoint(overrides=tuple(overrides), config=config)


def _dedupe(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Drop points whose *config* repeats an earlier point (first one
    wins); invalid points dedupe on their override tuple instead."""
    seen: set = set()
    out: List[SweepPoint] = []
    for point in points:
        key = point.fingerprint() or ("invalid", point.overrides)
        if key in seen:
            continue
        seen.add(key)
        out.append(point)
    return out


class Grid:
    """Full cartesian product of the axes' values.  With no axes that is
    the one ``base`` point: a suite is a grid over zero axes."""

    mode = "grid"

    def __init__(self, axes: Sequence[Axis]) -> None:
        paths = [axis.path for axis in axes]
        if len(set(paths)) != len(paths):
            raise ConfigError(f"duplicate axis paths: {paths}")
        self.axes: Tuple[Axis, ...] = tuple(axes)

    def points(self, base: GpuConfig) -> List[SweepPoint]:
        combos = product(*(axis.values for axis in self.axes))
        points = [
            _make_point(base, list(zip((a.path for a in self.axes), combo)))
            for combo in combos
        ]
        return _dedupe(points)

    def describe(self) -> str:
        return " x ".join(axis.describe() for axis in self.axes)


class OneFactorAtATime:
    """The base point plus each axis varied alone (others at base).

    The cheap classic for tornado-style sensitivity: ``1 + sum(len(axis))``
    simulated points instead of the grid's product (values equal to the
    base collapse into the base point via fingerprint dedup).
    """

    mode = "ofat"

    def __init__(self, axes: Sequence[Axis]) -> None:
        # Same validation as the grid: unique paths.
        self.axes = Grid(axes).axes

    def points(self, base: GpuConfig) -> List[SweepPoint]:
        points = [SweepPoint(overrides=(), config=base)]
        for axis in self.axes:
            for value in axis.values:
                points.append(_make_point(base, [(axis.path, value)]))
        return _dedupe(points)

    def describe(self) -> str:
        return " | ".join(axis.describe() for axis in self.axes)


def build_space(axes: Sequence[Axis], mode: str = "grid"):
    """Factory used by the CLI: ``mode`` is ``grid`` or ``ofat``."""
    if mode == "grid":
        return Grid(axes)
    if mode == "ofat":
        return OneFactorAtATime(axes)
    raise ConfigError(f"unknown sweep mode {mode!r} (grid or ofat)")
