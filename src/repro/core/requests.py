"""Frozen, versioned, JSON-round-trippable request objects.

Every way of running a simulation — ``Session.run/.suite/.sweep``, the
``repro`` CLI, the parallel-pool :class:`~repro.harness.parallel.Job`,
and the ``repro serve`` daemon's HTTP endpoints — goes through exactly
one of three request objects:

* :class:`RunRequest`   — one (workload, ISA) cell;
* :class:`SuiteRequest` — the full workload x ISA matrix;
* :class:`SweepRequest` — a design-space sweep over config axes.

A request is a frozen dataclass that round-trips losslessly through JSON
(:meth:`to_json` / :meth:`from_json`) inside a versioned envelope::

    {"api": "repro-api/1", "kind": "run", "workload": "lulesh", ...}

so local and remote execution share one code path *and* one schema.
Config travels either as the full nested :meth:`GpuConfig.to_dict`
payload (``"config"``) or as a dotted-path override mapping applied to
the paper machine via :meth:`GpuConfig.with_overrides`
(``"config_overrides"``) — or both, overrides on top of the explicit
base.  Unknown fields are rejected with close-match suggestions (the
:class:`~repro.obs.metrics.MetricRegistry` difflib pattern) instead of
being silently dropped, and a payload speaking a different protocol
version fails the version gate up front.

Execution lives behind :func:`execute_request`, which dispatches to the
harness (:func:`repro.harness.runner.execute_run_request` /
``execute_suite_request`` /
:func:`repro.explore.sweep.execute_sweep_request`); the
request objects themselves never import the harness at module level, so
they stay importable from anywhere (workers, the daemon, the CLI)
without cycles.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..common.config import GpuConfig, paper_config
from ..common.errors import ReproError
from ..obs.trace import TraceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..explore.space import Axis
    from ..explore.sweep import SweepResults
    from ..harness.parallel import ProgressFn
    from ..harness.runner import SuiteResults, WorkloadRun

#: The wire protocol this tree speaks.  Bump the trailing integer when a
#: request/response payload shape changes incompatibly; a client or
#: journal speaking another version is refused with a clear error
#: instead of deserializing garbage.
API_VERSION = "repro-api/1"

#: The two instruction-set abstractions of the paper.  Canonical home;
#: :mod:`repro.harness.runner` re-exports it.
ISAS = ("hsail", "gcn3")

#: How a cell obtains its dynamic instruction stream (canonical home;
#: re-exported by :mod:`repro.harness.runner`):
#: ``execute`` runs full functional semantics at issue (the default),
#: ``capture`` executes *and* records an ExecTrace,
#: ``replay`` drives the timing model from a stored trace,
#: ``auto`` replays when the trace store has a capture and captures
#: otherwise.
EXECUTION_MODES = ("auto", "execute", "capture", "replay")

_ENGINES = ("", "auto", "scalar", "vector")


class RequestError(ReproError):
    """A malformed, unknown-versioned, or unknown-field request payload."""


def _reject_unknown(payload: Mapping[str, object], known: Sequence[str],
                    kind: str) -> None:
    """Unknown-field gate with close-match suggestions (difflib, the
    MetricRegistry pattern): typos must not silently become defaults."""
    for key in payload:
        if key in known:
            continue
        suggestions = difflib.get_close_matches(key, list(known), n=3,
                                                cutoff=0.6)
        hint = f"; did you mean {', '.join(suggestions)}?" if suggestions else ""
        raise RequestError(
            f"unknown field {key!r} in {kind} request{hint} "
            f"(known: {', '.join(sorted(known))})"
        )


def check_api_version(payload: Mapping[str, object],
                      where: str = "request") -> None:
    """The forward-compat version gate: refuse other protocol versions."""
    version = payload.get("api")
    if version != API_VERSION:
        raise RequestError(
            f"unsupported {where} version {version!r}: this build speaks "
            f"{API_VERSION}"
        )


def _config_from_payload(payload: Mapping[str, object],
                         kind: str) -> GpuConfig:
    """Resolve the request's config: explicit full dict, dotted-path
    overrides on the paper machine, or both (overrides win)."""
    from ..common.errors import ConfigError

    raw = payload.get("config")
    overrides = payload.get("config_overrides")
    try:
        config = (GpuConfig.from_dict(raw)  # type: ignore[arg-type]
                  if raw is not None else paper_config())
        if overrides:
            if not isinstance(overrides, Mapping):
                raise RequestError(
                    f"config_overrides of a {kind} request must be an "
                    f"object of dotted-path: value pairs"
                )
            config = config.with_overrides(overrides)
    except ConfigError as exc:
        raise RequestError(f"bad config in {kind} request: {exc}") from exc
    return config


def _trace_from_payload(payload: Mapping[str, object]) -> Optional[TraceConfig]:
    raw = payload.get("trace")
    if raw is None:
        return None
    try:
        return TraceConfig.from_payload(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad trace config: {exc}") from exc


def _require_str(payload: Mapping[str, object], name: str,
                 kind: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value:
        raise RequestError(
            f"{kind} request needs a non-empty string {name!r} field"
        )
    return value


class _RequestBase:
    """Shared validation + serialization machinery (not itself a request)."""

    kind = ""

    def _validate_common(self) -> None:
        if self.execution not in EXECUTION_MODES:  # type: ignore[attr-defined]
            raise RequestError(
                f"unknown execution mode "
                f"{self.execution!r}; "  # type: ignore[attr-defined]
                f"expected one of {EXECUTION_MODES}"
            )
        if self.engine not in _ENGINES:  # type: ignore[attr-defined]
            raise RequestError(
                f"unknown engine {self.engine!r}; "  # type: ignore[attr-defined]
                f"expected one of {_ENGINES[1:]} (or '' to keep the "
                f"config's engine)"
            )
        if self.scale <= 0:  # type: ignore[attr-defined]
            raise RequestError("scale must be positive")

    def resolved_config(self) -> GpuConfig:
        """The request config with its per-request engine override folded
        in — the one config every execution path must simulate under."""
        config = self.config  # type: ignore[attr-defined]
        engine = self.engine  # type: ignore[attr-defined]
        if engine and engine != config.engine:
            config = config.with_overrides({"engine": engine})
        return config

    def _envelope(self) -> Dict[str, object]:
        return {"api": API_VERSION, "kind": self.kind}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise RequestError(f"request is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise RequestError("request payload must be a JSON object")
        return cls.from_payload(payload)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RunRequest(_RequestBase):
    """One (workload, ISA) simulation cell; the atom every other request
    decomposes into and the unit the parallel pool and the daemon's
    batch scheduler move around."""

    workload: str
    isa: str
    scale: float = 1.0
    seed: int = 7
    config: GpuConfig = field(default_factory=paper_config)
    trace: Optional[TraceConfig] = None
    execution: str = "execute"
    trace_dir: Optional[str] = None
    #: cycle-engine override ("auto" | "scalar" | "vector"); "" keeps
    #: whatever ``config.engine`` already says.
    engine: str = ""

    kind = "run"
    _FIELDS = ("api", "kind", "workload", "isa", "scale", "seed", "config",
               "config_overrides", "trace", "execution", "trace_dir",
               "engine")

    def __post_init__(self) -> None:
        if self.isa not in ISAS:
            raise RequestError(
                f"unknown ISA {self.isa!r}; expected one of {ISAS}"
            )
        self._validate_common()

    def to_payload(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({
            "workload": self.workload,
            "isa": self.isa,
            "scale": self.scale,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "execution": self.execution,
            "engine": self.engine,
        })
        if self.trace is not None:
            payload["trace"] = self.trace.to_payload()
        if self.trace_dir is not None:
            payload["trace_dir"] = self.trace_dir
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RunRequest":
        check_api_version(payload)
        _reject_unknown(payload, cls._FIELDS, "run")
        return cls(
            workload=_require_str(payload, "workload", "run"),
            isa=_require_str(payload, "isa", "run"),
            scale=float(payload.get("scale", 1.0)),  # type: ignore[arg-type]
            seed=int(payload.get("seed", 7)),  # type: ignore[arg-type]
            config=_config_from_payload(payload, "run"),
            trace=_trace_from_payload(payload),
            execution=str(payload.get("execution", "execute")),
            trace_dir=(str(payload["trace_dir"])
                       if payload.get("trace_dir") is not None else None),
            engine=str(payload.get("engine", "")),
        )

    def describe(self) -> str:
        return (f"{self.workload}/{self.isa} scale={self.scale:g} "
                f"seed={self.seed}")

    def execute(self, trace_store: "Optional[object]" = None) -> "WorkloadRun":
        """Simulate this cell (the single run entry point)."""
        from ..harness.runner import execute_run_request

        return execute_run_request(self, trace_store=trace_store)


def _names_from_payload(payload: Mapping[str, object], name: str,
                        kind: str) -> Optional[Tuple[str, ...]]:
    raw = payload.get(name)
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or not all(
            isinstance(v, str) for v in raw):
        raise RequestError(
            f"{name!r} of a {kind} request must be a list of strings"
        )
    return tuple(raw)


@dataclass(frozen=True)
class SuiteRequest(_RequestBase):
    """The paper's full (workload x ISA) evaluation matrix."""

    workloads: Optional[Tuple[str, ...]] = None   # None = every workload
    scale: float = 1.0
    seed: int = 7
    config: GpuConfig = field(default_factory=paper_config)
    use_cache: bool = True
    use_disk_cache: Optional[bool] = None
    cache_dir: Optional[str] = None
    jobs: int = 1
    job_timeout: Optional[float] = None
    trace: Optional[TraceConfig] = None
    execution: str = "execute"
    trace_dir: Optional[str] = None
    engine: str = ""

    kind = "suite"
    _FIELDS = ("api", "kind", "workloads", "scale", "seed", "config",
               "config_overrides", "use_cache", "use_disk_cache",
               "cache_dir", "jobs", "job_timeout", "trace", "execution",
               "trace_dir", "engine")

    def __post_init__(self) -> None:
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        self._validate_common()

    def to_payload(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({
            "workloads": (list(self.workloads)
                          if self.workloads is not None else None),
            "scale": self.scale,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "use_cache": self.use_cache,
            "jobs": self.jobs,
            "execution": self.execution,
            "engine": self.engine,
        })
        if self.use_disk_cache is not None:
            payload["use_disk_cache"] = self.use_disk_cache
        if self.cache_dir is not None:
            payload["cache_dir"] = self.cache_dir
        if self.job_timeout is not None:
            payload["job_timeout"] = self.job_timeout
        if self.trace is not None:
            payload["trace"] = self.trace.to_payload()
        if self.trace_dir is not None:
            payload["trace_dir"] = self.trace_dir
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "SuiteRequest":
        check_api_version(payload)
        _reject_unknown(payload, cls._FIELDS, "suite")
        timeout = payload.get("job_timeout")
        disk = payload.get("use_disk_cache")
        return cls(
            workloads=_names_from_payload(payload, "workloads", "suite"),
            scale=float(payload.get("scale", 1.0)),  # type: ignore[arg-type]
            seed=int(payload.get("seed", 7)),  # type: ignore[arg-type]
            config=_config_from_payload(payload, "suite"),
            use_cache=bool(payload.get("use_cache", True)),
            use_disk_cache=(bool(disk) if disk is not None else None),
            cache_dir=(str(payload["cache_dir"])
                       if payload.get("cache_dir") is not None else None),
            jobs=int(payload.get("jobs", 1)),  # type: ignore[arg-type]
            job_timeout=(float(timeout)  # type: ignore[arg-type]
                         if timeout is not None else None),
            trace=_trace_from_payload(payload),
            execution=str(payload.get("execution", "execute")),
            trace_dir=(str(payload["trace_dir"])
                       if payload.get("trace_dir") is not None else None),
            engine=str(payload.get("engine", "")),
        )

    def describe(self) -> str:
        names = ",".join(self.workloads) if self.workloads else "all"
        return f"suite[{names}] scale={self.scale:g} seed={self.seed}"

    def cells(self) -> Tuple[RunRequest, ...]:
        """The matrix decomposed into its per-cell :class:`RunRequest`\\ s
        (the daemon's batch scheduler feeds on these)."""
        from ..workloads import all_workloads

        names = (self.workloads if self.workloads is not None
                 else tuple(w.name for w in all_workloads()))
        return tuple(
            RunRequest(workload=name, isa=isa, scale=self.scale,
                       seed=self.seed, config=self.config, trace=self.trace,
                       execution=self.execution, trace_dir=self.trace_dir,
                       engine=self.engine)
            for name in names for isa in ISAS
        )

    def execute(self, progress: "Optional[ProgressFn]" = None) -> "SuiteResults":
        """Run the matrix (the single suite entry point)."""
        from ..harness.runner import execute_suite_request

        return execute_suite_request(self, progress=progress)


@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """A design-space sweep over dotted ``GpuConfig`` axes."""

    axes: Tuple[Axis, ...] = ()
    mode: str = "grid"
    workloads: Optional[Tuple[str, ...]] = None
    isas: Tuple[str, ...] = ISAS
    scale: float = 0.5
    seed: int = 7
    config: GpuConfig = field(default_factory=paper_config)
    jobs: int = 1
    use_disk_cache: Optional[bool] = None
    cache_dir: Optional[str] = None
    job_timeout: Optional[float] = None
    resume: Union[bool, str] = False
    sweeps_dir: Optional[str] = None
    execution: str = "auto"
    trace_dir: Optional[str] = None
    verify_replay: bool = True
    engine: str = ""

    kind = "sweep"
    _FIELDS = ("api", "kind", "axes", "mode", "workloads", "isas", "scale",
               "seed", "config", "config_overrides", "jobs",
               "use_disk_cache", "cache_dir", "job_timeout", "resume",
               "sweeps_dir", "execution", "trace_dir", "verify_replay",
               "engine")

    def __post_init__(self) -> None:
        if not self.axes:
            raise RequestError("a sweep request needs at least one axis")
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "isas", tuple(self.isas))
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.mode not in ("grid", "ofat"):
            raise RequestError(
                f"unknown sweep mode {self.mode!r} (grid or ofat)"
            )
        for isa in self.isas:
            if isa not in ISAS:
                raise RequestError(
                    f"unknown ISA {isa!r}; expected one of {ISAS}"
                )
        if self.execution not in ("auto", "execute", "replay"):
            raise RequestError(
                f"unknown sweep execution mode {self.execution!r}; "
                "expected 'auto', 'execute', or 'replay'"
            )
        if self.engine not in _ENGINES:
            raise RequestError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{_ENGINES[1:]} (or '' to keep the config's engine)"
            )
        if self.scale <= 0:
            raise RequestError("scale must be positive")

    def to_payload(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({
            "axes": [axis.describe() for axis in self.axes],
            "mode": self.mode,
            "workloads": (list(self.workloads)
                          if self.workloads is not None else None),
            "isas": list(self.isas),
            "scale": self.scale,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "jobs": self.jobs,
            "resume": self.resume,
            "execution": self.execution,
            "verify_replay": self.verify_replay,
            "engine": self.engine,
        })
        if self.use_disk_cache is not None:
            payload["use_disk_cache"] = self.use_disk_cache
        if self.cache_dir is not None:
            payload["cache_dir"] = self.cache_dir
        if self.job_timeout is not None:
            payload["job_timeout"] = self.job_timeout
        if self.sweeps_dir is not None:
            payload["sweeps_dir"] = self.sweeps_dir
        if self.trace_dir is not None:
            payload["trace_dir"] = self.trace_dir
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "SweepRequest":
        from ..common.errors import ConfigError
        from ..explore.space import Axis

        check_api_version(payload)
        _reject_unknown(payload, cls._FIELDS, "sweep")
        raw_axes = payload.get("axes")
        if not isinstance(raw_axes, (list, tuple)) or not raw_axes:
            raise RequestError(
                "sweep request needs a non-empty 'axes' list of "
                "path=v1,v2,... specs"
            )
        try:
            axes = tuple(
                axis if isinstance(axis, Axis) else Axis.parse(str(axis))
                for axis in raw_axes
            )
        except ConfigError as exc:
            raise RequestError(f"bad sweep axis: {exc}") from exc
        resume = payload.get("resume", False)
        if not isinstance(resume, (bool, str)):
            raise RequestError("'resume' must be a boolean or a sweep id")
        timeout = payload.get("job_timeout")
        disk = payload.get("use_disk_cache")
        isas = _names_from_payload(payload, "isas", "sweep")
        return cls(
            axes=axes,
            mode=str(payload.get("mode", "grid")),
            workloads=_names_from_payload(payload, "workloads", "sweep"),
            isas=isas if isas is not None else ISAS,
            scale=float(payload.get("scale", 0.5)),  # type: ignore[arg-type]
            seed=int(payload.get("seed", 7)),  # type: ignore[arg-type]
            config=_config_from_payload(payload, "sweep"),
            jobs=int(payload.get("jobs", 1)),  # type: ignore[arg-type]
            use_disk_cache=(bool(disk) if disk is not None else None),
            cache_dir=(str(payload["cache_dir"])
                       if payload.get("cache_dir") is not None else None),
            job_timeout=(float(timeout)  # type: ignore[arg-type]
                         if timeout is not None else None),
            resume=resume,
            sweeps_dir=(str(payload["sweeps_dir"])
                        if payload.get("sweeps_dir") is not None else None),
            execution=str(payload.get("execution", "auto")),
            trace_dir=(str(payload["trace_dir"])
                       if payload.get("trace_dir") is not None else None),
            verify_replay=bool(payload.get("verify_replay", True)),
            engine=str(payload.get("engine", "")),
        )

    def describe(self) -> str:
        axes = " x ".join(axis.describe() for axis in self.axes)
        return f"sweep[{axes}] mode={self.mode} scale={self.scale:g}"

    def execute(self, progress: "Optional[ProgressFn]" = None,
                execute_hook: "Optional[Callable]" = None) -> "SweepResults":
        """Run the sweep (the single sweep entry point)."""
        from ..explore.sweep import execute_sweep_request

        return execute_sweep_request(self, progress=progress,
                                     execute=execute_hook)


@dataclass(frozen=True)
class ShardCell:
    """One (point x workload x ISA) cell inside a shard.

    The overrides are the sweep point's dotted-path edits on the shard's
    base config — order-preserving, because point ids are order-sensitive
    — so a worker rebuilds the exact :class:`GpuConfig` the coordinator
    enumerated without shipping a full config per cell.
    """

    point: str
    workload: str
    isa: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    _FIELDS = ("point", "workload", "isa", "overrides")

    def __post_init__(self) -> None:
        if not self.point or not self.workload:
            raise RequestError("shard cell needs point and workload names")
        if self.isa not in ISAS:
            raise RequestError(
                f"unknown ISA {self.isa!r}; expected one of {ISAS}"
            )
        object.__setattr__(self, "overrides", tuple(
            (str(path), value) for path, value in self.overrides))

    @property
    def key(self) -> str:
        """The coordinator-wide cell identity (``point:workload/isa``)."""
        return f"{self.point}:{self.workload}/{self.isa}"

    def to_payload(self) -> Dict[str, object]:
        return {
            "point": self.point,
            "workload": self.workload,
            "isa": self.isa,
            # JSON objects preserve insertion order across the round trip.
            "overrides": {path: value for path, value in self.overrides},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ShardCell":
        if not isinstance(payload, Mapping):
            raise RequestError("shard cell must be a JSON object")
        _reject_unknown(payload, cls._FIELDS, "shard cell")
        overrides = payload.get("overrides") or {}
        if not isinstance(overrides, Mapping):
            raise RequestError("shard cell overrides must be an object")
        return cls(
            point=_require_str(payload, "point", "shard cell"),
            workload=_require_str(payload, "workload", "shard cell"),
            isa=_require_str(payload, "isa", "shard cell"),
            overrides=tuple(overrides.items()),
        )


@dataclass(frozen=True)
class ShardRequest(_RequestBase):
    """One leased unit of a distributed sweep: cells sharing a functional
    trace fingerprint, so a worker keeps the capture-once-replay-
    everywhere economics of a single-host sweep within the shard.

    Not an executable request kind (it never rides ``POST /v1/run``-style
    endpoints or :func:`parse_request`); it travels inside the
    coordinator's lease protocol (``/v1/dist/*``) under the same
    ``repro-api/1`` envelope discipline.
    """

    shard_id: str = ""
    sweep_id: str = ""
    trace_fp: str = ""
    cells: Tuple[ShardCell, ...] = ()
    scale: float = 0.5
    seed: int = 7
    config: GpuConfig = field(default_factory=paper_config)
    execution: str = "auto"
    engine: str = ""

    kind = "shard"
    _FIELDS = ("api", "kind", "shard_id", "sweep_id", "trace_fp", "cells",
               "scale", "seed", "config", "config_overrides", "execution",
               "engine")

    def __post_init__(self) -> None:
        if not self.shard_id or not self.sweep_id:
            raise RequestError("shard request needs shard_id and sweep_id")
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise RequestError("shard request needs at least one cell")
        self._validate_common()

    def to_payload(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({
            "shard_id": self.shard_id,
            "sweep_id": self.sweep_id,
            "trace_fp": self.trace_fp,
            "cells": [cell.to_payload() for cell in self.cells],
            "scale": self.scale,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "execution": self.execution,
            "engine": self.engine,
        })
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ShardRequest":
        check_api_version(payload)
        _reject_unknown(payload, cls._FIELDS, "shard")
        raw_cells = payload.get("cells")
        if not isinstance(raw_cells, (list, tuple)):
            raise RequestError("shard request needs a 'cells' list")
        return cls(
            shard_id=_require_str(payload, "shard_id", "shard"),
            sweep_id=_require_str(payload, "sweep_id", "shard"),
            trace_fp=str(payload.get("trace_fp", "")),
            cells=tuple(ShardCell.from_payload(c) for c in raw_cells),
            scale=float(payload.get("scale", 0.5)),  # type: ignore[arg-type]
            seed=int(payload.get("seed", 7)),  # type: ignore[arg-type]
            config=_config_from_payload(payload, "shard"),
            execution=str(payload.get("execution", "auto")),
            engine=str(payload.get("engine", "")),
        )

    def describe(self) -> str:
        return (f"shard {self.shard_id} of sweep {self.sweep_id}: "
                f"{len(self.cells)} cell(s)")

    def cell_config(self, cell: ShardCell) -> GpuConfig:
        """The cell's full config: shard base + the point's overrides
        (raises ``ConfigError`` on an impossible geometry, but the
        coordinator only shards valid points)."""
        if not cell.overrides:
            return self.config
        return self.config.with_overrides(dict(cell.overrides))

    def run_request(self, cell: ShardCell,
                    trace_dir: Optional[str] = None) -> RunRequest:
        """The :class:`RunRequest` a worker executes for one cell —
        field-identical to what a single-host sweep would build, so
        statistics cannot drift between distributed and serial runs."""
        return RunRequest(
            workload=cell.workload, isa=cell.isa, scale=self.scale,
            seed=self.seed, config=self.cell_config(cell),
            execution=self.execution, trace_dir=trace_dir,
            engine=self.engine)


#: Lease grant states: a shard to work on, back off and re-poll, or the
#: sweep is complete and the worker should exit.
LEASE_STATES = ("granted", "wait", "done")


@dataclass(frozen=True)
class LeaseGrant:
    """The coordinator's reply to a worker's lease poll."""

    state: str
    lease_id: str = ""
    ttl: float = 0.0
    retry_after: float = 0.0
    shard: Optional[ShardRequest] = None
    #: the coordinator's trace store already holds this shard's trace, so
    #: the worker should sync it in and replay instead of recapturing.
    trace_available: bool = False
    #: the shard was split off another worker's outstanding lease.
    stolen: bool = False

    kind = "lease"
    _FIELDS = ("api", "kind", "state", "lease_id", "ttl", "retry_after",
               "shard", "trace_available", "stolen")

    def __post_init__(self) -> None:
        if self.state not in LEASE_STATES:
            raise RequestError(
                f"unknown lease state {self.state!r}; expected one of "
                f"{LEASE_STATES}"
            )
        if self.state == "granted" and self.shard is None:
            raise RequestError("a granted lease needs a shard")

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "api": API_VERSION,
            "kind": self.kind,
            "state": self.state,
            "lease_id": self.lease_id,
            "ttl": self.ttl,
            "retry_after": self.retry_after,
            "trace_available": self.trace_available,
            "stolen": self.stolen,
        }
        if self.shard is not None:
            payload["shard"] = self.shard.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "LeaseGrant":
        check_api_version(payload, where="lease")
        _reject_unknown(payload, cls._FIELDS, "lease")
        raw_shard = payload.get("shard")
        return cls(
            state=_require_str(payload, "state", "lease"),
            lease_id=str(payload.get("lease_id", "")),
            ttl=float(payload.get("ttl", 0.0)),  # type: ignore[arg-type]
            retry_after=float(payload.get("retry_after", 0.0)),  # type: ignore[arg-type]
            shard=(ShardRequest.from_payload(raw_shard)  # type: ignore[arg-type]
                   if raw_shard is not None else None),
            trace_available=bool(payload.get("trace_available", False)),
            stolen=bool(payload.get("stolen", False)),
        )


#: Request kinds the wire accepts, mapped to their classes.
REQUEST_KINDS: Dict[str, type] = {
    "run": RunRequest,
    "suite": SuiteRequest,
    "sweep": SweepRequest,
}

AnyRequest = Union[RunRequest, SuiteRequest, SweepRequest]


def parse_request(payload: Mapping[str, object],
                  expect_kind: Optional[str] = None) -> AnyRequest:
    """One request object from its envelope payload, dispatched on
    ``kind`` (version-gated, unknown fields and kinds rejected)."""
    check_api_version(payload)
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in REQUEST_KINDS:
        known = ", ".join(sorted(REQUEST_KINDS))
        raise RequestError(
            f"unknown request kind {kind!r}; expected one of: {known}"
        )
    if expect_kind is not None and kind != expect_kind:
        raise RequestError(
            f"endpoint expects a {expect_kind!r} request, got {kind!r}"
        )
    return REQUEST_KINDS[kind].from_payload(payload)  # type: ignore[attr-defined]


def parse_request_json(text: Union[str, bytes],
                       expect_kind: Optional[str] = None) -> AnyRequest:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise RequestError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise RequestError("request payload must be a JSON object")
    return parse_request(payload, expect_kind=expect_kind)


def execute_request(request: AnyRequest,
                    progress: "Optional[ProgressFn]" = None):
    """THE execution entry point: every surface (Session, CLI, pool,
    daemon) funnels through here, so engine/execution/trace_dir can
    never drift between paths."""
    if isinstance(request, RunRequest):
        return request.execute()
    if isinstance(request, SuiteRequest):
        return request.execute(progress=progress)
    if isinstance(request, SweepRequest):
        return request.execute(progress=progress)
    raise RequestError(
        f"not a request object: {type(request).__name__}"
    )


def request_fields(kind: str) -> Tuple[str, ...]:
    """The wire fields a request kind accepts (for docs and tooling)."""
    cls = REQUEST_KINDS[kind]
    return tuple(cls._FIELDS)  # type: ignore[attr-defined]


__all__ = [
    "API_VERSION",
    "EXECUTION_MODES",
    "ISAS",
    "AnyRequest",
    "LEASE_STATES",
    "LeaseGrant",
    "REQUEST_KINDS",
    "RequestError",
    "RunRequest",
    "ShardCell",
    "ShardRequest",
    "SuiteRequest",
    "SweepRequest",
    "check_api_version",
    "execute_request",
    "parse_request",
    "parse_request_json",
    "request_fields",
]
