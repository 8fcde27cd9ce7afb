"""Frozen, versioned, JSON-round-trippable request objects.

Every way of running a simulation — ``Session.run/.suite/.sweep``, the
``repro`` CLI, the forked workers' :class:`~repro.harness.parallel.Job`,
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
being silently dropped, a wrongly typed value fails as a
:class:`RequestError` naming the field, and a payload speaking a
different protocol version fails the version gate up front.

Each field is declared once, on its dataclass, with :func:`wire`;
:class:`Envelope` derives the accepted keys and both directions of the
JSON mapping from that declaration, so adding or removing a request
field is one dataclass line (plus one argparse flag if the CLI should
set it).

Execution lives behind :func:`execute_request`, which dispatches to the
harness (:func:`repro.harness.runner.execute_run_request` /
:func:`repro.explore.sweep.execute_suite_request` /
:func:`repro.explore.sweep.execute_sweep_request`); the
request objects themselves never import the harness at module level, so
they stay importable from anywhere (workers, the daemon, the CLI)
without cycles.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
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

#: A cell's trace-store policy (canonical home; re-exported by
#: :mod:`repro.harness.runner`).  Every mode replays a recorded trace
#: through the timing model, with bit-identical statistics; they differ
#: only in the store: ``execute`` neither reads nor writes it (the
#: default), ``capture`` writes the trace it records, ``replay`` reads
#: and fails without a stored trace, ``auto`` reads when it can and
#: writes otherwise.
EXECUTION_MODES = ("auto", "execute", "capture", "replay")

_ENGINES = ("", "auto", "scalar", "vector")


class RequestError(ReproError):
    """A malformed, unknown-versioned, or unknown-field request payload."""


def _reject_unknown(payload: Mapping[str, object], known: Sequence[str],
                    what: str) -> None:
    """Unknown-field gate with close-match suggestions (difflib, the
    MetricRegistry pattern): typos must not silently become defaults."""
    for key in payload:
        if key in known:
            continue
        suggestions = difflib.get_close_matches(key, list(known), n=3,
                                                cutoff=0.6)
        hint = f"; did you mean {', '.join(suggestions)}?" if suggestions else ""
        raise RequestError(
            f"unknown field {key!r} in {what}{hint} "
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


# ---- the wire codec ---------------------------------------------------------
# Each envelope declares its fields once, as dataclass fields built by
# wire(); Envelope derives the accepted-key set and both directions of
# the JSON mapping from that declaration (the way timing/replay.py
# derives the trace format from its one stream-field table).

_REQUIRED = object()


def wire(cast: Callable[[object], object], default: object = _REQUIRED, *,
         dump: Optional[Callable[[object], object]] = None,
         sparse: bool = False):
    """Declare one wire field of an :class:`Envelope` dataclass.

    ``cast``    JSON value -> field value; whatever it raises is reported
                as a :class:`RequestError` naming the field.
    ``default`` the field's default (a callable is a default *factory*);
                a field declared without one is required on the wire.  A
                JSON ``null`` is accepted only where the default is None.
    ``dump``    field value -> JSON value, for fields that are not JSON
                as they stand (tuples, configs, nested envelopes).
    ``sparse``  leave the key out of the payload while the value is None.
    """
    metadata = {"cast": cast, "dump": dump, "sparse": sparse}
    if default is _REQUIRED:
        return field(metadata=metadata)
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


def _is(*types: type) -> Callable[[object], object]:
    """A strict cast: the JSON value must already be one of ``types``."""
    def cast(value: object) -> object:
        if not isinstance(value, types):
            raise TypeError(
                f"expected {' or '.join(t.__name__ for t in types)}, got "
                f"{type(value).__name__}")
        return value
    return cast


def _each(item: Callable, into: type = tuple) -> Callable[[object], object]:
    """``item`` over every element of a JSON list."""
    return lambda seq: into(item(x) for x in _is(list, tuple)(seq))


_str = _is(str)
_bool = _is(bool)
_names = _each(_str)


def _axis(raw: object) -> "Axis":
    from ..explore.space import Axis

    return raw if isinstance(raw, Axis) else Axis.parse(_str(raw))


@lru_cache(maxsize=None)
def _schema(cls: type) -> tuple:
    """``(name, cast, dump, sparse, required, nullable)`` per wire field."""
    return tuple(
        (f.name, f.metadata["cast"], f.metadata["dump"],
         f.metadata["sparse"],
         f.default is MISSING and f.default_factory is MISSING,
         f.default is None)
        for f in fields(cls))


def _loads(text: Union[str, bytes]) -> Mapping[str, object]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise RequestError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise RequestError("request payload must be a JSON object")
    return payload


class Envelope:
    """Base of every ``repro-api/1`` wire type: a frozen dataclass whose
    fields are all declared with :func:`wire`."""

    #: the payload's ``kind``; "" marks a bare record that only travels
    #: nested inside another envelope (no ``api``/``kind`` header).
    kind = ""
    noun = "request"

    @classmethod
    def _what(cls) -> str:
        return f"{cls.kind} {cls.noun}".strip()

    @classmethod
    @lru_cache(maxsize=None)
    def wire_fields(cls) -> Tuple[str, ...]:
        """Every key :meth:`from_payload` accepts."""
        names = [f.name for f in fields(cls)]
        if "config" in names:
            names.append("config_overrides")
        return ("api", "kind", *names) if cls.kind else tuple(names)

    @classmethod
    def build(cls, **values: object):
        """Construct from keyword fields; an unknown name fails the way an
        unknown wire key does, with close-match suggestions."""
        _reject_unknown(values, [f.name for f in fields(cls)], cls._what())
        return cls(**values)

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = (
            {"api": API_VERSION, "kind": self.kind} if self.kind else {})
        for name, _cast, dump, sparse, _required, _nullable in _schema(
                type(self)):
            value = getattr(self, name)
            if value is None:
                if sparse:
                    continue
            elif dump is not None:
                value = dump(value)
            payload[name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]):
        what = cls._what()
        if not isinstance(payload, Mapping):
            raise RequestError(f"{what} must be a JSON object")
        if cls.kind:
            check_api_version(payload, what)
        _reject_unknown(payload, cls.wire_fields(), what)

        def convert(name: str, cast: Callable, raw: object) -> object:
            try:
                return cast(raw)
            except (ValueError, TypeError, AttributeError, ReproError) as exc:
                raise RequestError(f"bad {name} in {what}: {exc}") from exc

        values: Dict[str, object] = {}
        for name, cast, _dump, _sparse, required, nullable in _schema(cls):
            raw = payload.get(name)
            if required and raw in (None, ""):
                raise RequestError(f"{what} needs a non-empty {name!r} field")
            if name in payload:
                values[name] = (None if raw is None and nullable
                                else convert(name, cast, raw))
        # Dotted-path overrides edit the explicit config, or the paper
        # machine when the payload carries none.
        overrides = payload.get("config_overrides")
        if overrides is not None:
            base = values.get("config") or paper_config()
            values["config"] = convert(
                "config_overrides",
                lambda edits: base.with_overrides(_is(dict)(edits)),
                overrides)
        return cls(**values)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: Union[str, bytes]):
        return cls.from_payload(_loads(text))


class _RequestBase(Envelope):
    """What the executable requests and the dist shard share: the
    execution/engine/scale checks, the engine fold, the cell rule."""

    #: the ``execution`` values this request kind accepts.
    executions = EXECUTION_MODES
    # Declared by every subclass as wire() fields.
    config: GpuConfig
    scale: float
    execution: str
    engine: str

    def _validate_common(self) -> None:
        if self.engine is None:
            # The Session/CLI spelling of "keep the config's engine".
            object.__setattr__(self, "engine", "")
        if self.execution not in self.executions:
            raise RequestError(
                f"unknown {self.kind} execution mode {self.execution!r}; "
                f"expected one of {self.executions}"
            )
        if self.engine not in _ENGINES:
            raise RequestError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{_ENGINES[1:]} (or '' to keep the config's engine)"
            )
        if self.scale <= 0:
            raise RequestError("scale must be positive")

    def resolved_config(self) -> GpuConfig:
        """The request config with its per-request engine override folded
        in — the one config every execution path must simulate under."""
        config = self.config
        if self.engine and self.engine != config.engine:
            config = config.with_overrides({"engine": self.engine})
        return config

    def cell(self, workload: str, isa: str, **changes: object) -> "RunRequest":
        """One (workload, ISA) cell of this request: every field a
        :class:`RunRequest` shares with it, copied by name, then
        ``changes``.  The only place a cell is derived from a larger
        request, so a new shared field reaches every cell by itself."""
        mine = {f.name for f in fields(self)}
        values = {f.name: getattr(self, f.name)
                  for f in fields(RunRequest) if f.name in mine}
        values.update(changes, workload=workload, isa=isa)
        return RunRequest(**values)


def _check_isa(isa: str) -> None:
    if isa not in ISAS:
        raise RequestError(f"unknown ISA {isa!r}; expected one of {ISAS}")


def _config_field():
    return wire(GpuConfig.from_dict, paper_config, dump=GpuConfig.to_dict)


def _trace_field():
    return wire(TraceConfig.from_payload, None, dump=TraceConfig.to_payload,
                sparse=True)


@dataclass(frozen=True)
class RunRequest(_RequestBase):
    """One (workload, ISA) simulation cell; the atom every other request
    decomposes into and the unit dist workers and the daemon's batch
    scheduler move around."""

    workload: str = wire(_str)
    isa: str = wire(_str)
    scale: float = wire(float, 1.0)
    seed: int = wire(int, 7)
    config: GpuConfig = _config_field()
    trace: Optional[TraceConfig] = _trace_field()
    execution: str = wire(_str, "execute")
    trace_dir: Optional[str] = wire(_str, None, sparse=True)
    #: cycle-engine override ("auto" | "scalar" | "vector"); "" keeps
    #: whatever ``config.engine`` already says.
    engine: str = wire(_str, "")

    kind = "run"

    def __post_init__(self) -> None:
        _check_isa(self.isa)
        self._validate_common()

    def describe(self) -> str:
        return (f"{self.workload}/{self.isa} scale={self.scale:g} "
                f"seed={self.seed}")

    def execute(self, trace_store: "Optional[object]" = None) -> "WorkloadRun":
        """Simulate this cell (the single run entry point)."""
        from ..harness.runner import execute_run_request

        return execute_run_request(self, trace_store=trace_store)


@dataclass(frozen=True)
class SuiteRequest(_RequestBase):
    """The paper's full (workload x ISA) evaluation matrix."""

    #: None = every registered workload.
    workloads: Optional[Tuple[str, ...]] = wire(_names, None, dump=list)
    scale: float = wire(float, 1.0)
    seed: int = wire(int, 7)
    config: GpuConfig = _config_field()
    use_cache: bool = wire(_bool, True)
    use_disk_cache: Optional[bool] = wire(_bool, None, sparse=True)
    cache_dir: Optional[str] = wire(_str, None, sparse=True)
    jobs: int = wire(int, 1)
    job_timeout: Optional[float] = wire(float, None, sparse=True)
    trace: Optional[TraceConfig] = _trace_field()
    execution: str = wire(_str, "execute")
    trace_dir: Optional[str] = wire(_str, None, sparse=True)
    engine: str = wire(_str, "")

    kind = "suite"
    # A suite is a sweep with zero axes: the sweep-side names the ledger
    # reads, fixed for every suite (class attributes, not wire fields).
    axes = ()
    mode = "grid"
    isas = ISAS
    resume = False
    verify_replay = False

    def __post_init__(self) -> None:
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        self._validate_common()

    def describe(self) -> str:
        names = ",".join(self.workloads) if self.workloads else "all"
        return f"suite[{names}] scale={self.scale:g} seed={self.seed}"

    def execute(self, progress: "Optional[ProgressFn]" = None) -> "SuiteResults":
        """Run the matrix (the single suite entry point)."""
        from ..explore.sweep import execute_suite_request

        return execute_suite_request(self, progress=progress)


@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """A design-space sweep over dotted ``GpuConfig`` axes."""

    #: :class:`~repro.explore.space.Axis` objects or their
    #: ``path=v1,v2,...`` spellings (parsed on construction).
    axes: Tuple[Axis, ...] = wire(
        _each(_axis), dump=lambda axes: [axis.describe() for axis in axes])
    mode: str = wire(_str, "grid")
    workloads: Optional[Tuple[str, ...]] = wire(_names, None, dump=list)
    isas: Tuple[str, ...] = wire(_names, ISAS, dump=list)
    scale: float = wire(float, 0.5)
    seed: int = wire(int, 7)
    config: GpuConfig = _config_field()
    jobs: int = wire(int, 1)
    use_disk_cache: Optional[bool] = wire(_bool, None, sparse=True)
    cache_dir: Optional[str] = wire(_str, None, sparse=True)
    job_timeout: Optional[float] = wire(float, None, sparse=True)
    #: False, True (re-derive the id from the spec) or a sweep id.
    resume: Union[bool, str] = wire(_is(bool, str), False)
    sweeps_dir: Optional[str] = wire(_str, None, sparse=True)
    execution: str = wire(_str, "auto")
    trace_dir: Optional[str] = wire(_str, None, sparse=True)
    verify_replay: bool = wire(_bool, True)
    engine: str = wire(_str, "")

    kind = "sweep"
    executions = ("auto", "execute", "replay")

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", _each(_axis)(self.axes))
        if not self.axes:
            raise RequestError("a sweep request needs at least one axis")
        object.__setattr__(
            self, "isas", tuple(self.isas) if self.isas is not None else ISAS)
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.mode not in ("grid", "ofat"):
            raise RequestError(
                f"unknown sweep mode {self.mode!r} (grid or ofat)"
            )
        for isa in self.isas:
            _check_isa(isa)
        self._validate_common()

    def describe(self) -> str:
        axes = " x ".join(axis.describe() for axis in self.axes)
        return f"sweep[{axes}] mode={self.mode} scale={self.scale:g}"

    def execute(self, progress: "Optional[ProgressFn]" = None
                ) -> "SweepResults":
        """Run the sweep (the single sweep entry point)."""
        from ..explore.sweep import execute_sweep_request

        return execute_sweep_request(self, progress=progress)


@dataclass(frozen=True)
class ShardCell(Envelope):
    """One (point x workload x ISA) cell inside a shard.

    The overrides are the sweep point's dotted-path edits on the shard's
    base config, which keep the record self-describing without a full
    config per cell (a worker runs the ledger's own cell request).
    ``point`` carries the point's identity and the config does not
    depend on the order of the edits, so they are kept sorted by path:
    the order a ``sort_keys`` JSON encoder writes them in, which makes
    a cell round-trip equal through every encoder.
    """

    point: str = wire(_str)
    workload: str = wire(_str)
    isa: str = wire(_str)
    overrides: Tuple[Tuple[str, object], ...] = wire(
        lambda edits: tuple(_is(dict)(edits).items()), (), dump=dict)

    noun = "shard cell"

    def __post_init__(self) -> None:
        if not self.point or not self.workload:
            raise RequestError("shard cell needs point and workload names")
        _check_isa(self.isa)
        object.__setattr__(self, "overrides", tuple(sorted(
            ((str(path), value) for path, value in self.overrides),
            key=lambda edit: edit[0])))

    @property
    def key(self) -> str:
        """The coordinator-wide cell identity (``point:workload/isa``)."""
        return f"{self.point}:{self.workload}/{self.isa}"


@dataclass(frozen=True)
class ShardRequest(_RequestBase):
    """One leased unit of a distributed sweep: cells sharing a functional
    trace fingerprint, so a worker keeps the capture-once-replay-
    everywhere economics of a single-host sweep within the shard.

    Not an executable request kind (it never rides ``POST /v1/run``-style
    endpoints or :func:`parse_request`); it travels inside the
    coordinator's :class:`LeaseGrant` and keeps the same ``repro-api/1``
    envelope discipline.
    """

    shard_id: str = wire(_str)
    sweep_id: str = wire(_str)
    trace_fp: str = wire(_str, "")
    cells: Tuple[ShardCell, ...] = wire(
        _each(ShardCell.from_payload), (),
        dump=_each(ShardCell.to_payload, list))
    scale: float = wire(float, 0.5)
    seed: int = wire(int, 7)
    config: GpuConfig = _config_field()
    execution: str = wire(_str, "auto")
    engine: str = wire(_str, "")

    kind = "shard"

    def __post_init__(self) -> None:
        if not self.shard_id or not self.sweep_id:
            raise RequestError("shard request needs shard_id and sweep_id")
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise RequestError("shard request needs at least one cell")
        self._validate_common()

    def describe(self) -> str:
        return (f"shard {self.shard_id} of sweep {self.sweep_id}: "
                f"{len(self.cells)} cell(s)")


#: Lease grant states: a shard to work on, back off and re-poll, or the
#: sweep is complete and the worker should exit.
LEASE_STATES = ("granted", "wait", "done")


@dataclass(frozen=True)
class LeaseGrant(Envelope):
    """The coordinator's reply to a worker's lease poll."""

    state: str = wire(_str)
    lease_id: str = wire(_str, "")
    ttl: float = wire(float, 0.0)
    retry_after: float = wire(float, 0.0)
    shard: Optional[ShardRequest] = wire(
        ShardRequest.from_payload, None, dump=ShardRequest.to_payload,
        sparse=True)
    #: always False: no worker needs it (a local one shares the
    #: coordinator's store, a daemon's reads it); kept for the envelope.
    trace_available: bool = wire(_bool, False)
    #: the shard was split off another worker's outstanding lease.
    stolen: bool = wire(_bool, False)

    kind = "lease"
    noun = "grant"

    def __post_init__(self) -> None:
        if self.state not in LEASE_STATES:
            raise RequestError(
                f"unknown lease state {self.state!r}; expected one of "
                f"{LEASE_STATES}"
            )
        if self.state == "granted" and self.shard is None:
            raise RequestError("a granted lease needs a shard")


#: Request kinds the wire accepts, mapped to their classes.
REQUEST_KINDS: Dict[str, "type[Envelope]"] = {
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
    return REQUEST_KINDS[kind].from_payload(payload)


def parse_request_json(text: Union[str, bytes],
                       expect_kind: Optional[str] = None) -> AnyRequest:
    return parse_request(_loads(text), expect_kind=expect_kind)


def execute_request(request: AnyRequest,
                    progress: "Optional[ProgressFn]" = None):
    """THE execution entry point: every surface (Session, CLI, workers,
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
    return REQUEST_KINDS[kind].wire_fields()


__all__ = [
    "API_VERSION",
    "EXECUTION_MODES",
    "ISAS",
    "AnyRequest",
    "Envelope",
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
    "wire",
]
