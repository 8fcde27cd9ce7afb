"""The one wire codec: every envelope class declares its fields once,
with ``wire()``, and ``Envelope`` derives the accepted keys and both
directions of the JSON mapping from that declaration.  Checked here for
all nine classes at once: the schema is the dataclass, round trips are
lossless, and a wrongly typed value is a ``RequestError`` naming the
field (never a ``ValueError``/``TypeError``/``AttributeError`` that
would escape the daemon's 400 handler)."""

import dataclasses

import pytest

from repro.common.config import small_config
from repro.core.requests import (
    API_VERSION,
    LeaseGrant,
    RequestError,
    RunRequest,
    ShardCell,
    ShardRequest,
    SuiteRequest,
    SweepRequest,
)
from repro.obs import TraceConfig
from repro.serve.protocol import ErrorInfo, JobStatus, MetricsSnapshot

_CELLS = (
    ShardCell(point="p00", workload="spmv", isa="gcn3",
              overrides=(("cu.vrf_banks", 2), ("l1d.hit_latency", 8))),
    ShardCell(point="p01", workload="spmv", isa="hsail"),
)
_SHARD = ShardRequest(
    shard_id="5f0c1a2b3c4d", sweep_id="0a1b2c3d4e5f", trace_fp="f" * 16,
    cells=_CELLS, scale=0.1, seed=11, config=small_config(2),
    execution="replay", engine="vector")

#: class -> (every field set to a non-default value, only required ones)
SAMPLES = {
    RunRequest: (
        RunRequest(workload="arraybw", isa="gcn3", scale=0.25, seed=11,
                   config=small_config(2), trace=TraceConfig(sample_every=4),
                   execution="auto", trace_dir="/tmp/traces",
                   engine="vector"),
        RunRequest(workload="lulesh", isa="hsail")),
    SuiteRequest: (
        SuiteRequest(workloads=("arraybw", "bitonic"), scale=0.1, seed=3,
                     config=small_config(2), use_cache=False,
                     use_disk_cache=True, cache_dir="/tmp/cache", jobs=4,
                     job_timeout=30.0, trace=TraceConfig(max_events=10),
                     execution="capture", trace_dir="/tmp/traces",
                     engine="scalar"),
        SuiteRequest()),
    SweepRequest: (
        SweepRequest(axes=("l1i.size_bytes=8k,16k", "cu.vrf_banks=2,4"),
                     mode="ofat", workloads=("lulesh",), isas=("gcn3",),
                     scale=0.25, seed=9, config=small_config(2), jobs=2,
                     use_disk_cache=False, cache_dir="/tmp/cache",
                     job_timeout=12.5, resume="0a1b2c3d4e5f",
                     sweeps_dir="/tmp/sweeps", execution="replay",
                     trace_dir="/tmp/traces", verify_replay=False,
                     engine="vector"),
        SweepRequest(axes=("cu.vrf_banks=2,4",))),
    ShardCell: (_CELLS[0], _CELLS[1]),
    ShardRequest: (
        _SHARD,
        ShardRequest(shard_id="s", sweep_id="w", cells=_CELLS[1:])),
    LeaseGrant: (
        LeaseGrant(state="granted", lease_id="L00001", ttl=30.0,
                   retry_after=0.5, shard=_SHARD, trace_available=True,
                   stolen=True),
        LeaseGrant(state="wait")),
    ErrorInfo: (ErrorInfo(status=429, message="slow down"),
                ErrorInfo(status=500)),
    JobStatus: (
        JobStatus(job_id="j000007", request_kind="run", state="done",
                  detail="arraybw/gcn3", client="tester", priority=2,
                  submitted_at=1000.0, started_at=1000.5,
                  finished_at=1001.0, queue_seconds=0.5, wall_seconds=0.5,
                  progress=("[1/1] ok",), execution="replay",
                  batch_id="b0001", batch_size=3, error="boom",
                  result={"cycles": 4698}),
        JobStatus(job_id="j1", request_kind="suite", state="queued")),
    MetricsSnapshot: (
        MetricsSnapshot(**{
            f.name: (True if f.type == "bool" else
                     1.5 + i if f.type == "float" else 1 + i)
            for i, f in enumerate(dataclasses.fields(MetricsSnapshot))}),
        MetricsSnapshot()),
}
CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestSchema:
    def test_wire_fields_are_the_dataclass_fields(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        expected = set(names)
        if cls.kind:
            expected |= {"api", "kind"}
        if "config" in names:
            expected.add("config_overrides")
        assert set(cls.wire_fields()) == expected
        assert len(cls.wire_fields()) == len(expected)

    def test_full_sample_sets_every_field(self, cls):
        """Guards the samples themselves: a new field must be added to
        the fully populated instance, or the tests below skip it."""
        full, _ = SAMPLES[cls]
        defaults = {f.name: f.default for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING}
        for name, default in defaults.items():
            assert getattr(full, name) != default, name

    @pytest.mark.parametrize("which", [0, 1], ids=["full", "defaults"])
    def test_round_trip(self, cls, which):
        sample = SAMPLES[cls][which]
        assert cls.from_payload(sample.to_payload()) == sample
        assert cls.from_json(sample.to_json()) == sample

    def test_header(self, cls):
        payload = SAMPLES[cls][0].to_payload()
        if cls.kind:
            assert payload["api"] == API_VERSION
            assert payload["kind"] == cls.kind
        else:   # a bare record nested in another envelope
            assert "api" not in payload and "kind" not in payload


def _wrong(value):
    """A JSON value of a different kind than ``value``."""
    if isinstance(value, bool):
        return "yes"
    if isinstance(value, (int, float)):
        return "abc"
    return 5            # for a string, a list, an object, an envelope


def _wrong_typed_cases():
    for cls in CLASSES:
        payload = SAMPLES[cls][0].to_payload()
        for name, value in payload.items():
            if name not in ("api", "kind"):
                yield pytest.param(cls, name, _wrong(value),
                                   id=f"{cls.__name__}-{name}")
        if "config" in payload:
            yield pytest.param(cls, "config_overrides", 5,
                               id=f"{cls.__name__}-config_overrides")
    # One level down: the element of a list, the value of a null-less
    # number, the member of a nested envelope.
    yield pytest.param(SweepRequest, "axes", [5], id="SweepRequest-axes[0]")
    yield pytest.param(SuiteRequest, "workloads", [5],
                       id="SuiteRequest-workloads[0]")
    yield pytest.param(ShardRequest, "cells", [5], id="ShardRequest-cells[0]")
    yield pytest.param(RunRequest, "seed", None, id="RunRequest-seed-null")
    yield pytest.param(RunRequest, "scale", [1], id="RunRequest-scale-list")
    yield pytest.param(RunRequest, "trace", {"sample_every": "x"},
                       id="RunRequest-trace.sample_every")
    yield pytest.param(RunRequest, "config", {"cu": 5},
                       id="RunRequest-config.cu")
    yield pytest.param(LeaseGrant, "shard", {"api": API_VERSION, "cells": 5},
                       id="LeaseGrant-shard.cells")


class TestWrongTypes:
    @pytest.mark.parametrize("cls,name,value", _wrong_typed_cases())
    def test_wrong_type_is_a_request_error_naming_the_field(self, cls, name,
                                                            value):
        payload = SAMPLES[cls][0].to_payload()
        payload[name] = value
        with pytest.raises(RequestError, match=name):
            cls.from_payload(payload)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_payload_must_be_an_object(self, cls):
        with pytest.raises(RequestError, match="must be a JSON object"):
            cls.from_payload([1, 2])

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_missing_required_field(self, cls):
        required = [f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        for name in required:
            payload = SAMPLES[cls][0].to_payload()
            del payload[name]
            with pytest.raises(RequestError, match=f"needs a non-empty "
                                                   f"'{name}'"):
                cls.from_payload(payload)

    def test_null_is_the_default_only_where_the_default_is_none(self):
        payload = SAMPLES[SuiteRequest][1].to_payload()
        payload.update(job_timeout=None, trace=None, workloads=None)
        assert SuiteRequest.from_payload(payload) == SuiteRequest()
        payload["jobs"] = None
        with pytest.raises(RequestError, match="jobs"):
            SuiteRequest.from_payload(payload)


class TestCellRule:
    """``cell()`` is the one place a cell is derived from a larger
    request: shared fields by name, then the caller's changes."""

    def test_suite_cell_copies_every_shared_field(self):
        suite, _ = SAMPLES[SuiteRequest]
        cell = suite.cell("arraybw", "gcn3")
        shared = ({f.name for f in dataclasses.fields(RunRequest)}
                  & {f.name for f in dataclasses.fields(SuiteRequest)})
        assert shared == {"scale", "seed", "config", "trace", "execution",
                          "trace_dir", "engine"}
        for name in shared:
            assert getattr(cell, name) == getattr(suite, name)
        assert (cell.workload, cell.isa) == ("arraybw", "gcn3")

    def test_changes_win(self):
        sweep, _ = SAMPLES[SweepRequest]
        cell = sweep.cell("lulesh", "gcn3", execution="auto", seed=1)
        assert (cell.execution, cell.seed) == ("auto", 1)
        assert cell.trace_dir == sweep.trace_dir


class TestBuild:
    def test_unknown_keyword_fails_like_an_unknown_wire_key(self):
        from repro.core import Session

        with pytest.raises(RequestError, match="did you mean scale"):
            Session(small_config(2)).build_run_request("arraybw", "gcn3",
                                                       scal=0.5)
        with pytest.raises(RequestError, match="did you mean jobs"):
            Session(small_config(2)).suite(job=2)

    def test_engine_none_keeps_the_configs_engine(self):
        from repro.core import Session

        request = Session(small_config(2)).build_run_request(
            "arraybw", "gcn3", engine=None)
        assert request.engine == ""
        assert request.resolved_config() is request.config
