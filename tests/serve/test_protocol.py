"""Response wire types: golden payloads, lossless round trips, and the
same envelope discipline (version gate + unknown-field rejection) the
request side enforces."""

import json
from pathlib import Path

import pytest

from repro.core.requests import API_VERSION, RequestError
from repro.serve.protocol import (
    ErrorInfo,
    JobStatus,
    MetricsSnapshot,
    parse_response,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "requests"


def _sample_job() -> JobStatus:
    return JobStatus(
        job_id="j000007", request_kind="run", state="done",
        detail="arraybw/gcn3 scale=0.1 seed=7", client="tester",
        priority=2, submitted_at=1000.0, started_at=1000.5,
        finished_at=1001.0, queue_seconds=0.5, wall_seconds=0.5,
        progress=("[1/1] ok arraybw/gcn3 0.5s",), execution="replay",
        batch_id="b0001", batch_size=3, error=None,
        result={"cycles": 4698})


def _sample_metrics() -> MetricsSnapshot:
    return MetricsSnapshot(
        uptime_seconds=12.5, queue_depth=1, running=1, submitted=10,
        completed=7, failed=1, rate_limited=2, rejected=1, timeouts=1,
        captures=2, replays=6, executes=0, batches=3, max_batch=4,
        replay_share=0.75, trace_hits=6, trace_misses=2,
        wall_queued_seconds=0.9, wall_run_seconds=3.2,
        wall_suite_seconds=0.0, wall_sweep_seconds=0.0, draining=False)


def _sample_error() -> ErrorInfo:
    return ErrorInfo(status=429, message="rate limit exceeded for 'tester'")


class TestRoundTrips:
    def test_error_round_trip(self):
        info = ErrorInfo(status=429, message="slow down")
        assert ErrorInfo.from_payload(info.to_payload()) == info

    def test_job_round_trip(self):
        job = _sample_job()
        assert JobStatus.from_payload(job.to_payload()) == job

    def test_job_round_trip_minimal(self):
        job = JobStatus(job_id="j1", request_kind="suite", state="queued")
        again = JobStatus.from_payload(job.to_payload())
        assert again == job
        assert again.started_at is None and again.result is None

    def test_metrics_round_trip(self):
        metrics = _sample_metrics()
        assert MetricsSnapshot.from_payload(metrics.to_payload()) == metrics

    @pytest.mark.parametrize("build,cls", [
        (_sample_job, JobStatus),
        (_sample_metrics, MetricsSnapshot),
        (lambda: ErrorInfo(status=404, message="no"), ErrorInfo),
    ])
    def test_parse_response_dispatches(self, build, cls):
        obj = build()
        parsed = parse_response(obj.to_payload())
        assert isinstance(parsed, cls)
        assert parsed == obj


class TestGoldenPayloads:
    """The daemon's response schema is a contract, same as the request
    side: change it and these goldens must change with an API_VERSION
    bump."""

    def test_job_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "job_status.json").read_text())
        assert _sample_job().to_payload() == golden

    def test_metrics_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "metrics.json").read_text())
        assert _sample_metrics().to_payload() == golden

    def test_error_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "error.json").read_text())
        assert _sample_error().to_payload() == golden

    def test_golden_parses_back(self):
        golden = json.loads((GOLDEN_DIR / "error.json").read_text())
        assert parse_response(golden) == _sample_error()


class TestEnvelope:
    def test_version_gate(self):
        payload = _sample_job().to_payload()
        payload["api"] = "repro-api/9"
        with pytest.raises(RequestError, match="repro-api/1"):
            JobStatus.from_payload(payload)

    def test_unknown_field_rejected_with_suggestion(self):
        payload = _sample_job().to_payload()
        payload["stat"] = "done"
        with pytest.raises(RequestError, match="did you mean state"):
            JobStatus.from_payload(payload)

    def test_unknown_response_kind(self):
        with pytest.raises(RequestError, match="unknown response kind"):
            parse_response({"api": API_VERSION, "kind": "jobs"})

    def test_bad_job_state(self):
        with pytest.raises(RequestError, match="unknown job state"):
            JobStatus(job_id="j1", request_kind="run", state="paused")

    def test_finished_property(self):
        assert _sample_job().finished
        assert not JobStatus(job_id="j1", request_kind="run",
                             state="running").finished
