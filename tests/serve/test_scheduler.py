"""Scheduler coverage: the batching proof (M queued cells over K
functional groups cost exactly K captures), per-client token-bucket
rate limiting, job timeouts through the pool, priority ordering, and
the SIGTERM drain protocol.  Everything here drives the synchronous
core — no sockets, no worker thread unless the test starts one."""

import pytest

from repro.common.config import small_config
from repro.core import Session
from repro.core.requests import RunRequest
from repro.serve import (
    Draining,
    QueueFull,
    RateLimited,
    Scheduler,
    TokenBucket,
    UnknownJob,
)

SCALE = 0.1


def _run_request(workload="arraybw", isa="gcn3", *, l1d=None, seed=7,
                 execution="auto", trace_dir=None, scale=SCALE):
    config = small_config(2)
    if l1d is not None:
        config = config.with_overrides({"l1d.size_bytes": l1d})
    return Session(config).build_run_request(
        workload, isa, scale=scale, seed=seed, execution=execution,
        trace_dir=trace_dir)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_starve(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()         # burst exhausted
        clock.advance(1.0)
        assert bucket.try_take()             # refilled at 1/s
        assert not bucket.try_take()

    def test_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_take()
        assert not bucket.try_take()
        assert bucket.retry_after() == pytest.approx(0.5)


class TestBatching:
    """The tentpole invariant: M queued cells spanning K functional
    groups execute exactly K captures; everything else replays."""

    def test_m_cells_k_groups_k_captures(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        sched = Scheduler(trace_dir=trace_dir)
        # 6 cells, 2 functional groups (one per ISA — the l1d size is
        # timing-only so it does NOT split a group).
        jobs = []
        for isa in ("gcn3", "hsail"):
            for l1d in (8192, 16384, 32768):
                jobs.append(sched.submit(_run_request(isa=isa, l1d=l1d)))
        ran = sched.run_until_idle()
        assert ran == 6
        metrics = sched.metrics()
        assert metrics.captures == 2          # exactly K
        assert metrics.replays == 4           # everything else
        assert metrics.executes == 0
        assert metrics.max_batch == 3
        for job in jobs:
            assert job.state == "done"
            assert job.batch_size == 3
        # First cell of each group captured, the rest replayed (or were
        # derived from the first replay's eviction-free witness).
        by_group = {}
        for job in jobs:
            by_group.setdefault(job.request.isa, []).append(job.execution)
        for executions in by_group.values():
            assert executions[0] == "capture"
            assert set(executions[1:]) <= {"replay", "derived"}

    def test_batch_stats_bit_identical_to_direct_execution(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "traces"))
        jobs = [sched.submit(_run_request(l1d=size))
                for size in (8192, 16384, 32768)]
        sched.run_until_idle()
        for job, size in zip(jobs, (8192, 16384, 32768)):
            direct = _run_request(l1d=size, execution="execute").execute()
            expected = direct.to_payload()
            got = dict(job.result)
            for noise in ("wall_seconds", "execution"):
                got.pop(noise, None)
                expected.pop(noise, None)
            assert got == expected, f"l1d={size} drifted"

    def test_storeless_scheduler_executes_and_reports_no_store(
            self, monkeypatch):
        """With caching disabled and no trace dir there is no store: an
        ``auto`` cell runs as ``execute`` and the metrics read 0 hits
        and misses instead of raising."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        sched = Scheduler()
        assert sched.store is None
        job = sched.submit(_run_request())
        sched.run_until_idle()
        assert job.state == "done", job.error
        assert job.execution == "execute"
        metrics = sched.metrics()
        assert (metrics.executes, metrics.captures, metrics.replays) == (1, 0, 0)
        assert (metrics.trace_hits, metrics.trace_misses) == (0, 0)

    def test_execute_mode_cells_never_batch(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "traces"))
        a = sched.submit(_run_request(execution="execute"))
        b = sched.submit(_run_request(execution="execute"))
        assert sched.run_pending() == 1        # no grouping
        assert a.batch_size == 1
        metrics = sched.metrics()
        assert metrics.executes == 1 and metrics.captures == 0
        sched.run_until_idle()
        assert b.state == "done" and b.execution == "execute"

    def test_different_seeds_split_groups(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "traces"))
        sched.submit(_run_request(seed=1))
        sched.submit(_run_request(seed=2))
        sched.run_until_idle()
        metrics = sched.metrics()
        assert metrics.captures == 2 and metrics.replays == 0

    def test_priority_orders_between_groups(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "traces"))
        low = sched.submit(_run_request(seed=1), priority=0)
        high = sched.submit(_run_request(seed=2), priority=5)
        assert sched.run_pending() == 1
        assert high.state == "done" and low.state == "queued"

    def test_daemon_trace_dir_pinned_onto_requests(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        sched = Scheduler(trace_dir=trace_dir)
        job = sched.submit(_run_request())
        assert job.request.trace_dir == trace_dir
        explicit = str(tmp_path / "mine")
        job2 = sched.submit(_run_request(trace_dir=explicit))
        assert job2.request.trace_dir == explicit   # client wins

    def test_traces_live_under_the_cache_dir(self, tmp_path, monkeypatch):
        """``repro serve --cache-dir D`` without ``--trace-dir`` keeps its
        traces in ``D/traces``, not under ``REPRO_CACHE_DIR``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        sched = Scheduler(cache_dir=str(tmp_path / "cache"))
        job = sched.submit(_run_request())
        sched.run_until_idle()
        assert job.state == "done" and job.execution == "capture"
        assert len(list((tmp_path / "cache" / "traces").glob("*.trace"))) == 1
        assert not (tmp_path / "elsewhere").exists()


class TestRateLimit:
    def test_429_after_burst(self, tmp_path):
        clock = FakeClock()
        sched = Scheduler(trace_dir=str(tmp_path / "t"), rate_limit=1.0,
                          rate_burst=2.0, clock=clock)
        sched.submit(_run_request(), client="alice")
        sched.submit(_run_request(), client="alice")
        with pytest.raises(RateLimited) as excinfo:
            sched.submit(_run_request(), client="alice")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after > 0
        assert sched.metrics().rate_limited == 1

    def test_buckets_are_per_client(self, tmp_path):
        clock = FakeClock()
        sched = Scheduler(trace_dir=str(tmp_path / "t"), rate_limit=1.0,
                          rate_burst=1.0, clock=clock)
        sched.submit(_run_request(), client="alice")
        sched.submit(_run_request(), client="bob")   # separate bucket
        with pytest.raises(RateLimited):
            sched.submit(_run_request(), client="alice")

    def test_tokens_refill(self, tmp_path):
        clock = FakeClock()
        sched = Scheduler(trace_dir=str(tmp_path / "t"), rate_limit=1.0,
                          rate_burst=1.0, clock=clock)
        sched.submit(_run_request(), client="alice")
        with pytest.raises(RateLimited):
            sched.submit(_run_request(), client="alice")
        clock.advance(1.5)
        sched.submit(_run_request(), client="alice")  # no raise

    def test_refilled_buckets_are_forgotten(self, tmp_path):
        """A client rotating ``X-Repro-Client`` cannot grow the bucket
        table: once the clock has moved by ``burst / rate`` every bucket
        has refilled to ``burst`` and is dropped, and every accept or
        refusal is the one a table that keeps each bucket forever (the
        reference below) makes."""
        clock = FakeClock()
        rate, burst = 2.0, 3.0
        sched = Scheduler(trace_dir=str(tmp_path / "t"), rate_limit=rate,
                          rate_burst=burst, max_queue=10_000, clock=clock)
        reference = {}
        request = _run_request()

        def submit(client):
            bucket = reference.setdefault(
                client, TokenBucket(rate, burst, clock))
            expected = bucket.try_take()
            try:
                sched.submit(request, client=client)
                accepted = True
            except RateLimited:
                accepted = False
            assert accepted == expected, client
            return accepted

        for i in range(1000):
            assert submit(f"c{i}")
            if i % 100 == 0:             # some clients drain their bucket
                outcomes = [submit(f"c{i}") for _ in range(4)]
                assert outcomes == [True, True, False, False]
            clock.advance(0.001)
        clock.advance(burst / rate)
        assert submit("last")
        assert len(sched._buckets) <= 2
        assert [submit("c0") for _ in range(4)] == [True, True, True, False]

    def test_queue_full_503(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "t"), max_queue=2)
        sched.submit(_run_request(seed=1))
        sched.submit(_run_request(seed=2))
        with pytest.raises(QueueFull) as excinfo:
            sched.submit(_run_request(seed=3))
        assert excinfo.value.status == 503
        assert sched.metrics().rejected == 1


class TestTimeout:
    def test_job_timeout_fails_job_via_pool(self, tmp_path):
        """An absurdly small pool timeout turns a real run into a
        failed job with the pool's timeout message — the daemon never
        wedges."""
        sched = Scheduler(trace_dir=str(tmp_path / "t"),
                          job_timeout=0.001)
        job = sched.submit(_run_request(execution="execute"))
        sched.run_until_idle()
        assert job.state == "failed"
        assert "timed out" in job.error
        metrics = sched.metrics()
        assert metrics.failed == 1 and metrics.timeouts == 1
        status = job.status()
        assert status.state == "failed" and "timed out" in status.error

    def test_failed_job_does_not_kill_scheduler(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "t"))
        bad = sched.submit(_run_request(workload="no-such-workload"))
        good = sched.submit(_run_request())
        sched.run_until_idle()
        assert bad.state == "failed" and bad.error
        assert good.state == "done"


class TestDrain:
    def test_drain_finishes_accepted_and_rejects_new(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "t"))
        jobs = [sched.submit(_run_request(l1d=size))
                for size in (8192, 16384)]
        assert sched.drain(wait=True, timeout=120.0)
        for job in jobs:
            assert job.state == "done"
        with pytest.raises(Draining) as excinfo:
            sched.submit(_run_request())
        assert excinfo.value.status == 503
        assert sched.metrics().draining

    def test_drain_with_worker_thread(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "t"))
        sched.start()
        jobs = [sched.submit(_run_request(l1d=size))
                for size in (8192, 16384, 32768)]
        assert sched.stop(timeout=120.0)
        for job in jobs:
            assert job.state == "done", job.error
        with pytest.raises(Draining):
            sched.submit(_run_request())


class TestJobLookup:
    def test_unknown_job_404(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "t"))
        with pytest.raises(UnknownJob) as excinfo:
            sched.get("j999999")
        assert excinfo.value.status == 404

    def test_status_snapshot_round_trips(self, tmp_path):
        from repro.serve.protocol import JobStatus

        sched = Scheduler(trace_dir=str(tmp_path / "t"))
        job = sched.submit(_run_request(), client="c", priority=3)
        sched.run_until_idle()
        status = job.status()
        assert JobStatus.from_payload(status.to_payload()) == status
        assert status.queue_seconds >= 0.0
        assert status.wall_seconds > 0.0

    def test_suite_request_through_scheduler(self, tmp_path):
        sched = Scheduler(trace_dir=str(tmp_path / "t"))
        request = Session(small_config(2)).build_suite_request(
            workloads=["arraybw"], scale=SCALE, use_cache=False)
        job = sched.submit(request)
        sched.run_until_idle()
        assert job.state == "done", job.error
        assert job.result["scale"] == SCALE
        assert job.progress                 # streamed per-cell lines
        assert sched.metrics().wall_suite_seconds > 0.0
