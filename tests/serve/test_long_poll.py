"""``GET /v1/jobs/<id>?wait=<s>`` against an in-process :class:`Daemon`:
the reply comes when the job finishes, not on a poll interval; the
wait is capped, answered at once when a drain starts, and released by
``Daemon.close()``; a malformed ``wait`` is a 400.  A daemon-backed
dist cell learns that its job finished in at most two job requests."""

import threading
import time

import pytest

from repro.common.config import small_config
from repro.core import Session
from repro.serve import DaemonClient, DaemonError, Scheduler
from repro.serve import daemon as daemon_module
from repro.serve.daemon import Daemon


def _request(seed=7):
    return Session(small_config(2)).build_run_request(
        "arraybw", "gcn3", scale=0.1, seed=seed, execution="execute")


@pytest.fixture
def daemon(tmp_path):
    daemon = Daemon(Scheduler(trace_dir=str(tmp_path / "traces")), port=0)
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.close()
        daemon.scheduler.stop()


@pytest.fixture
def gate(daemon, monkeypatch):
    """Run cells wait for this event, then finish without simulating."""
    gate = threading.Event()

    def held(job):
        gate.wait(30)
        job.execution = "execute"

    monkeypatch.setattr(daemon.scheduler, "_execute_run", held)
    try:
        yield gate
    finally:
        gate.set()


@pytest.fixture
def waiting(daemon, monkeypatch):
    """Set once the daemon holds a job request (a wait over 0 s)."""
    held = threading.Event()
    wait = daemon.scheduler.wait

    def entered(job_id, timeout):
        if timeout > 0:
            held.set()
        return wait(job_id, timeout)

    monkeypatch.setattr(daemon.scheduler, "wait", entered)
    return held


@pytest.fixture
def job_requests(monkeypatch):
    """The ``/v1/jobs/<id>`` requests every client makes."""
    made = []
    call_once = DaemonClient._call_once

    def counting(client, method, path, *args, **kwargs):
        if path.startswith("/v1/jobs/"):
            made.append(path)
        return call_once(client, method, path, *args, **kwargs)

    monkeypatch.setattr(DaemonClient, "_call_once", counting)
    return made


def _in_thread(call):
    """Run ``call`` on a thread; returns the thread and its outcome."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def test_wait_answers_when_the_job_finishes(daemon, gate, waiting,
                                            job_requests):
    client = DaemonClient(daemon.host, daemon.port)
    try:
        job = client.submit(_request())
        thread, outcome = _in_thread(lambda: client.wait(job.job_id))
        assert waiting.wait(10)
        time.sleep(0.2)
        assert thread.is_alive()       # held by the daemon, not polling
        released = time.monotonic()
        gate.set()
        thread.join(timeout=10)
        assert time.monotonic() - released < 1.0
        assert outcome["value"].state == "done"
        assert len(job_requests) == 1
    finally:
        client.close()


def test_a_daemon_backed_cell_makes_at_most_two_job_requests(daemon,
                                                             job_requests):
    from repro.dist.worker import DaemonBackend

    client = DaemonClient(daemon.host, daemon.port)
    try:
        run = DaemonBackend(client).run(_request())
    finally:
        client.close()
    assert run.error is None and run.verified
    assert 1 <= len(job_requests) <= 2


def test_close_releases_an_outstanding_wait_within_a_second(daemon, gate,
                                                            waiting):
    client = DaemonClient(daemon.host, daemon.port)
    job = client.submit(_request())
    thread, outcome = _in_thread(
        lambda: client._call("GET", f"/v1/jobs/{job.job_id}?wait=20"))
    assert waiting.wait(10)
    assert thread.is_alive()
    start = time.monotonic()
    daemon.close()
    assert time.monotonic() - start < 1.0
    thread.join(timeout=5)
    assert not thread.is_alive()
    # Its reply may be cut by the connection's shutdown, which follows.
    assert (isinstance(outcome.get("error"), OSError)
            or outcome["value"]["state"] in ("queued", "running"))


def test_a_drain_answers_outstanding_waits(daemon, gate, waiting):
    client = DaemonClient(daemon.host, daemon.port)
    try:
        job = client.submit(_request())
        thread, outcome = _in_thread(
            lambda: client._call("GET", f"/v1/jobs/{job.job_id}?wait=20"))
        assert waiting.wait(10)
        time.sleep(0.2)                # into the condition wait
        assert thread.is_alive()
        assert not daemon.scheduler.drain(wait=False)
        thread.join(timeout=5)         # not the 20 s the wait asked for
        assert outcome["value"]["state"] in ("queued", "running")
        # A wait begun during the drain is held until the job finishes.
        waiting.clear()
        thread, outcome = _in_thread(lambda: client.wait(job.job_id))
        assert waiting.wait(10)
        time.sleep(0.2)
        assert thread.is_alive()
        gate.set()
        thread.join(timeout=10)
        assert outcome["value"].state == "done"
    finally:
        client.close()


def test_a_wait_is_capped(daemon, gate, monkeypatch):
    monkeypatch.setattr(daemon_module, "MAX_WAIT", 0.2)
    client = DaemonClient(daemon.host, daemon.port)
    try:
        job = client.submit(_request())
        start = time.monotonic()
        status = client._call("GET", f"/v1/jobs/{job.job_id}?wait=20")
        assert 0.2 <= time.monotonic() - start < 2.0
        assert status["state"] in ("queued", "running")
    finally:
        client.close()


@pytest.mark.parametrize("query", ["wait=abc", "wait=-1", "wait=inf",
                                   "wait=nan", "until=1", "wait"])
def test_a_malformed_wait_is_400(daemon, query):
    client = DaemonClient(daemon.host, daemon.port)
    try:
        job = client.submit(_request())
        with pytest.raises(DaemonError) as excinfo:
            client._call("GET", f"/v1/jobs/{job.job_id}?{query}")
        assert excinfo.value.status == 400
        assert client.wait(job.job_id, timeout=60).state == "done"
    finally:
        client.close()
