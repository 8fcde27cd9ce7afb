"""End-to-end daemon tests: a real ``repro serve`` subprocess on an
ephemeral port, driven over HTTP with :class:`DaemonClient`.  Asserts
the daemon path is bit-identical to in-process execution, that a burst
sharing one functional fingerprint shares one capture, that malformed
HTTP gets an ErrorInfo reply, and that SIGTERM drains gracefully
(in-flight finishes, new work gets 503, polls answer, clean exit)."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.config import small_config
from repro.core import Session
from repro.serve import DaemonClient, DaemonError, ErrorInfo
from repro.serve.daemon import _MAX_BODY

SCALE = 0.1
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _start_daemon(tmp_dir, *extra_args, store=True,
                  stderr=subprocess.DEVNULL):
    """A daemon with its trace store and result cache under ``tmp_dir``;
    ``store=False`` starts one with neither (``REPRO_NO_CACHE``, no
    directories given)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env["PYTHONUNBUFFERED"] = "1"
    dirs = ["--trace-dir", str(tmp_dir / "traces"),
            "--cache-dir", str(tmp_dir / "cache")]
    if not store:
        env["REPRO_NO_CACHE"] = "1"
        dirs = []
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *dirs, *extra_args],
        stdout=subprocess.PIPE, stderr=stderr,
        env=env, cwd=str(tmp_dir), text=True)
    deadline = time.monotonic() + 60
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "listening on" in line:
            break
        if process.poll() is not None:
            raise RuntimeError(f"daemon died at startup: {line!r}")
    else:
        process.kill()
        raise RuntimeError("daemon never announced its port")
    port = int(line.rsplit(":", 1)[1])
    return process, port


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("serve")
    process, port = _start_daemon(tmp_dir)
    client = DaemonClient("127.0.0.1", port, client_id="pytest")
    try:
        yield client
    finally:
        client.close()
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()


def _run_request(l1d=None, seed=7, execution="auto"):
    config = small_config(2)
    if l1d is not None:
        config = config.with_overrides({"l1d.size_bytes": l1d})
    return Session(config).build_run_request(
        "arraybw", "gcn3", scale=SCALE, seed=seed, execution=execution)


def _stats(payload):
    cleaned = dict(payload)
    cleaned.pop("wall_seconds", None)
    cleaned.pop("execution", None)
    return cleaned


class TestDaemonExecution:
    def test_run_bit_identical_to_in_process(self, daemon):
        status = daemon.wait(daemon.submit(_run_request(seed=20)).job_id)
        assert status.state == "done", status.error
        direct = _run_request(seed=20, execution="execute").execute()
        assert _stats(status.result) == _stats(direct.to_payload())

    def test_burst_shares_one_capture(self, daemon):
        """The tentpole scenario over the wire: N timing-only variants
        of one functional group cost one capture, the rest replay."""
        before = daemon.metrics()
        jobs = [daemon.submit(_run_request(l1d=size, seed=21))
                for size in (8192, 16384, 32768, 65536)]
        statuses = [daemon.wait(job.job_id) for job in jobs]
        for status in statuses:
            assert status.state == "done", status.error
        executions = [status.execution for status in statuses]
        after = daemon.metrics()
        assert executions.count("capture") == 1
        # a replay answered from an eviction-free witness says so
        assert sum(e in ("replay", "derived") for e in executions) == 3
        assert after.captures - before.captures == 1
        assert after.replays - before.replays == 3
        assert after.batches > before.batches

    def test_suite_over_http(self, daemon):
        request = Session(small_config(2)).build_suite_request(
            workloads=["arraybw"], scale=SCALE, use_disk_cache=False)
        status = daemon.wait(daemon.submit(request).job_id)
        assert status.state == "done", status.error
        assert status.request_kind == "suite"
        assert len(status.result["runs"]) == 2       # both ISAs
        assert status.progress                       # streamed lines

    def test_metrics_shape(self, daemon):
        metrics = daemon.metrics()
        assert metrics.submitted >= 1
        assert metrics.uptime_seconds > 0
        assert not metrics.draining

    def test_jobs_listing(self, daemon):
        listed = daemon.jobs()
        assert listed
        assert all(job.job_id.startswith("j") for job in listed)


class TestDaemonErrors:
    def test_unknown_field_is_400_with_suggestion(self, daemon):
        body = json.dumps({"api": "repro-api/1", "kind": "run",
                           "workload": "arraybw", "isa": "gcn3",
                           "scal": 0.5})
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("POST", "/v1/run", body=body)
        assert excinfo.value.status == 400
        assert "did you mean scale" in str(excinfo.value)

    @pytest.mark.parametrize("field,value", [("scale", "abc"),
                                             ("trace", 5)])
    def test_wrongly_typed_field_is_400_and_daemon_keeps_serving(
            self, daemon, field, value):
        """A cast failure must come back as a 400 ErrorInfo, not as a
        dropped connection (the codec reports it as RequestError)."""
        before = daemon.metrics()
        body = json.dumps({"api": "repro-api/1", "kind": "run",
                           "workload": "arraybw", "isa": "gcn3",
                           field: value})
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("POST", "/v1/run", body=body)
        assert excinfo.value.status == 400
        assert excinfo.value.info is not None
        assert excinfo.value.info.status == 400
        assert field in excinfo.value.info.message
        after = daemon.metrics()      # a fresh connection is answered
        assert after.failed == before.failed
        assert after.submitted == before.submitted

    def test_version_gate_is_400(self, daemon):
        body = json.dumps({"api": "repro-api/2", "kind": "run",
                           "workload": "arraybw", "isa": "gcn3"})
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("POST", "/v1/run", body=body)
        assert excinfo.value.status == 400

    def test_kind_endpoint_mismatch_is_400(self, daemon):
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("POST", "/v1/suite", body=_run_request().to_json())
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, daemon):
        with pytest.raises(DaemonError) as excinfo:
            daemon.job("j424242")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, daemon):
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("GET", "/v2/run")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, daemon):
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("GET", "/v1/run")
        assert excinfo.value.status == 405


def _raw_exchange(port, request):
    """Send raw bytes, half-close, and read the reply to EOF; returns
    (status or None for an empty reply, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return (int(head.split()[1]) if head else None), body


_MALFORMED = {
    "over_long_header_line": (
        b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"a" * 70000
        + b"\r\n\r\n", (431, 400)),
    "body_shorter_than_content_length": (
        b"POST /v1/run HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"api\":",
        (400,)),
    "negative_content_length": (
        b"POST /v1/run HTTP/1.1\r\nContent-Length: -1\r\n\r\n", (400,)),
    "non_numeric_content_length": (
        b"POST /v1/run HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n", (400,)),
    "body_over_max": (
        b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (_MAX_BODY + 1), (413,)),
}


class TestMalformedHttp:
    """Malformed HTTP fails closed: an ErrorInfo JSON reply instead of a
    dropped connection, no traceback, and the daemon keeps serving."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("malformed")
        stderr_path = tmp_dir / "daemon.err"
        with open(stderr_path, "w") as stderr:
            process, port = _start_daemon(tmp_dir, stderr=stderr)
        try:
            yield port, stderr_path
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            process.stdout.close()

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_request_gets_error_info(self, served, case):
        port, stderr_path = served
        request, statuses = _MALFORMED[case]
        logged = len(stderr_path.read_text())
        status, body = _raw_exchange(port, request)
        assert status in statuses, f"reply status {status}"
        info = ErrorInfo.from_payload(json.loads(body))
        assert info.status == status and info.message
        client = DaemonClient("127.0.0.1", port)
        health = client.healthz()
        client.close()
        assert health["ok"] is True
        assert "Traceback" not in stderr_path.read_text()[logged:]


class TestHealthz:
    def test_healthz_ok(self, daemon):
        payload = daemon.healthz()
        assert payload["ok"] is True
        assert payload["draining"] is False
        assert payload["role"] == "scheduler"

    def test_healthz_is_get_only(self, daemon):
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("POST", "/v1/healthz")
        assert excinfo.value.status == 405


class TestTraceBlobRoutes:
    def test_round_trip_over_http(self, daemon):
        # The burst tests above captured at least one trace; fetch its
        # fingerprint straight off the daemon's store via a fresh run.
        status = daemon.wait(daemon.submit(_run_request(seed=50)).job_id)
        assert status.state == "done", status.error
        from repro.harness.cache import trace_fingerprint

        config = small_config(2)
        fp = trace_fingerprint(config, "arraybw", "gcn3", SCALE, 50)
        blob = daemon.get_trace(fp)
        assert blob is not None and blob.startswith(b"RPROTRC1"), (
            f"GET /v1/traces/{fp} found no trace after a run whose "
            f"execution was {status.execution!r}")
        # Re-uploading the same (valid) blob is accepted.
        assert daemon.put_trace(fp, blob) is True

    def test_missing_trace_is_none(self, daemon):
        assert daemon.get_trace("0" * 16) is None

    def test_corrupt_blob_is_refused(self, daemon):
        assert daemon.put_trace("deadbeef", b"not a trace") is False

    def test_bad_fingerprint_is_400(self, daemon):
        with pytest.raises(DaemonError) as excinfo:
            daemon._call("GET", "/v1/traces/", raw=True)
        assert excinfo.value.status in (400, 404)


class TestDistRoutesWithoutCoordinator:
    def test_dist_routes_404_on_plain_daemon(self, daemon):
        """A sweep coordinator never listens on a port, so the daemon
        has no lease protocol: its old routes are unknown paths."""
        for method, path in [("POST", "/v1/dist/lease"),
                             ("POST", "/v1/dist/renew"),
                             ("POST", "/v1/dist/report"),
                             ("GET", "/v1/dist/status")]:
            with pytest.raises(DaemonError) as excinfo:
                daemon._call(method, path, body="{}")
            assert excinfo.value.status == 404
            assert f"no route {method} {path}" in str(excinfo.value)


class TestRateLimitOverHttp:
    def test_429_with_retry_after(self, tmp_path):
        process, port = _start_daemon(tmp_path, "--rate-limit", "0.1",
                                      "--rate-burst", "2")
        # max_retries=0: this test asserts the raw 429, not the
        # client-side backoff (tests/serve/test_client.py covers that).
        client = DaemonClient("127.0.0.1", port, client_id="ratelimited",
                              max_retries=0)
        try:
            client.submit(_run_request(seed=30))
            client.submit(_run_request(seed=31))
            with pytest.raises(DaemonError) as excinfo:
                client.submit(_run_request(seed=32))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_clean(self, tmp_path):
        process, port = _start_daemon(tmp_path)
        client = DaemonClient("127.0.0.1", port, client_id="drainer")
        jobs = [client.submit(_run_request(l1d=size, seed=40))
                for size in (8192, 16384)]
        client.close()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=120) == 0
        # In-flight work finished before exit: the traces directory has
        # the captured group's trace on disk.
        traces = list((tmp_path / "traces").glob("*.trace"))
        assert traces, "accepted work was dropped on SIGTERM"
        assert len(jobs) == 2

    def test_drain_refuses_submits_and_answers_polls(self, tmp_path):
        """From SIGTERM until the queue is empty the listener stays up:
        a submit gets 503 (Draining), a job poll gets 200; then exit 0."""
        process, port = _start_daemon(tmp_path)
        client = DaemonClient("127.0.0.1", port, client_id="drain-contract")
        session = Session(small_config(2))
        try:
            jobs = [client.submit(session.build_run_request(
                        "lulesh", "gcn3", scale=1, seed=seed,
                        execution="execute"))
                    for seed in (60, 61, 62, 63)]
            process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30
            while not client.healthz()["draining"]:
                assert time.monotonic() < deadline, "drain never started"
                time.sleep(0.01)
            with pytest.raises(DaemonError) as excinfo:
                client.submit(_run_request(seed=64))
            assert excinfo.value.status == 503
            assert "draining" in excinfo.value.info.message
            polled = [client.job(job.job_id) for job in jobs]
            assert [s.job_id for s in polled] == [j.job_id for j in jobs]
            assert not polled[-1].finished, "queue drained before the polls"
            assert process.wait(timeout=120) == 0
        finally:
            client.close()
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    def test_sigterm_taken_by_another_thread_still_drains(self, tmp_path):
        """Any thread may take a process-directed signal, but only the
        main thread runs its Python handler: a main thread blocked for
        good never sees one that another thread took (a thread in
        ``fork`` or ``pthread_create`` takes a signal that arrives
        meanwhile).  Here only a helper thread can take SIGTERM, every
        time; the drain must still start."""
        script = f"""
import signal, sys, threading, time
threading.Thread(target=time.sleep, args=(600,), daemon=True).start()
signal.pthread_sigmask(signal.SIG_BLOCK, {{signal.SIGTERM}})
from repro.__main__ import main
sys.exit(main(["serve", "--port", "0", "--trace-dir", "traces",
               "--cache-dir", "cache"]))
"""
        process = subprocess.Popen(
            [sys.executable, "-u", "-c", script], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, cwd=str(tmp_path),
            env=dict(os.environ, PYTHONPATH=REPO_SRC))
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            client = DaemonClient("127.0.0.1", int(line.rsplit(":", 1)[1]))
            assert client.healthz()["ok"]
            client.close()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    def test_shutdown_reply_is_written_before_the_drain(self, tmp_path,
                                                        monkeypatch):
        """``serve_main`` may return, ending the process and every
        handler thread, as soon as the event is set; set before the
        reply, the client read a cut body (``IncompleteRead``)."""
        from repro.serve import Scheduler
        from repro.serve.daemon import Daemon, _Handler

        server = Daemon(Scheduler(trace_dir=str(tmp_path / "traces")),
                        port=0)
        requested_at_reply = []
        reply = _Handler._reply

        def spy(handler, status, payload, headers):
            requested_at_reply.append(server.shutdown_requested.is_set())
            reply(handler, status, payload, headers)

        monkeypatch.setattr(_Handler, "_reply", spy)
        server.start()
        client = DaemonClient(server.host, server.port)
        try:
            client.shutdown()
            assert server.shutdown_requested.wait(10)
        finally:
            client.close()
            server.scheduler.stop()
            server.close()
        assert requested_at_reply == [False]

    def test_shutdown_endpoint_drains(self, tmp_path):
        process, port = _start_daemon(tmp_path)
        client = DaemonClient("127.0.0.1", port, client_id="stopper")
        status = daemon_status = client.submit(_run_request(seed=41))
        client.shutdown()
        client.close()
        assert process.wait(timeout=120) == 0
        assert daemon_status.job_id == status.job_id


class TestNoTraceStore:
    def test_storeless_daemon_runs_auto_cells_as_execute(self, tmp_path):
        """Caching disabled and no ``--trace-dir``: the daemon has no
        trace store, and degrades instead of dying at startup — an
        ``auto`` cell executes, and the metrics report no store
        traffic."""
        process, port = _start_daemon(tmp_path, store=False)
        client = DaemonClient("127.0.0.1", port, client_id="storeless")
        try:
            job = client.wait(client.submit(_run_request(seed=50)).job_id)
            assert job.state == "done", job.error
            assert job.execution == "execute"
            metrics = client.metrics()
            assert (metrics.executes, metrics.captures) == (1, 0)
            assert (metrics.trace_hits, metrics.trace_misses) == (0, 0)
        finally:
            client.close()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        assert not list(tmp_path.rglob("*.trace"))
