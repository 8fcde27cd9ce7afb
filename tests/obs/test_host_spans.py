"""Host-side spans (``repro.obs.host``): the record a sink receives, the
span points at each layer boundary, and what they cost unsubscribed.

* Every one of the 20 cells (``paper_config``, scale 0.25, seed 7,
  ``execute``, kernel memo cleared first) enters each span name a number
  of times that is a closed form in the cell's kernels, dispatches and
  workgroups: per cell one ``run.cell``, ``runtime.stage`` and
  ``workloads.verify``; per kernel one ``toolchain.codegen`` and
  ``toolchain.finalize``; per dispatch one ``funcsim`` and
  ``timing.cu``; per workgroup one ``timing.fold``.  No count depends
  on instructions or cycles.
* The layer spans account for the cell: ``run.cell``'s self time (its
  duration minus its direct children's) is at most a tenth of it.
* ``run.cell``'s ``path`` attr is the path that ran, on every path.
* Unsubscribed, a span point reads no clock: whole cells run with the
  clock replaced by one that raises.
* A sweep journals each cell and each point inside one ``sweep.journal``
  span (``kind`` ``cell`` or ``point``); a dist sweep's cell lines are
  written inside the ``dist.report`` that filed them.
* A span another thread closes after its reply went out is waited for
  (:func:`wait_for_span`), never assumed closed.

``python tests/obs/test_host_spans.py`` (repo root, ``PYTHONPATH=src``)
prints each span name's share of the 20 cells' self time as a Markdown
table (CI writes it to the step summary).
"""

import gc
import threading
import time
from collections import Counter, defaultdict

import pytest

from repro.common.config import small_config
from repro.harness.cache import TraceStore, trace_fingerprint
from repro.harness.runner import ISAS, clear_suite_cache, run_workload
from repro.obs import host
from repro.obs.host import span
from repro.runtime.process import GpuProcess
from repro.workloads import all_workloads, create

SCALE = 0.25
SEED = 7
CELLS = [(w.name, isa) for w in all_workloads() for isa in ISAS]


def _recorded(call):
    """(what ``call()`` returned, the spans it finished)."""
    records = []
    unsubscribe = host.subscribe(records.append)
    try:
        result = call()
    finally:
        unsubscribe()
    return result, records


def wait_for_span(records, name, timeout=10.0, **attrs):
    """Wait until a span called ``name`` whose attrs include ``attrs``
    has closed into ``records`` (which a subscribed sink fills): a
    server thread may close its span after the reply was read.  Fails
    naming the span if it has not closed within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not any(r["name"] == name and attrs.items() <= r["attrs"].items()
                  for r in list(records)):
        if time.monotonic() > deadline:
            pytest.fail(f"span {name!r} {attrs} did not close within "
                        f"{timeout:g} s")
        time.sleep(0.001)


def _cell(workload, isa, **kw):
    """One execute cell from cold memos, and its spans."""
    clear_suite_cache()
    return _recorded(lambda: run_workload(workload, isa, scale=SCALE,
                                          seed=SEED, **kw))


def self_times(records):
    """Span id -> duration minus the durations of its direct children."""
    own = {r["id"]: r["end_ns"] - r["start_ns"] for r in records}
    for r in records:
        if r["parent"] in own:
            own[r["parent"]] -= r["end_ns"] - r["start_ns"]
    return own


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_suite_cache()
    yield
    clear_suite_cache()


@pytest.fixture(scope="module")
def matrix():
    """(run, spans) of each of the 20 cells."""
    try:
        return {cell: _cell(*cell) for cell in CELLS}
    finally:
        clear_suite_cache()


class TestSpan:
    def test_record_fields_and_parents(self):
        def nested():
            with span("outer", a=1) as outer:
                outer["b"] = 2
                with span("inner"):
                    pass
            return outer

        outer_attrs, records = _recorded(nested)
        inner, outer = records                     # finished inner first
        assert outer_attrs == {"a": 1, "b": 2}
        assert set(outer) == {"id", "parent", "name", "attrs", "pid", "tid",
                              "start_ns", "end_ns"}
        assert (outer["name"], outer["attrs"], outer["parent"]) == (
            "outer", {"a": 1, "b": 2}, None)
        assert (inner["name"], inner["parent"]) == ("inner", outer["id"])
        assert inner["id"] != outer["id"]
        assert inner["pid"] == outer["pid"] and inner["tid"] == outer["tid"]
        assert (outer["start_ns"] <= inner["start_ns"] <= inner["end_ns"]
                <= outer["end_ns"])

    def test_a_raising_body_still_finishes_its_span(self):
        def fail():
            with span("boom"):
                raise ValueError("x")

        records = []
        unsubscribe = host.subscribe(records.append)
        try:
            with pytest.raises(ValueError):
                fail()
            with span("after"):
                pass
        finally:
            unsubscribe()
        assert [(r["name"], r["parent"]) for r in records] == [
            ("boom", None), ("after", None)]

    def test_parents_are_per_thread(self):
        def other():
            with span("other"):
                pass

        def run():
            with span("main"):
                thread = threading.Thread(target=other)
                thread.start()
                thread.join()

        _, records = _recorded(run)
        assert {r["name"]: r["parent"] for r in records} == {
            "other": None, "main": None}

    def test_unsubscribe_stops_delivery(self):
        records = []
        unsubscribe = host.subscribe(records.append)
        unsubscribe()
        with span("unseen"):
            pass
        assert records == []

    def test_unsubscribed_span_reads_no_clock(self, monkeypatch):
        monkeypatch.setattr(host, "clock", _no_clock)
        with span("quiet", a=1) as attrs:
            attrs["b"] = 2
        assert attrs == {"a": 1, "b": 2}


def _no_clock():
    raise AssertionError("an unsubscribed span read the clock")


@pytest.mark.parametrize("isa", ISAS)
def test_unsubscribed_cell_reads_no_clock(isa, monkeypatch):
    monkeypatch.setattr(host, "clock", _no_clock)
    run = run_workload("bitonic", isa, scale=0.1, config=small_config(2))
    assert run.verified and run.error is None


def _shape(workload, isa):
    """(kernels, dispatches, workgroups) of one cell, counted without
    the simulator: compile and stage only."""
    cell = create(workload, scale=SCALE, seed=SEED)
    process = GpuProcess(isa, memory_capacity=1 << 25)
    cell.stage(process, isa)
    return (len(cell.kernels()), len(process.dispatches),
            sum(d.num_workgroups for d in process.dispatches))


@pytest.mark.parametrize("workload,isa", CELLS,
                         ids=[f"{w}-{i}" for w, i in CELLS])
def test_span_counts_are_closed_forms(matrix, workload, isa):
    run, records = matrix[(workload, isa)]
    kernels, dispatches, workgroups = _shape(workload, isa)
    assert Counter(r["name"] for r in records) == {
        "run.cell": 1, "runtime.stage": 1, "workloads.verify": 1,
        "toolchain.codegen": kernels, "toolchain.finalize": kernels,
        "funcsim": dispatches, "timing.cu": dispatches,
        "timing.fold": workgroups}
    names = {r["id"]: r["name"] for r in records}
    assert {(r["name"], names.get(r["parent"])) for r in records} == {
        ("run.cell", None), ("runtime.stage", "run.cell"),
        ("toolchain.codegen", "runtime.stage"),
        ("toolchain.finalize", "runtime.stage"),
        ("funcsim", "run.cell"), ("timing.cu", "run.cell"),
        ("timing.fold", "timing.cu"), ("workloads.verify", "run.cell")}
    funcsim = [r["attrs"] for r in records if r["name"] == "funcsim"]
    assert {attrs["isa"] for attrs in funcsim} == {isa}
    assert sum(a["instructions"] for a in funcsim) == run.dynamic_instructions
    assert len(run.per_dispatch) == dispatches


@pytest.mark.parametrize("isa", ISAS)
def test_layer_spans_cover_the_cell(isa):
    gc.collect()
    _, records = _cell("bitonic", isa)
    [root] = [r for r in records if r["name"] == "run.cell"]
    duration = root["end_ns"] - root["start_ns"]
    assert self_times(records)[root["id"]] <= 0.10 * duration


class TestProvenance:
    """``run.cell``'s ``path`` attr against ``WorkloadRun.execution``."""

    CONFIG = small_config(2).with_overrides({"l1d.size_bytes": 65536})

    def _run(self, store, execution, workload="spmv", config=None):
        return _recorded(lambda: run_workload(
            workload, "gcn3", scale=0.1, config=config or self.CONFIG,
            execution=execution, trace_store=store))

    @staticmethod
    def _paths(records):
        return [r["attrs"].get("path") for r in records
                if r["name"] == "run.cell"]

    def test_each_path_is_named(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        seen = []
        for execution in ("execute", "capture", "replay", "replay"):
            run, records = self._run(store, execution)
            assert self._paths(records) == [run.execution]
            seen.append(run.execution)
        # The second replay is answered from the first one's witness.
        assert seen == ["execute", "capture", "replay", "derived"]

    def test_auto_recapture_nests_a_capture_in_the_replay(self, tmp_path):
        """A probe-law TraceError found by the replay discards the entry
        and captures: the outer span says what it tried, the nested one
        what ran."""
        from tests.harness.test_trace_store import _move_count

        store = TraceStore(tmp_path / "traces")
        config = small_config(2)
        self._run(store, "capture", "md", config)
        _move_count(store._path(trace_fingerprint(
            config, "md", "gcn3", 0.1, 7)), "probe_read", "probe_write")
        clear_suite_cache()
        run, records = self._run(store, "auto", "md", config)
        assert run.execution == "capture"
        cells = [r for r in records if r["name"] == "run.cell"]
        inner, outer = cells
        assert (outer["attrs"]["path"], inner["attrs"]["path"]) == (
            "replay", "capture")
        assert inner["parent"] == outer["id"]

    def test_trace_get_names_its_tier(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        run_workload("arraybw", "gcn3", scale=0.1, config=self.CONFIG,
                     execution="capture", trace_store=store)
        clear_suite_cache()
        fp = trace_fingerprint(self.CONFIG, "arraybw", "gcn3", 0.1, 7)
        _, records = _recorded(lambda: [store.get(fp), store.get(fp),
                                        store.get("0" * 64)])
        assert [r["attrs"]["path"] for r in records] == [
            "disk", "memo", "miss"]


def test_jobs_cells_cross_as_pipe_reports():
    """A ``jobs=2`` suite's cells come back to this process as one
    ``dist.pipe`` report frame each; nothing goes over HTTP."""
    from repro.core import Session

    results, records = _recorded(lambda: Session(small_config(2)).suite(
        scale=0.1, workloads=["arraybw", "spmv"], use_disk_cache=False, jobs=2))
    assert all(run.verified for run in results.runs.values())
    names = Counter(r["name"] for r in records)
    assert names["http.request"] == 0 and names["dist.report"] == 4
    reports = [r for r in records if r["name"] == "dist.pipe"
               and r["attrs"]["verb"] == "report"]
    assert len(reports) == 4 and all(r["attrs"]["ok"] for r in reports)


def test_http_request_spans_wrap_dist_calls(tmp_path):
    """The lease protocol never crosses HTTP: ``dist.lease`` and
    ``dist.report`` nest under ``dist.pipe`` frames, while
    ``http.request`` still wraps every scheduler route."""
    import socket

    from repro.dist.coordinator import serve_pipe
    from repro.dist.worker import PipeTransport
    from repro.serve import DaemonClient, DaemonError, Scheduler
    from repro.serve.daemon import Daemon
    from tests.dist.test_coordinator import _coordinator, _keys, _run

    co = _coordinator(tmp_path)
    server = Daemon(Scheduler(trace_dir=str(tmp_path / "traces")), port=0)
    server.start()
    parent_end, child_end = socket.socketpair()
    records = []
    unsubscribe = host.subscribe(records.append)
    try:
        pipe = threading.Thread(target=serve_pipe, args=(parent_end, co))
        pipe.start()
        transport = PipeTransport(child_end)
        grant = transport.lease("w1")
        for key in _keys(grant):
            transport.report("w1", grant.lease_id, key, _run(key))
        child_end.close()
        pipe.join(timeout=10)
        client = DaemonClient(server.host, server.port)
        assert client.healthz()["ok"]
        # The handler closes its span after the reply is written.
        wait_for_span(records, "http.request", path="/v1/healthz")
        with pytest.raises(DaemonError):
            client.job("nope")           # unknown job: 404
        wait_for_span(records, "http.request", path="/v1/jobs/nope")
    finally:
        unsubscribe()
        server.close()
        server.scheduler.stop()
        co.finish()
    by_id = {r["id"]: r for r in records}
    dist = [r for r in records if r["name"] in ("dist.lease", "dist.report")]
    assert [r["name"] for r in dist] == ["dist.lease", "dist.report",
                                         "dist.report"]
    for record in dist:
        assert by_id[record["parent"]]["name"] == "dist.pipe"
    assert [(r["attrs"]["method"], r["attrs"]["path"], r["attrs"]["status"])
            for r in records if r["name"] == "http.request"] == [
        ("GET", "/v1/healthz", 200), ("GET", "/v1/jobs/nope", 404)]


def test_pipe_spans_wrap_dist_calls(tmp_path):
    import socket

    from repro.common.errors import ReproError
    from repro.dist.worker import PipeTransport
    from repro.dist.coordinator import serve_pipe
    from tests.dist.test_coordinator import _coordinator, _keys, _run

    co = _coordinator(tmp_path)
    parent_end, child_end = socket.socketpair()

    def drive():
        server = threading.Thread(target=serve_pipe, args=(parent_end, co))
        server.start()
        transport = PipeTransport(child_end)
        grant = transport.lease("w1")
        for key in _keys(grant):
            transport.report("w1", grant.lease_id, key, _run(key))
        with pytest.raises(ReproError):
            transport.report("w1", grant.lease_id, "nope", {})
        child_end.close()                # the worker leaves: EOF
        server.join(timeout=10)
        assert not server.is_alive()

    _, records = _recorded(drive)
    co.finish()
    by_id = {r["id"]: r for r in records}
    dist = [r for r in records if r["name"] in ("dist.lease", "dist.report")]
    assert [r["name"] for r in dist] == ["dist.lease", "dist.report",
                                         "dist.report", "dist.report"]
    for record in dist:
        frame = by_id[record["parent"]]
        assert frame["name"] == "dist.pipe"
        assert frame["attrs"]["verb"] == record["name"][len("dist."):]
    assert [(r["attrs"]["verb"], r["attrs"]["ok"]) for r in records
            if r["name"] == "dist.pipe"] == [
        ("lease", True), ("report", True), ("report", True),
        ("report", False)]


def test_a_local_worker_sweep_makes_no_http_request(tmp_path):
    from repro.dist import run_dist_sweep
    from tests.dist.test_local_workers import CELLS, _request

    results, records = _recorded(lambda: run_dist_sweep(
        _request(tmp_path, "pipe"), workers=1, timeout=120))
    assert set(results.workers) == {"local-0"}
    names = Counter(r["name"] for r in records)
    assert names["http.request"] == 0
    assert names["dist.report"] == CELLS
    by_id = {r["id"]: r for r in records}
    for record in records:
        if record["name"] in ("dist.lease", "dist.report"):
            assert by_id[record["parent"]]["name"] == "dist.pipe"
    # Each cell is journaled inside the report that filed it.
    journal = [r for r in records if r["name"] == "sweep.journal"]
    assert Counter(r["attrs"]["kind"] for r in journal) == {
        "cell": CELLS, "point": len(results.points)}
    assert {by_id[r["parent"]]["name"] for r in journal} == {"dist.report"}


def test_journal_spans_are_closed_forms(tmp_path):
    """A serial sweep of P points x C cells journals inside P x C
    ``cell`` spans and P ``point`` spans, whichever cells hit the
    result cache: a hit is journaled too."""
    from repro.core.requests import SweepRequest
    from repro.explore.space import Axis
    from repro.explore.sweep import execute_sweep_request

    def sweep(name):
        return _recorded(lambda: execute_sweep_request(SweepRequest(
            axes=(Axis("cu.vrf_banks", (2, 4, 8)),), workloads=("arraybw",),
            scale=0.1, config=small_config(2), execution="execute",
            use_disk_cache=True, cache_dir=str(tmp_path / "cache"),
            sweeps_dir=str(tmp_path / name))))

    for name, status in (("cold", "ok"), ("warm", "hit")):
        results, records = sweep(name)
        assert len(results.points) == 3 and not results.failed_points
        journal = [r for r in records if r["name"] == "sweep.journal"]
        assert Counter(r["attrs"]["kind"] for r in journal) == {
            "cell": 6, "point": 3}
        assert all(r["parent"] is None for r in journal)
        assert Counter(r["name"] for r in records)["run.cell"] == (
            6 if status == "ok" else 0)


def test_a_local_worker_pushes_no_trace_back(tmp_path):
    """A local worker's store is the coordinator's own directory, so a
    trace it captured is already there: its pipe carries the lease
    protocol's verbs and nothing else.  Two trace groups, so the first
    shard ends well before the sweep does."""
    from repro.dist import run_dist_sweep
    from tests.dist.test_local_workers import _request

    results, records = _recorded(lambda: run_dist_sweep(
        _request(tmp_path, "sync", workloads=("spmv", "bitonic")),
        workers=1, timeout=120))
    assert results.captures == 2 and not results.failed_points
    verbs = Counter(r["attrs"]["verb"] for r in records
                    if r["name"] == "dist.pipe")
    assert verbs["report"] == 8
    assert set(verbs) <= {"lease", "report"}


def layer_table(matrix):
    """Markdown rows: each span name's count, self time and share of the
    cells' total time."""
    own = defaultdict(int)
    count = Counter()
    total = 0
    for _run, records in matrix.values():
        times = self_times(records)
        for r in records:
            own[r["name"]] += times[r["id"]]
            count[r["name"]] += 1
            if r["name"] == "run.cell":
                total += r["end_ns"] - r["start_ns"]
    rows = ["| host span (20 execute cells, scale 0.25, cold memos) | spans "
            "| self ms | share |", "|---|---:|---:|---:|"]
    for name in sorted(own, key=own.get, reverse=True):
        rows.append(f"| {name} | {count[name]} | {own[name] / 1e6:.1f} "
                    f"| {100 * own[name] / total:.1f} % |")
    return rows


if __name__ == "__main__":
    print("\n".join(layer_table({cell: _cell(*cell) for cell in CELLS})))
