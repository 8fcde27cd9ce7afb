"""One repetition of one workload, in a fresh process.

``python3 child.py <plan.json>``: the driver (run.py) writes the plan —
sizes, request order, the sampled cells to cross-check, private
directories — and reads ``report.json`` from the same directory.  The
seed stays in the driver; this file sees only the inputs made from it.

The process pins itself, and so every sub-process it starts, to one CPU.
Host speed on a shared box differs per CPU and from second to second;
the probe slices that :class:`Meter` takes between operations can only
stand for the speed the work ran at when they run on the same CPU.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import probe
from micro import MICRO, point_config

HERE = os.path.dirname(os.path.abspath(__file__))
#: StatSet counters summed over a repetition's cells (exact-repeat counts).
COUNTERS = ("cycles", "dynamic_instructions", "ifetch_requests",
            "ifetch_misses", "dram_accesses", "vmem_requests",
            "vrf_bank_conflicts", "ib_flushes")


class Meter:
    """The timed section as wall segments separated by probe slices.

    ``slices[0]`` is taken when the process starts and ``slices[1]`` when
    the timed section does; segment ``i`` then lies between
    ``slices[i + 1]`` and ``slices[i + 2]`` and is normalised by their
    mean.  A slice takes its CPU time from whoever else wants the pinned
    CPU and nothing more, so the next segment opens that long after the
    last one closed: slices cost run time, not measured time, whether
    the CPU was otherwise idle (between cells) or busy (mid-wave).
    """

    def __init__(self, recorder):
        self._recorder = recorder
        self.slices = []
        self.segments = []          # (start, end, is_op), perf_counter s
        self._slice()

    def _slice(self):
        with _span(self._recorder, "bench.probe_slice"):
            self.slices.append(probe.slice_ms())

    def start(self, live_pids=()):
        """Open the timed section; ``live_pids`` are sub-processes whose
        CPU time belongs to it."""
        self._live_pids = live_pids
        self._slice()
        self._cpu_start = self._cpu_end = _cpu_s(live_pids)
        self.t_start = self.t_end = self._open = time.perf_counter()

    def mark(self, op=True):
        """Close the open segment (one operation unless ``op`` is false)
        and return its index."""
        self.t_end = time.perf_counter()
        self.segments.append((self._open, self.t_end, op))
        self._cpu_end = _cpu_s(self._live_pids)
        self._slice()
        self._open = self.t_end + self.slices[-1] / 1000.0
        return len(self.segments) - 1

    def since_mark(self):
        return time.perf_counter() - self._open

    def factor(self, segment):
        return probe.CALIB_REF_MS / (
            (self.slices[segment + 1] + self.slices[segment + 2]) / 2.0)

    def ref_ms(self, start, end):
        """Host-normalised ms of the wall interval [start, end]: its
        overlap with each segment, times that segment's factor."""
        return 1000.0 * sum(
            max(0.0, min(end, seg_end) - max(start, seg_start))
            * self.factor(i)
            for i, (seg_start, seg_end, _) in enumerate(self.segments))

    @property
    def cpu_raw_s(self):
        """CPU seconds of the section, without the slices taken in it."""
        return (self._cpu_end - self._cpu_start
                - sum(self.slices[2:-1]) / 1000.0)

    @property
    def wall_raw_s(self):
        return sum(end - start for start, end, _ in self.segments)

    @property
    def wall_ref_s(self):
        return sum((end - start) * self.factor(i)
                   for i, (start, end, _) in enumerate(self.segments))

    def ops_ref_ms(self):
        return [(end - start) * self.factor(i) * 1000.0
                for i, (start, end, op) in enumerate(self.segments) if op]


def _span(recorder, name, request=None):
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, request=request)


def _cpu_s(live_pids=()):
    """User+sys CPU seconds so far of this process, its reaped children
    and the still-running sub-processes in ``live_pids``."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in live_pids:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def _stable(payload):
    """A run payload without the fields that differ between two correct
    runs of one cell (host wall time; capture vs replay)."""
    return {k: v for k, v in payload.items()
            if k not in ("wall_seconds", "execution")}


def _digest(runs):
    """(exact-repeat counts, sha256 over every stable payload)."""
    counts = dict.fromkeys(COUNTERS, 0)
    counts.update(l1d_hits=0, l1d_misses=0, l2_hits=0, l2_misses=0,
                  instrs_hsail=0, instrs_gcn3=0, static_hsail=0,
                  static_gcn3=0, gcn3_code_bytes=0, kernels=0,
                  data_footprint_bytes=0, cells=0)
    sha = hashlib.sha256()
    for run in runs:
        sha.update(json.dumps(_stable(run.to_payload()),
                              sort_keys=True).encode("utf-8"))
        counts["cells"] += 1
        for name, value in run.total.snapshot().items():
            if name in COUNTERS:
                counts[name] += value
            elif name.endswith(("_hits", "_misses")):
                level = "l1d" if name.startswith("l1d") else (
                    "l2" if name.startswith("l2_") else None)
                if level:
                    counts[f"{level}_{name.rsplit('_', 1)[1]}"] += value
        counts[f"instrs_{run.isa}"] += run.dynamic_instructions
        counts[f"static_{run.isa}"] += run.static_instructions
        counts["data_footprint_bytes"] += run.data_footprint_bytes
        if run.isa == "gcn3":
            counts["gcn3_code_bytes"] += run.instr_footprint_bytes
            counts["kernels"] += len(run.kernel_code_bytes)
    return counts, sha.hexdigest()


def _recheck(expected_payload, workload, isa, config, plan):
    """None when a fresh in-process ``execute`` run of the cell has the
    same stable payload, else a failure message."""
    from repro.core import Session

    run = Session(config).run(workload, isa, scale=plan["scale"],
                              seed=plan["data_seed"], execution="execute")
    if _stable(run.to_payload()) == _stable(expected_payload):
        return None
    return f"{workload}/{isa}: re-executed payload differs"


# -- the four workloads ---------------------------------------------------------


def suite_execute(plan, meter, recorder):
    from repro.common.config import paper_config
    from repro.core import Session
    from repro.harness.report import write_report
    from repro.harness.runner import SuiteResults

    session = Session(paper_config())
    results = SuiteResults(scale=plan["scale"])
    meter.start()
    for workload, isa in plan["cells"]:
        with _span(recorder, "core.session_run", f"{workload}-{isa}"):
            results.runs[(workload, isa)] = session.run(
                workload, isa, scale=plan["scale"], seed=plan["data_seed"],
                execution="execute")
        meter.mark()
    with _span(recorder, "harness.figures"):
        write_report(results, io.StringIO())
    meter.mark(op=False)
    failures = [f"{w}/{isa}: {run.error or 'not verified'}"
                for (w, isa), run in results.runs.items()
                if run.failed or not run.verified]
    runs = [run for _key, run in sorted(results.runs.items())]
    return {"runs": runs, "failed": len(failures), "failures": failures,
            "ops_ref_ms": meter.ops_ref_ms(), "extra": {}}


def _sweep_kwargs(plan):
    dirs = plan["dirs"]
    return dict(workloads=plan["workloads"], isas=["gcn3"],
                scale=plan["scale"], seed=plan["data_seed"], jobs=1,
                use_disk_cache=False, cache_dir=dirs["cache"],
                sweeps_dir=dirs["sweeps"], trace_dir=dirs["traces"],
                execution="auto")


def _sweep_outcome(results, plan, meter, check_sample):
    from repro.dist import journal_digest

    failures = []
    for point in results.failed_points:
        failures.extend(f"{point.point.point_id}: {point.error}"
                        for _ in plan["workloads"])
    if results.replay_drift:
        failures.append("replay drift")
    if results.captures != len(plan["workloads"]):
        failures.append(f"{results.captures} captures, expected "
                        f"{len(plan['workloads'])}")
    if check_sample:
        for index, workload in plan["sample"]:
            point = results.points[index]
            failures.append(_recheck(
                point.runs[(workload, "gcn3")].to_payload(), workload,
                "gcn3", point.point.config, plan))
    failures = [f for f in failures if f]
    runs = [run for point in results.points
            for _key, run in sorted(point.runs.items())]
    return {"runs": runs, "failed": len(failures), "failures": failures,
            "ops_ref_ms": meter.ops_ref_ms(),
            "extra": {"journal_digest": journal_digest(results.journal_path),
                      "captures": results.captures,
                      "replays": results.replays,
                      "drift": results.replay_drift}}


def sweep_replay(plan, meter, recorder):
    from repro.common.config import paper_config
    from repro.core import Session

    session = Session(paper_config())
    meter.start()
    with _span(recorder, "explore.sweep"):
        results = session.sweep([plan["axis"]], **_sweep_kwargs(plan),
                                progress=lambda _event: meter.mark())
    meter.mark(op=False)     # drift guard + journal close
    return _sweep_outcome(results, plan, meter, check_sample=True)


def dist_sweep(plan, meter, recorder):
    from repro.common.config import paper_config
    from repro.core import Session
    from repro.dist import run_dist_sweep

    request = Session(paper_config()).build_sweep_request(
        [plan["axis"]], **_sweep_kwargs(plan))
    meter.start()
    with _span(recorder, "dist.run_dist_sweep"):
        # The callback runs in the coordinator's HTTP thread while the
        # worker waits for the reply to its report.
        results = run_dist_sweep(request, workers=1,
                                 progress=lambda _event: meter.mark())
    meter.mark(op=False)
    outcome = _sweep_outcome(results, plan, meter, check_sample=False)
    outcome["extra"]["dist"] = results.dist_payload()
    return outcome


def _start_daemon(plan, env):
    dirs = plan["dirs"]
    head = ([sys.executable, os.path.join(HERE, "launcher.py")]
            if plan["traced"] else [sys.executable, "-m", "repro"])
    with open(os.path.join(dirs["root"], "daemon.err"), "wb") as err:
        daemon = subprocess.Popen(
            head + ["serve", "--port", "0", "--trace-dir", dirs["traces"],
                    "--cache-dir", dirs["cache"], "--quiet"],
            env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    line = daemon.stdout.readline()
    if "listening on" not in line:
        daemon.kill()
        daemon.wait()
        raise RuntimeError(f"daemon did not start: {line!r}")
    return daemon, int(line.rsplit(":", 1)[1])


def serve_mixed(plan, meter, recorder):
    from repro.core import Session
    from repro.harness.runner import WorkloadRun
    from repro.serve import DaemonClient

    env = dict(os.environ, PYTHONPATH=plan["src"])
    up_start = time.perf_counter()
    daemon, port = _start_daemon(plan, env)
    try:
        client = DaemonClient("127.0.0.1", port)
        client.healthz()
        daemon_up_ms = (time.perf_counter() - up_start) * 1000.0
        requests = [
            Session(point_config(l1d)).build_run_request(
                workload, isa, scale=plan["scale"], seed=plan["data_seed"],
                execution="auto")
            for workload, isa, l1d in plan["requests"]]
        rtts = []
        for _ in range(5):
            start = time.perf_counter()
            client.healthz()
            rtts.append((time.perf_counter() - start) * 1000.0)

        statuses = [None] * len(requests)
        lifetime = [None] * len(requests)     # (submitted, finished)
        polls = 0
        meter.start(live_pids=[daemon.pid])
        for first in range(0, len(requests), plan["window"]):
            pending = {}
            for index in range(first, min(first + plan["window"],
                                          len(requests))):
                submitted = time.perf_counter()
                job = client.submit(requests[index])
                pending[job.job_id] = (index, submitted)
            while pending:
                for job_id, (index, submitted) in list(pending.items()):
                    status = client.job(job_id)
                    polls += 1
                    if status.finished:
                        lifetime[index] = (submitted, time.perf_counter())
                        statuses[index] = status
                        del pending[job_id]
                if pending:
                    with _span(recorder, "serve.poll_sleep"):
                        time.sleep(plan["poll_s"])
                    if meter.since_mark() >= plan["slice_every_s"]:
                        meter.mark(op=False)      # mid-wave slice
            meter.mark(op=False)
        metrics = client.metrics()

        failures = [f"{requests[i].describe()}: {s.state} {s.error or ''}"
                    for i, s in enumerate(statuses) if s.state != "done"]
        groups = len({(w, isa) for w, isa, _ in plan["requests"]})
        if (metrics.captures, metrics.replays) != (
                groups, len(requests) - groups):
            failures.append(f"daemon counted {metrics.captures} captures + "
                            f"{metrics.replays} replays")
        for index in plan["sample"]:
            request = requests[index]
            if statuses[index].state == "done":
                failures.append(_recheck(
                    statuses[index].result, request.workload, request.isa,
                    request.config, plan))
        failures = [f for f in failures if f]
        client.shutdown()
        daemon.wait(timeout=30)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()

    ops = [meter.ref_ms(submitted, finished)
           for submitted, finished in lifetime]
    by_mode = {"capture": [], "replay": []}
    for i, status in enumerate(statuses):
        by_mode.get(status.execution, []).append(ops[i])
    runs = [WorkloadRun.from_payload(s.result) for s in statuses
            if s.state == "done"]
    return {
        "runs": runs, "failed": len(failures), "failures": failures,
        "ops_ref_ms": ops,
        "extra": {
            "daemon_up_ms": daemon_up_ms, "http_rtt_ms": sorted(rtts)[2],
            "polls_per_job": polls / len(requests),
            "capture_ms": by_mode["capture"], "replay_ms": by_mode["replay"],
            "metrics": metrics.to_payload(),
        },
    }


WORKLOADS = {"suite_execute": suite_execute, "sweep_replay": sweep_replay,
             "serve_mixed": serve_mixed, "dist_sweep": dist_sweep}


def main(plan_path):
    with open(plan_path, "r", encoding="utf-8") as f:
        plan = json.load(f)
    os.sched_setaffinity(0, {plan["cpu"]})
    sys.path.insert(0, plan["src"])
    recorder = None
    if plan["traced"]:
        import layers

        os.environ[layers.SPANS_ENV] = plan["dirs"]["spans"]
        os.environ[layers.PREFIX_ENV] = f"{plan['workload']}/{plan['rep']}"
        recorder = layers.Recorder(os.environ[layers.PREFIX_ENV])
        with recorder.span("proc.import"):
            layers.install(recorder)
    meter = Meter(recorder)

    if plan["workload"] in MICRO:
        outcome = {"runs": [], "failed": 0, "failures": [], "ops_ref_ms": [],
                   "extra": MICRO[plan["workload"]](plan, meter)}
    else:
        outcome = WORKLOADS[plan["workload"]](plan, meter, recorder)

    setup_raw = (meter.t_start - plan["spawn_t"]
                 - sum(meter.slices[:2]) / 1000.0)
    setup_factor = probe.CALIB_REF_MS / (sum(meter.slices[:2]) / 2.0)
    counts, sha = _digest(outcome.pop("runs"))
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report = {
        "workload": plan["workload"], "rep": plan["rep"],
        "traced": plan["traced"],
        "setup_raw_s": setup_raw, "setup_ref_s": setup_raw * setup_factor,
        "wall_raw_s": meter.wall_raw_s, "wall_ref_s": meter.wall_ref_s,
        "cpu_raw_s": meter.cpu_raw_s,
        "cpu_ref_s": meter.cpu_raw_s * meter.wall_ref_s / meter.wall_raw_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": len(outcome["ops_ref_ms"]),
        "counts": counts, "stats_sha256": sha,
        "slices_ms": meter.slices,
        "timed_ns": [int(meter.t_start * 1e9), int(meter.t_end * 1e9)],
        **outcome,
    }
    if recorder is not None:
        recorder.dump(plan["dirs"]["spans"])
    with open(os.path.join(plan["dirs"]["root"], "report.json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
