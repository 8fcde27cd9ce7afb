#!/usr/bin/env python3
"""The repo's end-to-end benchmark (see README.md beside this file).

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` measures one workload for about S seconds and prints one
  JSON line: the end-to-end metrics of BENCHMARK.json (``--trace 0``) or
  its per-layer metrics (``--trace 1``).
* ``python3 benchmarks/e2e/run.py --seed 7`` runs all four workloads
  round-robin, then one traced pass, prints every metric by name and
  writes ``out/results.json``, ``out/trace.json`` and ``out/layers.md``;
  ``--smoke`` is the same at toy sizes with no traced pass.

Either way it exits non-zero when an output check fails.  Every
repetition is a fresh child process (child.py); this file only makes the
inputs from the seed, starts children and does the arithmetic.
"""

import argparse
import collections
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: The 36-point L1D axis of BENCH_PR6.json (8 KiB - 1 MiB).
L1D_AXIS = (8192, 9216, 10240, 11264, 12288, 13312, 14336, 16384, 18432,
            20480, 24576, 26624, 28672, 32768, 36864, 40960, 49152, 57344,
            65536, 73728, 81920, 98304, 114688, 131072, 163840, 196608,
            229376, 262144, 327680, 393216, 458752, 524288, 655360, 786432,
            917504, 1048576)
SWEEP_WORKLOADS = ("lulesh", "hpgmg", "spmv")
ISAS = ("hsail", "gcn3")

#: Workload sizes.  "full" is cut to what 92 driver runs of about 20 s
#: allow (README.md, "Sizes"); "smoke" only proves the plumbing.
SIZES = {
    "full": dict(suite_scale=0.5, sweep_scale=0.5, sweep_l1d=L1D_AXIS[::2],
                 sweep_sample=2, serve_scale=0.25,
                 serve_l1d=(8192, 32768, 131072, 524288), serve_sample=3,
                 reps=5),
    "smoke": dict(suite_scale=0.25, sweep_scale=0.25,
                  sweep_l1d=(8192, 32768, 131072, 524288), sweep_sample=1,
                  serve_scale=0.25, serve_l1d=(32768, 131072), serve_sample=2,
                  reps=1),
}
WINDOW = 10           # serve_mixed: requests in flight per wave
POLL_S = 0.005        # serve_mixed: pause between status polls
SLICE_EVERY_S = 0.1   # serve_mixed: a probe slice this often within a wave
MIN_REPS = 3
CHILD_TIMEOUT_S = 90
#: The differential measurements that ride with a workload's traced pass.
MICRO_OF = {"suite_execute": "micro_suite", "sweep_replay": "micro_sweep",
            "serve_mixed": "micro_serve"}
#: Spans that enclose a whole timed section or only wait; neither counts
#: as a layer covering the section.
NOT_A_LAYER = ("explore.sweep", "dist.run_dist_sweep", "serve.poll_sleep",
               "proc.repro_serve", "proc.repro_dist")


class BenchError(Exception):
    """The benchmark could not measure (not: measured and found wrong)."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as f:
        return json.load(f)


# -- inputs from the seed -------------------------------------------------------


def make_plan(workload, seed, rep, sizes):
    """The inputs of one repetition.  The seed drives the kernel input
    data, which L1D size of a group ``serve_mixed`` sends in which wave,
    and the cells sampled for the cross-check (these differ by ``rep``
    too).  The order of operations is fixed: per-operation percentiles
    and peak RSS depend on it, so it belongs to the workload's
    definition, not to the seed."""
    mix = random.Random(f"{seed}/{workload}")
    sample = random.Random(f"{seed}/{workload}/{rep}")
    plan = {"workload": workload, "rep": rep, "data_seed": seed}
    if workload in ("suite_execute", "micro_suite"):
        from repro.workloads import workload_names

        plan.update(scale=sizes["suite_scale"],
                    cells=[(w, isa) for w in workload_names()
                           for isa in ISAS],
                    obs_cells=[("lulesh", "gcn3"), ("fft", "hsail")],
                    obs_scale=0.25)
    elif workload in ("sweep_replay", "dist_sweep", "micro_sweep"):
        l1d = sizes["sweep_l1d"]
        plan.update(
            scale=sizes["sweep_scale"], workloads=list(SWEEP_WORKLOADS),
            axis="l1d.size_bytes=" + ",".join(str(v) for v in l1d),
            sample=[(sample.randrange(len(l1d)),
                     sample.choice(SWEEP_WORKLOADS))
                    for _ in range(sizes["sweep_sample"])],
            l1d_sizes=[l1d[0], l1d[len(l1d) // 2], l1d[-1]])
    elif workload == "serve_mixed":
        from repro.workloads import workload_names

        # A wave is WINDOW / 2 groups at two L1D sizes each, so the
        # batcher always has a capture (or replay) and a replay of one
        # trace to pair up; the first pass over the groups captures.
        l1d = sizes["serve_l1d"]
        groups = [(w, isa) for w in workload_names() for isa in ISAS]
        sizes_of = {group: mix.sample(l1d, len(l1d)) for group in groups}
        requests = []
        for first in range(0, len(l1d) - 1, 2):
            for block in range(0, len(groups), WINDOW // 2):
                for position in (first, first + 1):
                    requests.extend(
                        (w, isa, sizes_of[(w, isa)][position])
                        for w, isa in groups[block:block + WINDOW // 2])
        plan.update(scale=sizes["serve_scale"], requests=requests,
                    window=WINDOW, poll_s=POLL_S,
                    slice_every_s=SLICE_EVERY_S,
                    sample=sample.sample(range(len(requests)),
                                         sizes["serve_sample"]))
    elif workload == "micro_serve":
        plan.update(scale=sizes["serve_scale"], cell=("spmv", "gcn3"),
                    rounds=10)
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return plan


# -- one repetition = one child process ----------------------------------------


def run_child(plan, traced=False):
    """Run one repetition in a fresh process group; returns its report
    (with ``spans`` and ``missing`` when traced)."""
    tmp_root = os.path.join(OUT, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{plan['workload']}-", dir=tmp_root)
    dirs = {name: os.path.join(root, name)
            for name in ("cache", "traces", "sweeps", "spans")}
    dirs["root"] = root
    os.makedirs(dirs["spans"])
    plan = dict(plan, traced=traced, dirs=dirs, src=SRC,
                cpu=max(os.sched_getaffinity(0)))
    plan_path = os.path.join(root, "plan.json")
    plan["spawn_t"] = time.perf_counter()
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    # One malloc arena: with glibc's per-thread arenas the daemon's peak
    # RSS varied 94-130 MB between identical repetitions.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), plan_path],
        env=dict(os.environ, MALLOC_ARENA_MAX="1"),
        stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child stops its daemon and worker itself; this only makes
        # sure nothing of its group outlives a crash or a timeout.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    try:
        if code != 0:
            raise BenchError(f"{plan['workload']} repetition {plan['rep']} "
                             f"{'timed out' if code is None else 'exited ' + str(code)}")
        with open(os.path.join(root, "report.json"), "r",
                  encoding="utf-8") as f:
            report = json.load(f)
        traces = dirs["traces"]
        blobs = ([os.path.getsize(os.path.join(traces, name))
                  for name in os.listdir(traces) if name.endswith(".trace")]
                 if os.path.isdir(traces) else [])
        report["trace_blob_kb"] = (statistics.mean(blobs) / 1024.0
                                   if blobs else 0.0)
        if traced:
            import layers

            report["spans"], report["missing"] = layers.load_spans(
                os.path.join(dirs["spans"], name)
                for name in os.listdir(dirs["spans"]))
        return report
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- arithmetic -----------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, tenth):
    """Python's default ("exclusive") estimate.  The suite's operations
    are 20 clusters, and exactly two of them (fft) are its top 10 %; this
    estimate reads 0.9 of the way into that top cluster, where the
    "inclusive" one sits 0.1 of the way across the 280 -> 470 ms gap
    below it and flips sides with the noise."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[tenth - 1]


def end_to_end(reports):
    """``{metric: {value, q1, q3, values, n}}``: ``values`` holds one
    value per repetition and q1/q3 are their quartiles.  ``value`` is
    their median, with two exceptions: the per-operation percentiles pool
    every repetition's operations (``n`` of them), and peak RSS is the
    smallest repetition's - its noise is one-sided (about one daemon in
    four peaks 20-40 % higher on identical inputs, depending on when the
    cyclic GC happens to run), so the minimum is the steady location and
    still moves when a change costs memory in every repetition."""
    ops = [ms for r in reports for ms in r["ops_ref_ms"]]
    per_rep = {
        "setup_s": [r["setup_ref_s"] for r in reports],
        "wall_ref_s": [r["wall_ref_s"] for r in reports],
        "cpu_ref_s": [r["cpu_ref_s"] for r in reports],
        "sim_kinstr_per_s": [
            r["counts"]["dynamic_instructions"] / r["wall_ref_s"] / 1000.0
            for r in reports],
        "op_p50_ms": [statistics.median(r["ops_ref_ms"]) for r in reports],
        "op_p90_ms": [percentile(r["ops_ref_ms"], 9) for r in reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
    }
    out = {}
    for name, values in per_rep.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "q1": q1, "q3": q3, "values": values,
                     "n": len(values)}
    out["peak_rss_mb"]["value"] = min(per_rep["peak_rss_mb"])
    out["op_p50_ms"].update(value=statistics.median(ops), n=len(ops))
    out["op_p90_ms"].update(value=percentile(ops, 9), n=len(ops))
    return out


def check(reports, control=None):
    """(attempted, failed, failure messages) over a workload's
    repetitions.  Identical inputs must give identical statistics, and a
    dist journal must equal the serial one; either mismatch fails every
    operation, because no single one can be trusted."""
    attempted = sum(r["attempted"] for r in reports)
    failures = [f"rep {r['rep']}: {message}"
                for r in reports for message in r["failures"]]
    failed = sum(min(r["failed"], r["attempted"]) for r in reports)
    if len({r["stats_sha256"] for r in reports}) > 1:
        failures.append("stats_sha256 differs between repetitions")
        failed = attempted
    if control is not None:
        failures.extend(f"control: {m}" for m in control["failures"])
        digests = {r["extra"]["journal_digest"] for r in reports}
        if digests != {control["extra"]["journal_digest"]}:
            failures.append("dist journal_digest differs from sweep_replay's")
            failed = attempted
        elif control["failed"]:
            failed = attempted
    return attempted, failed, failures


def layer_metrics(workload, untraced, traced, micro, control):
    """Every per-layer metric this workload's traced pass can give; the
    caller reads the rest as 0 (the layer is bypassed or measured on
    another workload)."""
    import layers

    # Spans outside the timed section (set-up, the cross-check's
    # re-executions) are not the workload.
    start_ns, end_ns = traced["timed_ns"]
    spans = [s for s in traced["spans"]
             if s["end_ns"] > start_ns and s["start_ns"] < end_ns]
    k = traced["wall_ref_s"] / traced["wall_raw_s"]   # host normalisation
    own = layers.self_times(spans)
    total_ms = collections.defaultdict(float)
    self_ms = collections.defaultdict(float)
    count = collections.Counter()
    for span in spans:
        total_ms[span["name"]] += (span["end_ns"] - span["start_ns"]) / 1e6 * k
        self_ms[span["name"]] += own[span["id"]] / 1e6 * k
        count[span["name"]] += 1

    def total(prefix):
        return sum(ms for name, ms in total_ms.items()
                   if name.startswith(prefix))

    def per_op(name):
        return total_ms[name] / count[name] if count[name] else 0.0

    counts, extra = traced["counts"], traced["extra"]
    cells = counts["cells"]
    timed_ms = (end_ns - start_ns) / 1e6 * k
    layer_spans = [s for s in spans if s["name"] not in NOT_A_LAYER]
    u_wall = statistics.median(r["wall_ref_s"] for r in untraced)
    slices = [ms for r in untraced + [traced] for ms in r["slices_ms"]]
    q1, med, q3 = quartiles(slices)
    execute_ms = total("timing.execute_")
    l1d = counts["l1d_hits"] + counts["l1d_misses"]
    l2 = counts["l2_hits"] + counts["l2_misses"]

    m = {
        "kernels.build_ms": total("kernels.build"),
        "kernels.count": counts["kernels"],
        "hsail.codegen_ms": total("hsail.codegen"),
        "hsail.static_instrs": counts["static_hsail"],
        "finalizer.finalize_ms": total("finalizer.finalize"),
        "finalizer.static_instrs": counts["static_gcn3"],
        "finalizer.expansion_ratio": (
            counts["static_gcn3"] / counts["static_hsail"]
            if counts["static_hsail"] else 0.0),
        "gcn3.code_bytes": counts["gcn3_code_bytes"],
        "core.compile_calls": count["hsail.codegen"],
        "runtime.stage_ms": total("runtime.stage"),
        "runtime.data_footprint_mb": counts["data_footprint_bytes"] / 2**20,
        "workloads.verify_ms": total("workloads.verify"),
        "timing.execute_ms": execute_ms,
        "timing.execute_hsail_ms": total("timing.execute_hsail"),
        "timing.execute_gcn3_ms": total("timing.execute_gcn3"),
        "timing.capture_ms": total("timing.capture_"),
        "timing.replay_ms": total("timing.replay_"),
        "timing.sim_cycles": counts["cycles"],
        "timing.sim_instrs": counts["dynamic_instructions"],
        "timing.sim_ipc": counts["dynamic_instructions"] / counts["cycles"],
        "timing.dyn_instr_ratio": (
            counts["instrs_gcn3"] / counts["instrs_hsail"]
            if counts["instrs_hsail"] else 0.0),
        "timing.ifetch_requests": counts["ifetch_requests"],
        "timing.ifetch_misses": counts["ifetch_misses"],
        "timing.l1d_accesses": l1d,
        "timing.l1d_hit_rate": counts["l1d_hits"] / l1d if l1d else 0.0,
        "timing.l2_hit_rate": counts["l2_hits"] / l2 if l2 else 0.0,
        "timing.dram_accesses": counts["dram_accesses"],
        "timing.vmem_requests": counts["vmem_requests"],
        "timing.vrf_bank_conflicts": counts["vrf_bank_conflicts"],
        "timing.ib_flushes": counts["ib_flushes"],
        "timing.stats_sha256_48": int(traced["stats_sha256"][:12], 16),
        "common.merge_ms": total("common.merge"),
        "harness.trace_put_ms": (per_op("harness.trace_finish")
                                 + per_op("harness.trace_put")),
        "harness.trace_blob_kb": traced["trace_blob_kb"],
        "harness.figures_ms": total("harness.figures"),
        "core.session_overhead_ms": (
            (self_ms["core.session_run"]
             + self_ms["core.execute_run_request"]) / cells),
        "bench.calib_ms": med,
        "bench.calib_spread_pct": 100.0 * (q3 - q1) / med,
        "bench.wall_raw_s": statistics.median(
            r["wall_raw_s"] for r in untraced),
        "bench.trace_overhead_pct": (
            100.0 * (traced["wall_ref_s"] - u_wall) / u_wall),
        "bench.span_residual_pct": 100.0 * (1.0 - layers.covered_ns(
            layer_spans, start_ns, end_ns) / (end_ns - start_ns)),
        "bench.functional_share_pct": (
            100.0 * (execute_ms + total("timing.capture_")) / timed_ms),
        "bench.patch_points_missing": len(traced["missing"]),
    }
    if workload == "suite_execute":
        # Every cell is executed, so host time per simulated event is
        # well defined here and nowhere else.
        m["timing.execute_us_per_sim_instr"] = (
            execute_ms * 1000.0 / counts["dynamic_instructions"])
        m["timing.execute_us_per_sim_cycle"] = (
            execute_ms * 1000.0 / counts["cycles"])
        execute_wall_ms = statistics.median(
            sum(r["ops_ref_ms"]) for r in untraced)
        m["timing.record_overhead_pct"] = (
            100.0 * (micro["capture_ms"] - execute_wall_ms) / execute_wall_ms)
        m["timing.semantics_share_est"] = (
            1.0 - micro["replay_scalar_ms"] / execute_wall_ms)
        m["obs.trace_overhead_pct"] = (
            100.0 * (micro["obs_traced_ms"] - micro["obs_plain_ms"])
            / micro["obs_plain_ms"])
        m["obs.events"] = micro["obs_events"]
    if workload in ("sweep_replay", "dist_sweep"):
        m["explore.sweep_overhead_ms_per_cell"] = (
            self_ms["explore.sweep"] / cells)
        m["explore.captures"] = extra["captures"]
        m["explore.replays"] = extra["replays"]
        m["explore.drift"] = extra["drift"]
    if workload == "sweep_replay":
        m["timing.replay_scalar_ms"] = micro["replay_scalar_ms"]
        m["timing.replay_vector_ms"] = micro["replay_vector_ms"]
        m["timing.replay_us_per_sim_instr"] = (
            micro["replay_vector_ms"] * 1000.0 / micro["replayed_instrs"])
        m["harness.trace_get_cold_ms"] = micro["trace_get_cold_ms"]
        m["harness.trace_get_warm_ms"] = micro["trace_get_warm_ms"]
    if workload == "serve_mixed":
        daemon = extra["metrics"]
        m.update({
            "harness.result_put_ms": micro["result_put_ms"],
            "harness.result_get_ms": micro["result_get_ms"],
            "harness.result_kb": micro["result_kb"],
            "harness.payload_roundtrip_ms": micro["payload_roundtrip_ms"],
            "core.request_json_us": micro["request_json_us"],
            "serve.daemon_up_ms": extra["daemon_up_ms"] * k,
            "serve.http_rtt_ms": extra["http_rtt_ms"] * k,
            "serve.submit_ms": per_op("serve.submit"),
            "serve.polls_per_job": extra["polls_per_job"],
            "serve.queue_wait_ms": (daemon["wall_queued_seconds"] * 1000.0 * k
                                    / daemon["submitted"]),
            "serve.service_ms": (daemon["wall_run_seconds"] * 1000.0 * k
                                 / daemon["completed"]),
            "serve.capture_p50_ms": statistics.median(extra["capture_ms"]),
            "serve.replay_p50_ms": (statistics.median(extra["replay_ms"])
                                    if extra["replay_ms"] else 0.0),
            "serve.captures": daemon["captures"],
            "serve.replays": daemon["replays"],
            "serve.batches": daemon["batches"],
            "serve.max_batch": daemon["max_batch"],
            "serve.trace_hits": daemon["trace_hits"],
        })
    if workload == "dist_sweep":
        dist = untraced[0]["extra"]["dist"]
        u_cpu = statistics.median(r["cpu_ref_s"] for r in untraced)
        m.update({
            "dist.overhead_ms_per_cell": (
                (u_wall - control["wall_ref_s"]) * 1000.0 / cells),
            "dist.idle_share": 1.0 - u_cpu / u_wall,
            "dist.coordinator_ms": (self_ms["dist.lease"]
                                    + self_ms["dist.report"]),
            "dist.shards": dist["shards"],
            "dist.leases": sum(w["leases"] for w in dist["workers"].values()),
            "dist.steals": dist["steals"],
            "dist.expiries": dist["expiries"],
            "dist.retries": dist["retries"],
            "dist.duplicate_reports": dist["duplicate_reports"],
        })
    table = sorted(
        ({"span": name, "count": count[name], "total_ms": total_ms[name],
          "self_ms": self_ms[name],
          "self_share_pct": 100.0 * self_ms[name] / timed_ms}
         for name in total_ms), key=lambda row: -row["self_ms"])
    return m, table


# -- the two ways in ------------------------------------------------------------


def traced_pass(workload, seed, sizes, untraced, control):
    """One traced repetition (plus its differential measurements) of one
    workload -> (per-layer metrics, layer table, spans)."""
    traced = run_child(make_plan(workload, seed, len(untraced), sizes),
                       traced=True)
    micro = None
    if workload in MICRO_OF:
        micro = run_child(make_plan(MICRO_OF[workload], seed, 0,
                                    sizes))["extra"]
    metrics, table = layer_metrics(workload, untraced, traced, micro, control)
    return metrics, table, traced


def drive_one(spec, args):
    """Driver mode: one workload, one JSON line."""
    sizes = SIZES["smoke" if args.smoke else "full"]
    min_reps = 1 if args.smoke else MIN_REPS
    reports, control = [], None
    deadline = time.perf_counter() + args.seconds
    if args.workload == "dist_sweep":
        control = run_child(make_plan("sweep_replay", args.seed, 0, sizes))
    if args.trace:
        reports.append(run_child(make_plan(args.workload, args.seed, 0,
                                           sizes)))
        layer, _table, traced = traced_pass(args.workload, args.seed, sizes,
                                            reports, control)
        checked = reports + [traced]
        metrics = {m["name"]: {"value": float(layer.get(m["name"], 0.0)),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        last = 0.0
        while (len(reports) < min_reps
               or time.perf_counter() + last <= deadline):
            start = time.perf_counter()
            reports.append(run_child(make_plan(args.workload, args.seed,
                                               len(reports), sizes)))
            last = time.perf_counter() - start
        checked = reports
        summary = end_to_end(reports)
        metrics = {m["name"]: {"value": summary[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    attempted, failed, failures = check(checked, control)
    for message in failures:
        print(f"FAILED {args.workload}: {message}", file=sys.stderr)
    correct = failed == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def provenance(seed, scrubbed, reps):
    import numpy

    from repro.common.superops import resolve_semantics
    from repro.common.xp import backend_name
    from repro.timing.timewarp import resolve_timing
    from repro.timing.vector import resolve_engine

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "git_commit": commit, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "engine_replay": resolve_engine("auto", replay=True, traced=False),
        "engine_execute": resolve_engine("auto", replay=False, traced=False),
        "timing": resolve_timing("auto"), "semantics": resolve_semantics(),
        "xp_backend": backend_name(), "scrubbed_env": scrubbed,
        "repetitions": reps,
        "model_validation": "unvalidated against hardware",
    }


def drive_all(spec, args, scrubbed):
    """Full mode: every workload, round-robin, then the traced pass."""
    import probe

    sizes = SIZES["smoke" if args.smoke else "full"]
    reps = sizes["reps"]
    names = [w["name"] for w in spec["workloads"]]
    reports = {name: [] for name in names}
    for rep in range(reps):
        for name in names:   # round-robin, so slow drift hits all alike
            reports[name].append(run_child(make_plan(name, args.seed, rep,
                                                     sizes)))
            print(f"  {name} rep {rep + 1}/{reps}: "
                  f"{reports[name][-1]['wall_ref_s']:.2f} s", file=sys.stderr)
    header = provenance(args.seed, scrubbed, reps)
    header["probe_slice_ms_by_rep"] = {
        name: [statistics.median(r["slices_ms"]) for r in reports[name]]
        for name in names}
    header["calib_ref_ms"] = probe.CALIB_REF_MS
    results = {"schema": "repro-e2e/1", "provenance": header,
               "workloads": {}}
    all_spans, tables = [], {}
    any_failed = False
    for name in names:
        control = None
        if name == "dist_sweep":   # the same rounds' serial sweeps
            control = dict(reports["sweep_replay"][0],
                           wall_ref_s=statistics.median(
                               r["wall_ref_s"]
                               for r in reports["sweep_replay"]))
        attempted, failed, failures = check(reports[name], control)
        layer = {}
        if not args.smoke:
            layer, tables[name], traced = traced_pass(
                name, args.seed, sizes, reports[name], control)
            all_spans.extend(traced["spans"])
            _, failed_t, failures_t = check([traced])
            failed += failed_t
            failures += [f"traced: {m}" for m in failures_t]
        any_failed |= bool(failed or failures)
        first = reports[name][0]
        results["workloads"][name] = {
            "end_to_end": end_to_end(reports[name]),
            "per_layer": {m["name"]: float(layer.get(m["name"], 0.0))
                          for m in spec["per_layer"]} if layer else {},
            "counts": first["counts"],
            "stats_sha256": first["stats_sha256"],
            "attempted": attempted, "failed": failed, "failures": failures,
        }
    write_outputs(results, all_spans, tables, args)
    print_results(spec, results)
    return 1 if any_failed else 0


def write_outputs(results, spans, tables, args):
    import layers

    os.makedirs(OUT, exist_ok=True)
    header = results["provenance"]
    path = args.out or os.path.join(OUT, "results.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    if not tables:
        return
    trace = layers.chrome_trace(spans)
    trace["otherData"] = header
    with open(os.path.join(OUT, "trace.json"), "w", encoding="utf-8") as f:
        json.dump(trace, f)
    with open(os.path.join(OUT, "layers.md"), "w", encoding="utf-8") as f:
        f.write("# Layer table (traced pass)\n\n")
        f.write("```json\n" + json.dumps(header, indent=1) + "\n```\n")
        for name, table in tables.items():
            f.write(f"\n## {name}\n\n| span | count | total ms | self ms "
                    f"| self % of timed section |\n|---|---|---|---|---|\n")
            for row in table:
                f.write(f"| {row['span']} | {row['count']} | "
                        f"{row['total_ms']:.1f} | {row['self_ms']:.1f} | "
                        f"{row['self_share_pct']:.1f} |\n")


def print_results(spec, results):
    header = results["provenance"]
    print(f"# repro e2e benchmark, seed {header['seed']}, commit "
          f"{header['git_commit'][:12]}, {header['repetitions']} rep(s); "
          f"host time is host-normalised; the model is "
          f"{header['model_validation']}")
    for name, block in results["workloads"].items():
        print(f"\n## {name}: {block['attempted']} operations, "
              f"{block['failed']} failed")
        for message in block["failures"]:
            print(f"FAILED: {message}")
        for metric in spec["end_to_end"]:
            v = block["end_to_end"][metric["name"]]
            print(f"{metric['name']:<28} {v['value']:>14.4f} "
                  f"{metric['unit']:<9} q1 {v['q1']:.4f} q3 {v['q3']:.4f} "
                  f"n {v['n']}")
        for metric in spec["per_layer"]:
            if block["per_layer"]:
                print(f"{metric['name']:<36} "
                      f"{block['per_layer'][metric['name']]:>16.4f} "
                      f"{metric['unit']}")
        print(f"{'timing.stats_sha256':<36} {block['stats_sha256']}")


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="results file (full mode)")
    args = parser.parse_args(argv)

    # Children inherit this environment; engine knobs must stay "auto".
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        if args.workload:
            return drive_one(spec, args)
        return drive_all(spec, args, scrubbed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
