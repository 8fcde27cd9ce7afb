"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` their flags; the argparse declarations in
:func:`build_parser` are the only synopsis.  Every command that
simulates builds one of the :mod:`repro.core.requests` objects from its
flags and hands it to ``execute_request`` — the same objects
``Session``, the dist workers and the ``repro serve`` daemon execute.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .common.config import paper_config, small_config
from .common.tables import render_table


def _cmd_list(_args: argparse.Namespace) -> int:
    from .workloads import all_workloads

    rows = []
    for wl in all_workloads():
        duals = wl.kernels()
        rows.append([wl.name, wl.description, len(duals)])
    print(render_table(["Workload", "Description", "Kernels"], rows,
                       title="Workloads (paper Table 5)"))
    return 0


# ---- request builders -------------------------------------------------------
# The CLI never calls the harness directly: each command assembles the
# same frozen request object Session would build for the same knobs and
# hands it to execute_request().  Public so tests can assert the
# CLI-built request equals the Session-built one flag for flag.

def parse_override_specs(specs) -> dict:
    """Repeated ``--override path=value`` flags as a with_overrides
    mapping (values take the axis shorthand: ``8k``, ``2.5``, ``true``)."""
    from .common.errors import ConfigError
    from .explore.space import parse_value

    overrides = {}
    for spec in specs or []:
        path, sep, raw = spec.partition("=")
        if not sep or not path.strip() or not raw.strip():
            raise ConfigError(
                f"bad override {spec!r}: expected path=value "
                f"(e.g. -O l1d.size_bytes=32k)"
            )
        overrides[path.strip()] = parse_value(raw.strip())
    return overrides


def config_from_args(args: argparse.Namespace):
    """The GpuConfig the CLI flags describe: --cus picks the base
    machine, repeated --override edits dotted paths on top."""
    cus = getattr(args, "cus", 8)
    config = paper_config() if cus == 8 else small_config(cus)
    overrides = parse_override_specs(getattr(args, "override", None))
    if overrides:
        config = config.with_overrides(overrides)
    return config


def _request_from_args(cls, args: argparse.Namespace, **fields):
    """``cls`` built from every flag whose dest is one of its field
    names, so a new request field needs one argparse flag and no edit
    here.  --cus/--override become ``config``; ``fields`` carries the
    few flags whose spelling differs from the field they set."""
    picked = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
              if hasattr(args, f.name)}
    if hasattr(args, "no_cache"):
        picked["use_disk_cache"] = False if args.no_cache else None
    picked.update(fields, config=config_from_args(args))
    return cls(**picked)


def run_request_from_args(args: argparse.Namespace,
                          isa: Optional[str] = None, **fields):
    """The RunRequest ``repro run|trace|per-kernel`` executes (one per
    requested ISA) — field-identical to
    ``Session(config).build_run_request(...)``."""
    from .core.requests import RunRequest

    if isa is not None:
        fields["isa"] = isa
    return _request_from_args(RunRequest, args, **fields)


def suite_request_from_args(args: argparse.Namespace):
    """The SuiteRequest ``repro figures`` executes."""
    from .core.requests import SuiteRequest

    return _request_from_args(SuiteRequest, args)


def sweep_request_from_args(args: argparse.Namespace):
    """The SweepRequest ``repro sweep`` executes (raises ConfigError /
    RequestError on malformed axes)."""
    from .core.requests import SweepRequest

    return _request_from_args(
        SweepRequest, args, axes=args.axis,
        workloads=args.workloads.split(",") if args.workloads else None,
        resume=args.resume or False,
        verify_replay=not args.no_verify_replay)


def _cmd_run(args: argparse.Namespace) -> int:
    from .common.errors import ConfigError
    from .core.requests import RequestError, execute_request

    isas = ["hsail", "gcn3"] if args.isa == "both" else [args.isa]
    rows = []
    for isa in isas:
        try:
            run = execute_request(run_request_from_args(args, isa))
        except (ConfigError, RequestError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        snap = run.total.snapshot()
        rows.append([
            isa.upper(),
            "yes" if run.verified else "NO",
            run.cycles,
            run.dynamic_instructions,
            round(run.total.ipc, 3),
            int(snap.get("ib_flushes", 0)),
            int(snap.get("vrf_bank_conflicts", 0)),
            round(100 * snap.get("simd_utilization", 0.0), 1),
            run.data_footprint_bytes,
            run.instr_footprint_bytes,
            f"{run.wall_seconds:.1f}s",
        ])
    print(render_table(
        ["ISA", "verified", "cycles", "dyn instrs", "IPC", "IB flushes",
         "VRF conflicts", "SIMD%", "data B", "code B", "wall"],
        rows,
        title=f"{args.workload} @ scale {args.scale}, {args.cus} CUs",
    ))
    return 0 if all(r[1] == "yes" for r in rows) else 1


def _progress_printer(event) -> None:
    print(event.format(), file=sys.stderr)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.requests import execute_request
    from .obs import TraceConfig, text_report, write_chrome_trace, write_jsonl

    run = execute_request(run_request_from_args(args, trace=TraceConfig.parse(
        args.categories, sample_every=args.sample,
        max_events=args.max_events)))
    trace = run.trace
    assert trace is not None  # a traced run always carries TraceData
    out = args.out or f"{args.workload}_{args.isa}.trace.json"
    if args.format == "chrome":
        write_chrome_trace(trace, out, metadata={
            "workload": args.workload, "isa": args.isa,
            "scale": args.scale, "cycles": run.cycles,
        })
    else:
        write_jsonl(trace, out)
    if not args.quiet:
        print(text_report(trace, stats=run.total,
                          title=f"{args.workload}/{args.isa} @ scale "
                                f"{args.scale:g}"))
    print(f"wrote {len(trace.events)} events to {out}"
          + (f" ({trace.dropped} dropped at the cap)" if trace.dropped else ""))
    return 0 if run.verified else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    import re

    from .obs import METRICS

    pattern = re.compile(args.match) if args.match else None
    rows = []
    for metric in METRICS:
        if pattern is not None and not pattern.search(metric.name):
            continue
        rows.append([
            metric.name,
            metric.kind.value,
            metric.metric_class.value,
            metric.unit,
            metric.scope.value,
            metric.description,
        ])
    print(render_table(["Metric", "Kind", "Class", "Unit", "Scope",
                        "Description"],
                       rows, title="Metric registry (repro.obs.METRICS)"))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .harness.report import write_report

    keys = args.only.split(",") if args.only else None
    results = suite_request_from_args(args).execute(
        progress=None if args.quiet else _progress_printer)
    for workload, isa, error in results.failures():
        print(f"FAILED {workload}/{isa}: {error}", file=sys.stderr)
    if args.json:
        text = results.to_json()
        if args.output:
            with open(args.output, "w") as f:
                f.write(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
    elif args.output:
        with open(args.output, "w") as f:
            write_report(results, f, keys)
        print(f"wrote {args.output}")
    else:
        write_report(results, sys.stdout, keys)
    return 0 if results.all_verified() else 1


def _cmd_disasm(args: argparse.Namespace) -> int:
    from .workloads import create

    workload = create(args.workload, scale=args.scale)
    duals = workload.kernels()
    names = [args.kernel] if args.kernel else sorted(duals)
    for name in names:
        if name not in duals:
            print(f"no kernel {name!r}; available: {sorted(duals)}",
                  file=sys.stderr)
            return 2
        dual = duals[name]
        if args.isa in ("hsail", "both"):
            print(dual.hsail.pretty())
            print()
        if args.isa in ("gcn3", "both"):
            print(dual.gcn3.pretty())
            print()
        print(f"expansion: {dual.expansion_ratio:.2f}x | "
              f"HSAIL {dual.hsail.code_bytes} B (8 B/instr) | "
              f"GCN3 {dual.gcn3.code_bytes} B encoded")
        print()
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .harness.diffing import diff_files

    deltas = diff_files(args.before, args.after)
    if not deltas:
        print("no meaningful differences")
        return 0
    for delta in deltas:
        print(delta.render())
    return 1


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from .harness.cache import ResultCache, TraceStore, source_tree_stamp

    cache = ResultCache(args.cache_dir)
    trace_dir = args.trace_dir or os.path.join(str(cache.directory),
                                               "traces")
    store = TraceStore(trace_dir)
    if args.clear:
        removed = cache.clear()
        traces = store.clear()
        print(f"removed {removed} cached result(s) from {cache.directory} "
              f"and {traces} trace(s) from {store.directory}")
        return 0
    if args.prune_older_than is not None:
        try:
            removed, freed = cache.prune_older_than(args.prune_older_than)
            t_removed, t_freed = store.prune_older_than(
                args.prune_older_than)
        except ValueError as exc:
            print(f"error: --prune-older-than: {exc}", file=sys.stderr)
            return 2
        print(f"pruned {removed} entrie(s) older than "
              f"{args.prune_older_than:g} day(s) from {cache.directory} "
              f"({freed} bytes freed)")
        print(f"pruned {t_removed} trace(s) from {store.directory} "
              f"({t_freed} bytes freed)")
        return 0
    try:
        entries = sorted(cache.directory.glob("*.json"))
    except OSError:
        entries = []
    total_bytes = sum(p.stat().st_size for p in entries if p.is_file())
    print(f"cache dir:    {cache.directory}")
    print(f"entries:      {len(entries)}")
    print(f"size:         {total_bytes} bytes")
    print(f"source stamp: {source_tree_stamp()}")
    breakdown = cache.breakdown()
    if breakdown:
        rows = [[config, usage["entries"], usage["bytes"]]
                for config, usage in sorted(
                    breakdown.items(),
                    key=lambda kv: (-kv[1]["bytes"], kv[0]))]
        print()
        print(render_table(["Config fingerprint", "Entries", "Bytes"], rows,
                           title="Per-config usage (sweeps multiply this)"))
    traces = store.breakdown()
    trace_bytes = sum(usage["bytes"] for usage in traces.values())
    print()
    print(f"trace store:  {store.directory}")
    print(f"traces:       {len(traces)}")
    print(f"trace bytes:  {trace_bytes}")
    if traces:
        rows = [[fp, usage["bytes"]]
                for fp, usage in sorted(traces.items(),
                                        key=lambda kv: (-kv[1]["bytes"],
                                                        kv[0]))]
        print()
        print(render_table(
            ["Functional fingerprint", "Bytes"], rows,
            title="Stored traces (one per workload x ISA x functional "
                  "config)"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .common.errors import ConfigError
    from .core.requests import RequestError
    from .explore import analyze
    from .explore.space import build_space
    from .explore.sweep import SweepLedger

    try:
        request = sweep_request_from_args(args)
        build_space(request.axes, request.mode)
    except (ConfigError, RequestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        # A ledger that is never opened: the spec resolves exactly as a
        # real run resolves it (engine knob, resume id) and no journal
        # is touched.
        ledger = SweepLedger(request)
        points = ledger.points
        workloads = ledger.results.workloads
        invalid = [p for p in points if not p.valid]
        rows = [[p.point_id, p.fingerprint() or "-",
                 "ok" if p.valid else f"INVALID: {p.error}"]
                for p in points]
        print(render_table(
            ["Point", "Config fingerprint", "Validation"], rows,
            title=f"Dry run: {len(points)} point(s) x "
                  f"{len(workloads)} workload(s) x {len(request.isas)} "
                  f"ISAs = "
                  f"{len(points) * len(workloads) * len(request.isas)} "
                  f"cell(s)"))
        print(f"\nsweep id: {ledger.results.sweep_id} (no cells simulated)")
        if invalid:
            print(f"{len(invalid)} invalid point(s)", file=sys.stderr)
        return 1 if invalid else 0

    if args.workers or args.worker_url:
        from .dist import run_dist_sweep

        results = run_dist_sweep(
            request,
            workers=args.workers,
            worker_urls=args.worker_url or (),
            progress=None if args.quiet else _progress_printer,
            log=(None if args.quiet
                 else (lambda message: print(message, file=sys.stderr))),
        )
        dist = results.dist_payload()
        print(f"dist: {len(dist['workers'])} worker(s), "
              f"{dist['shards']} shard(s), {dist['steals']} steal(s), "
              f"{dist['expiries']} lease expiry(ies), "
              f"{dist['retries']} retry(ies), "
              f"{dist['duplicate_reports']} duplicate report(s)",
              file=sys.stderr)
        if args.dist_output:
            with open(args.dist_output, "w") as f:
                f.write(results.to_json() + "\n")
            print(f"wrote {args.dist_output}")
    else:
        results = request.execute(
            progress=None if args.quiet else _progress_printer)
    print(f"sweep {results.sweep_id}: {len(results.points)} point(s), "
          f"{results.replayed()} from journal, "
          f"{len(results.failed_points)} failed "
          f"(journal: {results.journal_path})", file=sys.stderr)
    if results.execution != "execute":
        verified = (f", guard re-executed {results.verified_cell}"
                    if results.verified_cell else "")
        print(f"trace replay: {results.captures} capture(s), "
              f"{results.replays} replay(s), "
              f"drift={results.replay_drift}{verified}", file=sys.stderr)
        if results.derived:
            print(f"eviction-free equivalence: {results.replays} replays, "
                  f"{results.derived} derived from "
                  f"{results.replays - results.derived} witnesses",
                  file=sys.stderr)
        if results.replay_drift:
            print("REPLAY DRIFT: replayed statistics disagree with "
                  "functional re-execution; clear the trace store",
                  file=sys.stderr)
    for pr in results.failed_points:
        print(f"FAILED {pr.point.point_id}: {pr.error}", file=sys.stderr)

    try:
        reports = []
        if args.report in ("points", "all"):
            reports.append(analyze.points_report(results, args.response))
        if args.report in ("curve", "all"):
            reports += [analyze.curve_report(results, axis, args.response)
                        for axis in results.axes]
        if args.report in ("tornado", "all"):
            reports.append(analyze.tornado(results, args.response))

        out = args.output if args.output else sys.stdout
        if args.format == "csv":
            analyze.write_csv(results, out, args.response)
        elif args.format == "json":
            analyze.write_json(results, out, args.response)
        elif args.format == "markdown":
            analyze.write_markdown(results, out, args.response,
                                   reports=reports)
        else:
            analyze.write_text(results, out, args.response, reports=reports)
        if args.output:
            print(f"wrote {args.output}")

        for axis in results.axes:
            for w in results.workloads:
                wall = analyze.threshold(results, axis, w, args.response,
                                         factor=args.threshold_factor)
                if wall is not None:
                    print(f"threshold: {w} {args.response} exceeds "
                          f"{args.threshold_factor:g}x its value at max "
                          f"{axis.path} for {axis.path} <= {wall}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if (results.failed_points or results.replay_drift) else 0


def _cmd_per_kernel(args: argparse.Namespace) -> int:
    from .core.requests import execute_request

    runs = {isa: execute_request(run_request_from_args(args, isa))
            for isa in ("hsail", "gcn3")}
    hs = runs["hsail"].per_kernel_totals()
    g3 = runs["gcn3"].per_kernel_totals()
    rows = []
    for name in sorted(hs):
        h, g = hs[name], g3[name]
        rows.append([
            name,
            h.dynamic_instructions, g.dynamic_instructions,
            round(g.dynamic_instructions / max(1, h.dynamic_instructions), 2),
            h.cycles, g.cycles,
            round(h.cycles / max(1, g.cycles), 2),
        ])
    print(render_table(
        ["Kernel", "HSAIL dyn", "GCN3 dyn", "expand",
         "HSAIL cyc", "GCN3 cyc", "HSAIL/GCN3"],
        rows, title=f"{args.workload}: per-kernel statistics"))
    return 0


#: Flags that more than one command takes, declared once.  A flag's dest
#: is the request field it sets (that is how ``_request_from_args`` finds
#: it), except the hand-mapped ``--no-cache`` and ``--cus``/``--override``.
_SHARED_FLAGS = {
    "scale": (("--scale", "-s"), dict(
        type=float, default=0.5,
        help="workload input scale (default %(default)s)")),
    "seed": (("--seed",), dict(type=int, default=7)),
    "cus": (("--cus",), dict(
        type=int, default=8, help="base machine CU count (8 = paper config)")),
    "override": (("--override", "-O"), dict(
        action="append", metavar="PATH=VALUE",
        help="edit one dotted config path on top of the base machine, e.g. "
             "-O l1d.size_bytes=32k (repeatable; axis value shorthand "
             "applies)")),
    "execution": (("--execution",), dict(
        choices=["auto", "execute", "capture", "replay"], default="execute",
        help="where the instruction stream the CU model replays comes "
             "from: execute = a functional pass, trace dropped afterwards "
             "(default); capture = the same, trace kept in the store; "
             "replay = a stored trace, no functional pass; auto = replay "
             "when the store has one, capture otherwise")),
    "trace_dir": (("--trace-dir",), dict(
        help="trace store directory (default <cache-dir>/traces)")),
    "engine": (("--engine",), dict(
        choices=["auto", "scalar", "vector"], default=None,
        help="replay cursor for every cell: auto and vector batch-decode "
             "each wavefront's trace, scalar walks the raw records (same "
             "statistics and cycles; default: keep the config's engine)")),
    "jobs": (("--jobs", "-j"), dict(
        type=int, default=1,
        help="worker processes (0 = one per core; default 1)")),
    "no_cache": (("--no-cache",), dict(
        action="store_true", help="skip the on-disk result cache entirely")),
    "cache_dir": (("--cache-dir",), dict(
        help="result cache directory (default .repro_cache/ or "
             "$REPRO_CACHE_DIR)")),
    "job_timeout": (("--job-timeout",), dict(
        type=float,
        help="per-job wall-clock limit in seconds (each job runs in a "
             "forked child, killed on overrun)")),
    "quiet": (("--quiet", "-q"), dict(
        action="store_true", help="suppress progress/log lines on stderr")),
}
_MACHINE = ("scale", "seed", "cus", "override")
_EXECUTION = ("execution", "trace_dir", "engine")
_POOL = ("jobs", "no_cache", "cache_dir", "job_timeout", "quiet")


def _shared(*names: str, **tweaks: dict) -> argparse.ArgumentParser:
    """A parent parser carrying the named shared flags; ``tweaks`` adjusts
    one flag's keywords for one command (a default, narrower choices).
    Built per command because argparse parents share Action objects."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        flags, keywords = _SHARED_FLAGS[name]
        parent.add_argument(*flags, **{**keywords, **tweaks.get(name, {})})
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dual-ISA GPU simulation ('Lost in Abstraction', HPCA'18)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the workload registry")

    run_p = sub.add_parser("run", help="simulate one workload",
                           parents=[_shared(*_MACHINE, *_EXECUTION)])
    run_p.add_argument("--workload", "-w", required=True)
    run_p.add_argument("--isa", "-i", choices=["hsail", "gcn3", "both"],
                       default="both")

    trace_p = sub.add_parser(
        "trace", help="simulate one workload with cycle-level tracing",
        parents=[_shared("scale", "cus", "quiet", scale=dict(default=0.25),
                         quiet=dict(help="skip the stall/occupancy text "
                                         "report"))])
    trace_p.add_argument("workload", help="workload name (see 'repro list')")
    trace_p.add_argument("--isa", "-i", choices=["hsail", "gcn3"],
                         default="gcn3")
    trace_p.add_argument("--out", "-o",
                         help="output file (default "
                              "<workload>_<isa>.trace.json)")
    trace_p.add_argument("--format", "-f", choices=["chrome", "jsonl"],
                         default="chrome",
                         help="chrome = trace_event JSON for "
                              "Perfetto/chrome://tracing; jsonl = one "
                              "event per line")
    trace_p.add_argument("--categories", "-c",
                         help="comma-separated event categories "
                              "(default all: issue,mem,cache,vrf,flush,"
                              "stall,wait,dispatch,fetch)")
    trace_p.add_argument("--sample", type=int, default=1,
                         help="keep every Nth event per category "
                              "(stall *accounting* stays exact)")
    trace_p.add_argument("--max-events", type=int, default=1_000_000,
                         help="hard cap on recorded events")

    met_p = sub.add_parser("metrics", help="print the metric registry")
    met_p.add_argument("--match", "-m",
                       help="only metrics whose name matches this regex")

    fig_p = sub.add_parser("figures", help="regenerate the evaluation",
                           parents=[_shared("scale", *_POOL)])
    fig_p.add_argument("--only", help="comma-separated keys, e.g. fig05,fig09")
    fig_p.add_argument("--output", "-o", help="write to a file")
    fig_p.add_argument("--json", action="store_true",
                       help="emit the raw result matrix as JSON")

    sweep_p = sub.add_parser(
        "sweep", help="design-space sweep over config axes",
        parents=[_shared(
            "scale", "seed", "cus", *_EXECUTION, *_POOL,
            execution=dict(
                choices=["auto", "execute", "replay"], default="auto",
                help="auto = one functional pass per workload x ISA x "
                     "functional fingerprint, its trace replayed at every "
                     "other point (default); execute = a functional pass "
                     "per cell; replay = require every trace to already "
                     "exist"))])
    sweep_p.add_argument("--axis", "-a", action="append", required=True,
                         metavar="PATH=V1,V2,...",
                         help="swept config path and values, e.g. "
                              "l1i.size_bytes=8k,16k,32k (repeatable)")
    sweep_p.add_argument("--mode", choices=["grid", "ofat"], default="grid",
                         help="grid = cartesian product; ofat = base + "
                              "one factor at a time")
    sweep_p.add_argument("--workloads", "-w",
                         help="comma-separated workload names (default all)")
    sweep_p.add_argument("--resume", nargs="?", const=True, default=None,
                         metavar="ID",
                         help="resume a journaled sweep: bare --resume "
                              "re-derives the id from the spec, or give "
                              "the id printed by the previous run")
    sweep_p.add_argument("--dry-run", action="store_true",
                         help="enumerate and validate points only")
    sweep_p.add_argument("--report", choices=["points", "curve", "tornado",
                                              "all"],
                         default="all", help="which sensitivity report(s)")
    sweep_p.add_argument("--response", default="ratio:ifetch_misses",
                         help="response spec: ratio:<metric> (GCN3/HSAIL), "
                              "inv_ratio:<metric>, hsail:<metric>, "
                              "gcn3:<metric>")
    sweep_p.add_argument("--threshold-factor", type=float, default=2.0,
                         help="explosion factor for threshold detection")
    sweep_p.add_argument("--format", "-f",
                         choices=["text", "csv", "json", "markdown"],
                         default="text")
    sweep_p.add_argument("--output", "-o", help="write the report to a file")
    sweep_p.add_argument("--no-verify-replay", action="store_true",
                         help="skip the drift guard's sampled "
                              "re-execution of one replayed cell")
    sweep_p.add_argument("--workers", type=int, default=0,
                         help="distribute the sweep: fork N local "
                              "workers from this process, each talking "
                              "to the coordinator over its own "
                              "socketpair (0 = run single-host)")
    sweep_p.add_argument("--worker-url", action="append", default=[],
                         metavar="URL",
                         help="also use the 'repro serve' daemon at URL "
                              "as a sweep worker (repeatable; composable "
                              "with --workers)")
    sweep_p.add_argument("--dist-output", metavar="FILE",
                         help="write the DistSweepResults JSON (per-"
                              "worker cells, steals, expiries, retries)")

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache",
                             parents=[_shared("cache_dir", "trace_dir")])
    cache_p.add_argument("--clear", action="store_true",
                         help="delete every cached result and stored trace")
    cache_p.add_argument("--prune-older-than", type=float, metavar="DAYS",
                         help="delete results and traces older than this "
                              "many days")

    diff_p = sub.add_parser("diff", help="compare two --json exports")
    diff_p.add_argument("before")
    diff_p.add_argument("after")

    pk_p = sub.add_parser("per-kernel", help="per-kernel dual-ISA stats",
                          parents=[_shared("scale", "cus")])
    pk_p.add_argument("--workload", "-w", required=True)

    dis_p = sub.add_parser("disasm", help="print kernel listings",
                           parents=[_shared("scale",
                                            scale=dict(default=0.25))])
    dis_p.add_argument("--workload", "-w", required=True)
    dis_p.add_argument("--kernel", "-k")
    dis_p.add_argument("--isa", "-i", choices=["hsail", "gcn3", "both"],
                       default="both")

    serve_p = sub.add_parser(
        "serve", help="resident simulation daemon (HTTP, batched "
                      "scheduling over the shared trace store)",
        parents=[_shared("trace_dir", "cache_dir", "job_timeout", "quiet")])
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", "-p", type=int, default=8642,
                         help="listen port (0 = pick an ephemeral port "
                              "and print it)")
    serve_p.add_argument("--rate-limit", type=float, default=0.0,
                         help="sustained requests/second allowed per "
                              "client before 429 (0 = unlimited)")
    serve_p.add_argument("--rate-burst", type=float, default=10.0,
                         help="token-bucket burst size per client")
    serve_p.add_argument("--max-queue", type=int, default=256,
                         help="queued jobs before new submissions get 503")
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import serve_main

    return serve_main(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "figures": _cmd_figures,
        "disasm": _cmd_disasm,
        "diff": _cmd_diff,
        "per-kernel": _cmd_per_kernel,
        "cache": _cmd_cache,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
