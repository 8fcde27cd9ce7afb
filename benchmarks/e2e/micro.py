"""Differential measurements of the traced pass.

Some layer costs only show when the same cells run two ways (capture vs
execute, scalar vs vector replay, traced vs untraced issue loop) or when
a store is called in isolation.  These run after the traced repetition,
in a child process of their own (child.py hands them its :class:`Meter`),
by calling public functions directly; every call is one meter segment,
so it is normalised by the probe slices on either side of it.

``micro_suite`` rides with ``suite_execute``, ``micro_sweep`` with
``sweep_replay`` and ``micro_serve`` with ``serve_mixed``.
"""

import json
import os
import statistics


def point_config(l1d_bytes):
    """The paper machine with one L1D size: a sweep point, a serve
    request's config."""
    from repro.common.config import paper_config

    return paper_config().with_overrides({"l1d.size_bytes": l1d_bytes})


def _timed_ms(meter, call):
    """(result, host-normalised ms) of one call, as one meter segment."""
    result = call()
    segment = meter.mark(op=False)
    start, end, _ = meter.segments[segment]
    return result, (end - start) * meter.factor(segment) * 1000.0


def micro_suite(plan, meter):
    """Capture and scalar-replay the suite's cells (the driver compares
    both with the untraced ``execute`` walls of the same cells), and run
    two cells with and without an event trace."""
    from repro.common.config import paper_config
    from repro.core import Session
    from repro.obs import TraceConfig

    session = Session(paper_config())
    common = dict(scale=plan["scale"], seed=plan["data_seed"],
                  trace_dir=plan["dirs"]["traces"])
    capture_ms = replay_ms = 0.0
    meter.start()
    for workload, isa in plan["cells"]:
        _, ms = _timed_ms(meter, lambda: session.run(
            workload, isa, execution="capture", **common))
        capture_ms += ms
        _, ms = _timed_ms(meter, lambda: session.run(
            workload, isa, execution="replay", engine="scalar", **common))
        replay_ms += ms
    plain_ms = traced_ms = 0.0
    events = 0
    for workload, isa in plan["obs_cells"]:
        obs = dict(scale=plan["obs_scale"], seed=plan["data_seed"])
        _, ms = _timed_ms(meter, lambda: session.run(workload, isa, **obs))
        plain_ms += ms
        run, ms = _timed_ms(meter, lambda: session.run(
            workload, isa, trace=TraceConfig(), **obs))
        traced_ms += ms
        events += len(run.trace.events)
    return {"capture_ms": capture_ms, "replay_scalar_ms": replay_ms,
            "obs_plain_ms": plain_ms, "obs_traced_ms": traced_ms,
            "obs_events": events}


def micro_sweep(plan, meter):
    """Replay the sweep's cells under both cycle engines, and time the
    trace store alone: a cold parse, a memo hit and a put."""
    from repro.core import Session
    from repro.harness.cache import (TraceStore, clear_trace_memo,
                                     trace_fingerprint)

    traces = plan["dirs"]["traces"]
    store = TraceStore(traces)
    common = dict(scale=plan["scale"], seed=plan["data_seed"],
                  trace_dir=traces)
    engine_ms = {"scalar": 0.0, "vector": 0.0}
    replayed_instrs = 0
    cold, warm, put = [], [], []
    meter.start()
    for workload in plan["workloads"]:
        base = point_config(plan["l1d_sizes"][0])
        Session(base).run(workload, "gcn3", execution="capture", **common)
        meter.mark(op=False)
        for l1d in plan["l1d_sizes"]:
            session = Session(point_config(l1d))
            for engine in engine_ms:
                run, ms = _timed_ms(meter, lambda: session.run(
                    workload, "gcn3", execution="replay", engine=engine,
                    **common))
                engine_ms[engine] += ms
            replayed_instrs += run.dynamic_instructions
        fingerprint = trace_fingerprint(base, workload, "gcn3",
                                        plan["scale"], plan["data_seed"])
        clear_trace_memo()
        trace, ms = _timed_ms(meter, lambda: store.get(fingerprint))
        cold.append(ms)
        warm.append(_timed_ms(meter, lambda: store.get(fingerprint))[1])
        put.append(_timed_ms(
            meter, lambda: store.put(fingerprint + "-copy", trace))[1])
    return {"replay_scalar_ms": engine_ms["scalar"],
            "replay_vector_ms": engine_ms["vector"],
            "replayed_instrs": replayed_instrs,
            "trace_get_cold_ms": statistics.mean(cold),
            "trace_get_warm_ms": statistics.mean(warm),
            "trace_put_ms": statistics.mean(put)}


def micro_serve(plan, meter):
    """What every result pays to cross a process boundary: the result
    cache, the payload round trip and the request envelope."""
    from repro.common.config import paper_config
    from repro.core import RunRequest, Session
    from repro.harness.cache import ResultCache, job_fingerprint
    from repro.harness.runner import WorkloadRun

    config = paper_config()
    workload, isa = plan["cell"]
    request = Session(config).build_run_request(
        workload, isa, scale=plan["scale"], seed=plan["data_seed"],
        execution="auto")
    run = Session(config).run(workload, isa, scale=plan["scale"],
                              seed=plan["data_seed"])
    cache = ResultCache(plan["dirs"]["cache"])
    fingerprint = job_fingerprint(config, workload, isa, plan["scale"],
                                  plan["data_seed"])
    rounds = plan["rounds"]
    meter.start()
    put_ms = get_ms = trip_ms = json_ms = 0.0
    for _ in range(rounds):
        put_ms += _timed_ms(meter, lambda: cache.put(fingerprint, run))[1]
        get_ms += _timed_ms(meter, lambda: cache.get(fingerprint))[1]
        trip_ms += _timed_ms(meter, lambda: WorkloadRun.from_payload(
            json.loads(json.dumps(run.to_payload()))))[1]
        json_ms += _timed_ms(
            meter, lambda: RunRequest.from_json(request.to_json()))[1]
    entry = os.path.join(plan["dirs"]["cache"], f"{fingerprint}.json")
    return {"result_put_ms": put_ms / rounds, "result_get_ms": get_ms / rounds,
            "payload_roundtrip_ms": trip_ms / rounds,
            "request_json_us": json_ms / rounds * 1000.0,
            "result_kb": os.path.getsize(entry) / 1024.0}


MICRO = {"micro_suite": micro_suite, "micro_sweep": micro_sweep,
         "micro_serve": micro_serve}
