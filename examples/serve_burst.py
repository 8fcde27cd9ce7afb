#!/usr/bin/env python
"""Warm daemon vs cold CLI: the ``repro serve`` batching win.

Ten run requests that share one functional fingerprint (same workload,
ISA, scale, seed — only timing config differs: ten L1D sizes) are
served two ways:

* **cold** — ten fresh ``python -m repro run`` processes, each paying
  interpreter start-up, kernel compilation, and full functional
  execution;
* **warm** — one resident ``repro serve`` daemon: the scheduler groups
  the burst by trace fingerprint, captures the functional trace once,
  and replays it through the timing model for the other nine.

The script asserts the daemon's statistics are bit-identical to
in-process execution, that exactly 1 capture + 9 replays happened, and
prints the wall-time ratio (EXPERIMENTS.md quotes a run of this).

Run:  python examples/serve_burst.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.common.config import small_config
from repro.core import Session
from repro.serve import DaemonClient

WORKLOAD, ISA, SCALE, SEED, CUS = "lulesh", "gcn3", 0.5, 7, 2
L1D_SIZES = [4096, 8192, 12288, 16384, 24576, 32768, 40960, 49152,
             65536, 131072]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def request_for(size: int):
    config = small_config(CUS).with_overrides({"l1d.size_bytes": size})
    return Session(config).build_run_request(
        WORKLOAD, ISA, scale=SCALE, seed=SEED, execution="auto")


def cold_burst() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.monotonic()
    for size in L1D_SIZES:
        subprocess.run(
            [sys.executable, "-m", "repro", "run", "-w", WORKLOAD,
             "-i", ISA, "-s", str(SCALE), "--cus", str(CUS),
             "--seed", str(SEED), "-O", f"l1d.size_bytes={size}"],
            check=True, env=env, stdout=subprocess.DEVNULL)
    return time.monotonic() - start


def warm_burst(tmp: str):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
         "--trace-dir", f"{tmp}/traces", "--cache-dir", f"{tmp}/cache"],
        stdout=subprocess.PIPE, env=env, text=True)
    port = None
    for line in daemon.stdout:
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    assert port, "daemon never came up"
    client = DaemonClient("127.0.0.1", port, client_id="burst")
    try:
        start = time.monotonic()
        jobs = [client.submit(request_for(size)) for size in L1D_SIZES]
        statuses = [client.wait(job.job_id, timeout=600) for job in jobs]
        wall = time.monotonic() - start
        metrics = client.metrics()
        return wall, statuses, metrics
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print(f"burst: {len(L1D_SIZES)} x {WORKLOAD}/{ISA} scale={SCALE} "
              f"(one functional group, {len(L1D_SIZES)} L1D sizes)")
        cold = cold_burst()
        print(f"cold CLI : {cold:6.2f}s  "
              f"({len(L1D_SIZES)} processes, {len(L1D_SIZES)} functional "
              f"executions)")
        warm, statuses, metrics = warm_burst(tmp)
        executions = [status.execution for status in statuses]
        print(f"warm serve: {warm:6.2f}s  ({metrics.captures} capture + "
              f"{metrics.replays} replays, max batch {metrics.max_batch})")
        print(f"speedup   : {cold / warm:6.2f}x")

        assert executions.count("capture") == 1, executions
        # a replay answered from an eviction-free witness says "derived"
        assert sum(e in ("replay", "derived") for e in executions) == (
            len(L1D_SIZES) - 1), executions
        for status, size in zip(statuses, L1D_SIZES):
            assert status.state == "done", status.error
            direct = Session(
                small_config(CUS).with_overrides({"l1d.size_bytes": size})
            ).run(WORKLOAD, ISA, scale=SCALE, seed=SEED).to_payload()
            got = {k: v for k, v in status.result.items()
                   if k not in ("wall_seconds", "execution")}
            direct.pop("wall_seconds", None)
            assert got == direct, f"stats drifted at l1d={size}"
        print("verified  : daemon statistics bit-identical to in-process "
              "execution")
        return 0 if cold / warm >= 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
