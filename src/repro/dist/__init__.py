"""repro.dist — distributed sweep sharding over pull-based workers.

The distributed *dispatch policy* over the sweep ledger
(:class:`~repro.explore.sweep.SweepLedger`).  The ledger resolves a
:class:`~repro.core.requests.SweepRequest`, replays what the journal and
caches already know, and hands back the live (point x workload x ISA)
cells; :mod:`repro.dist.shard` cuts the ledger's trace groups into
content-addressed shards; a coordinator (:mod:`repro.dist.coordinator`)
leases shards to workers, hands every streamed cell to the ledger —
the journal's single writer — and lets idle workers steal from the
largest outstanding lease.  A lease ends when its holder ends or a
report is refused, not at a heartbeat deadline; one that ends with
cells left requeues its shard with completed cells subtracted (zero
resimulation).  The trade: a worker frozen whole (SIGSTOP) keeps its
last cell until the sweep's timeout.  A worker
(:mod:`repro.dist.worker`) is one of three kinds: a local one forked
from the coordinator's process on its own socketpair (``workers=N``,
and ``--jobs N``), an in-process thread that forwards cells to a
``repro serve`` daemon (``worker_urls``), or the inline safety net
that runs what no other worker is left to run.  Each runs the ledger's own cell requests and
reports every :class:`~repro.harness.runner.WorkloadRun` as itself;
only the daemon-backed one syncs traces and decodes a run (from the
daemon's HTTP).  Work stealing is the one load balancer.  Nothing here
imports the serve layer unless a daemon-backed worker is built.

Because the serial executor writes through the same ledger, the
distributed journal is bit-identical (modulo wall-clock fields) to the
serial one for the same spec, and either resumes the other's —
checkable with :func:`journal_digest`::

    from repro.dist import run_dist_sweep

    results = run_dist_sweep(request, workers=4)
    print(results.to_json())          # includes the "dist" ledger
"""

from .coordinator import (
    Coordinator,
    DistSweep,
    DistSweepResults,
    WorkerStats,
    journal_digest,
    run_dist_sweep,
)
from .shard import ShardState, group_shards, shard_id_for
from .worker import (
    DaemonBackend,
    EmbeddedBackend,
    Worker,
)

__all__ = [
    "Coordinator",
    "DaemonBackend",
    "DistSweep",
    "DistSweepResults",
    "EmbeddedBackend",
    "ShardState",
    "Worker",
    "WorkerStats",
    "group_shards",
    "journal_digest",
    "run_dist_sweep",
    "shard_id_for",
]
