"""repro.dist — distributed sweep sharding over pull-based workers.

The distributed *dispatch policy* over the sweep ledger
(:class:`~repro.explore.sweep.SweepLedger`).  The ledger resolves a
:class:`~repro.core.requests.SweepRequest`, replays what the journal and
caches already know, and hands back the live (point x workload x ISA)
cells; :mod:`repro.dist.shard` cuts the ledger's trace groups into
content-addressed shards; a coordinator (:mod:`repro.dist.coordinator`)
leases shards to workers under heartbeat leases
(:mod:`repro.dist.lease`), hands every streamed cell to the ledger —
the journal's single writer — requeues expired leases with completed
cells subtracted (zero resimulation), and lets idle workers steal from
the largest outstanding lease.  Workers (:mod:`repro.dist.worker`) run
cells in-process (``workers=N`` forks N local ones from the coordinator's
process) or on remote ``repro serve`` daemons.

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
from .lease import LeaseState, LeaseTable
from .shard import ShardState, group_shards, shard_id_for
from .worker import (
    DaemonBackend,
    EmbeddedBackend,
    HttpTransport,
    Worker,
)

__all__ = [
    "Coordinator",
    "DaemonBackend",
    "DistSweep",
    "DistSweepResults",
    "EmbeddedBackend",
    "HttpTransport",
    "LeaseState",
    "LeaseTable",
    "ShardState",
    "Worker",
    "WorkerStats",
    "group_shards",
    "journal_digest",
    "run_dist_sweep",
    "shard_id_for",
]
