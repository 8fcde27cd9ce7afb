"""Differential suite: block-compiled semantics vs the raw interpreter.

The block-compiled capture path (:mod:`repro.common.superops`) promises
*bit-identity* with the reference interpreter — not statistical
closeness.  This suite holds it to that over the full tier-1 matrix:

* every (workload x ISA) cell is captured twice, once under
  ``REPRO_SEMANTICS=block`` and once under ``raw``, and the runs must
  agree on the verification verdict, every StatSet payload (total and
  per-dispatch), and the sha256 of the serialized trace blob — the
  trace is the capture path's actual product, so its digest is the
  strongest single equality;
* a small sweep is journaled under both engines and the journals must
  hash identically after zeroing the wall-clock fields (the only
  legitimately nondeterministic bytes in a journal line);
* a seeded hypothesis leg mirrors ``test_engine_fuzz``'s divergent
  control-flow strategy — the fusion rules' hardest case, since masks,
  RPC reconvergence, and chain boundaries all interact there — and
  cross-checks block vs raw on randomly generated kernels for both
  ISAs.  ``derandomize=True`` keeps CI deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import paper_config, small_config
from repro.common.superops import resolve_semantics
from repro.core import Session
from repro.harness.cache import resolve_trace_store, trace_fingerprint
from repro.harness.runner import ISAS, clear_suite_cache, run_workload
from repro.timing.gpu import Gpu
from repro.workloads import all_workloads

from .test_engine_fuzz import N, _build_divergent, _dispatch, divergent_programs

SCALE = 0.25
SEED = 7
SEMANTICS = ("block", "raw")

ALL_CELLS = [(w.name, isa) for w in all_workloads() for isa in ISAS]


def _stats_digest(run) -> str:
    payload = json.dumps(
        [run.total.to_payload()] + [s.to_payload() for s in run.per_dispatch],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name,isa", ALL_CELLS, ids=[f"{n}-{i}" for n, i in ALL_CELLS]
)
def test_block_vs_raw_capture_identical(name, isa, tmp_path, monkeypatch):
    """Capture each cell under both engines: stats, verdicts, and the
    serialized trace must be byte-for-byte the same."""
    config = paper_config()
    fp = trace_fingerprint(config, name, isa, SCALE, SEED)
    observed = {}
    for semantics in SEMANTICS:
        monkeypatch.setenv("REPRO_SEMANTICS", semantics)
        assert resolve_semantics() == semantics
        clear_suite_cache()
        store = resolve_trace_store(str(tmp_path / semantics))
        run = run_workload(name, isa, scale=SCALE, config=config, seed=SEED,
                           execution="capture", trace_store=store)
        blob = store.read_blob(fp)
        assert blob is not None, f"{semantics} capture left no trace"
        observed[semantics] = {
            "verified": run.verified,
            "stats": _stats_digest(run),
            "trace_sha256": hashlib.sha256(blob).hexdigest(),
            "dynamic_instructions": run.dynamic_instructions,
        }
    clear_suite_cache()
    assert observed["block"] == observed["raw"], (
        f"{name}/{isa}: block-compiled capture diverged from raw"
    )


def test_sweep_journal_digest_identical(tmp_path, monkeypatch):
    """A journaled sweep hashes the same under both engines once the
    volatile fields are stripped.

    Uses the distributed coordinator's :func:`journal_digest` — the
    exact equality gate a multi-host sweep is merged under — so "block
    and raw journals agree" means agreement by the same yardstick the
    dist subsystem enforces between workers.
    """
    from repro.dist import journal_digest
    from repro.explore.space import Axis
    from repro.core.requests import SweepRequest
    from repro.explore.sweep import execute_sweep_request

    digests = {}
    for semantics in SEMANTICS:
        monkeypatch.setenv("REPRO_SEMANTICS", semantics)
        clear_suite_cache()
        results = execute_sweep_request(SweepRequest(
            axes=[Axis.parse("l1d.size_bytes=16384,65536")],
            config=small_config(2),
            workloads=["fft"],
            isas=("gcn3", "hsail"),
            scale=SCALE,
            seed=SEED,
            use_disk_cache=False,
            sweeps_dir=str(tmp_path / semantics),
            execution="execute",
        ))
        assert not results.failed_points
        assert results.journal_path is not None
        digests[semantics] = journal_digest(results.journal_path)
    clear_suite_cache()
    assert digests["block"] == digests["raw"]


# ---------------------------------------------------------------------------
# Seeded fuzz leg: random divergent kernels, block vs raw
# ---------------------------------------------------------------------------

_FUZZ_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


def _timing_payloads(dual, isa, data, semantics):
    os.environ["REPRO_SEMANTICS"] = semantics
    try:
        gpu = Gpu(small_config(2), _dispatch(dual, isa, data))
        return [s.to_payload() for s in gpu.run_all()]
    finally:
        os.environ.pop("REPRO_SEMANTICS", None)


@given(divergent_programs(), st.integers(min_value=0, max_value=2**31))
@_FUZZ_SETTINGS
def test_fuzz_block_vs_raw_divergent(program, data_seed):
    data = (np.random.default_rng(data_seed)
            .integers(1, 2**16, N).astype(np.uint32))
    dual = Session().compile(_build_divergent(program))
    for isa in ("hsail", "gcn3"):
        block = _timing_payloads(dual, isa, data, "block")
        raw = _timing_payloads(dual, isa, data, "raw")
        assert block == raw, f"fused semantics diverged on {isa}"
