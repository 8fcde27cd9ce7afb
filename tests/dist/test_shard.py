"""Shard planning: content-addressed ids, one shard per trace
fingerprint, and wire round-trips."""

import json
from pathlib import Path

import pytest

from repro.common.config import small_config
from repro.core.requests import (
    LeaseGrant,
    RequestError,
    ShardCell,
    ShardRequest,
    SweepRequest,
)
from repro.dist import ShardState, shard_id_for
from repro.explore.space import Axis

SCALE = 0.1
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "requests"


def _request(**kw):
    spec = dict(axes=(Axis("cu.vrf_banks", (2, 4)),), workloads=("spmv",),
                isas=("gcn3",), scale=SCALE, seed=7, config=small_config(2),
                use_disk_cache=False, verify_replay=False)
    spec.update(kw)
    return SweepRequest(**spec)


def _cells(n=2):
    return tuple(ShardCell(point=f"p{i:02d}", workload="spmv", isa="gcn3")
                 for i in range(n))


class TestShardId:
    def test_deterministic(self):
        cells = _cells()
        assert (shard_id_for("abc", "fp1", cells)
                == shard_id_for("abc", "fp1", cells))

    def test_every_component_matters(self):
        cells = _cells()
        base = shard_id_for("abc", "fp1", cells)
        assert base != shard_id_for("abd", "fp1", cells)
        assert base != shard_id_for("abc", "fp2", cells)
        assert base != shard_id_for("abc", "fp1", cells[:1])

    def test_shape(self):
        shard_id = shard_id_for("abc", "fp1", _cells())
        assert len(shard_id) == 12
        int(shard_id, 16)


class TestPlanShards:
    def test_timing_axis_groups_into_one_shard(self, plan_shards):
        # cu.vrf_banks never changes the dynamic instruction stream, so
        # both points share one trace fingerprint -> one shard.
        plan = plan_shards(_request())
        assert len(plan.shards) == 1
        assert plan.cell_count == 2
        shard = plan.shards[0]
        assert shard.trace_fp
        assert len({cell.point for cell in shard.cells}) == 2

    def test_workloads_get_their_own_shards(self, plan_shards):
        plan = plan_shards(_request(workloads=("spmv", "bitonic")))
        assert len(plan.shards) == 2
        assert len({shard.trace_fp for shard in plan.shards}) == 2
        for shard in plan.shards:
            assert len({cell.workload for cell in shard.cells}) == 1

    def test_functional_axis_splits_shards(self, plan_shards):
        # simd_width changes the dynamic stream -> one shard per point.
        plan = plan_shards(_request(axes=(Axis("cu.simd_width", (8, 16)),)))
        assert len(plan.shards) == 2
        assert len({shard.trace_fp for shard in plan.shards}) == 2

    def test_same_spec_plans_identically(self, plan_shards):
        a = plan_shards(_request())
        b = plan_shards(_request())
        assert [s.shard_id for s in a.shards] == [s.shard_id
                                                 for s in b.shards]
        assert a.shards[0].sweep_id == b.shards[0].sweep_id

    def test_invalid_points_are_excluded(self, plan_shards):
        plan = plan_shards(_request(
            axes=(Axis("l1i.size_bytes", (8192, 100)),)))
        # the 100-byte point is invalid; only the valid point shards.
        assert plan.cell_count == 1
        assert sum(1 for p in plan.ledger.points
                   if p.error is not None) == 1


class TestShardState:
    def test_granted_request_subtracts_completed_cells(self, plan_shards):
        plan = plan_shards(_request())
        state = ShardState.from_request(plan.shards[0])
        full = state.granted_request()
        assert full is state.request
        done_key = next(iter(state.remaining))
        state.remaining.pop(done_key)
        granted = state.granted_request()
        assert len(granted.cells) == 1
        assert all(cell.key != done_key for cell in granted.cells)
        # identity is preserved: it is the same shard, minus done work.
        assert granted.shard_id == state.request.shard_id


class TestWireRoundTrips:
    def test_shard_cell_round_trip(self):
        cell = ShardCell(point="p00", workload="spmv", isa="gcn3",
                         overrides=(("cu.vrf_banks", 4),
                                    ("l1d.hit_latency", 8)))
        again = ShardCell.from_payload(cell.to_payload())
        assert again == cell
        assert again.overrides == cell.overrides   # canonical (sorted) order

    def test_shard_cell_override_order_is_canonical(self):
        # paths given out of alphabetical order (l... before c...): the
        # sort_keys JSON encoder reorders them, and the cell must still
        # come back equal.
        cell = ShardCell(point="p00", workload="spmv", isa="gcn3",
                         overrides=(("l1d.hit_latency", 8),
                                    ("cu.vrf_banks", 2)))
        assert [path for path, _ in cell.overrides] == ["cu.vrf_banks",
                                                        "l1d.hit_latency"]
        assert ShardCell.from_json(cell.to_json()) == cell
        assert cell == ShardCell(point="p00", workload="spmv", isa="gcn3",
                                 overrides=(("cu.vrf_banks", 2),
                                            ("l1d.hit_latency", 8)))

    def test_two_axis_cell_survives_a_live_lease(self, tmp_path):
        """The same out-of-order two-axis cell, leased over a forked
        worker's pipe from a running coordinator, equals the
        coordinator's own."""
        import socket
        import threading

        from repro.dist import Coordinator
        from repro.dist.coordinator import serve_pipe
        from repro.dist.worker import PipeTransport

        co = Coordinator(_request(
            axes=(Axis("l1d.hit_latency", (8,)), Axis("cu.vrf_banks", (2,))),
            sweeps_dir=str(tmp_path / "sweeps"), execution="execute"))
        expected = co._pending[0].request
        parent_end, child_end = socket.socketpair()
        server = threading.Thread(target=serve_pipe, args=(parent_end, co))
        server.start()
        try:
            grant = PipeTransport(child_end).lease("w0")
        finally:
            child_end.close()
            server.join(timeout=10)
        assert not server.is_alive()
        assert grant.state == "granted"
        assert grant.shard.cells == expected.cells
        assert [path for path, _ in grant.shard.cells[0].overrides] == [
            "cu.vrf_banks", "l1d.hit_latency"]

    def test_shard_request_round_trip(self, plan_shards):
        shard = plan_shards(_request()).shards[0]
        again = ShardRequest.from_payload(shard.to_payload())
        assert again.shard_id == shard.shard_id
        assert again.cells == shard.cells
        assert again.config.fingerprint() == shard.config.fingerprint()

    def test_lease_grant_round_trip(self, plan_shards):
        shard = plan_shards(_request()).shards[0]
        grant = LeaseGrant(state="granted", lease_id="L00001", ttl=30.0,
                           shard=shard, trace_available=True, stolen=True)
        again = LeaseGrant.from_payload(grant.to_payload())
        assert again.state == "granted"
        assert again.lease_id == "L00001"
        assert again.trace_available and again.stolen
        assert again.shard is not None
        assert again.shard.shard_id == shard.shard_id

    def test_granted_lease_needs_a_shard(self):
        with pytest.raises(RequestError, match="needs a shard"):
            LeaseGrant(state="granted")

    def test_unknown_lease_state_rejected(self):
        with pytest.raises(RequestError, match="lease state"):
            LeaseGrant(state="maybe")


def _sample_shard() -> ShardRequest:
    return ShardRequest(
        shard_id="5f0c1a2b3c4d", sweep_id="0a1b2c3d4e5f", trace_fp="f" * 16,
        cells=(
            ShardCell(point="p00", workload="spmv", isa="gcn3",
                      overrides=(("cu.vrf_banks", 2),
                                 ("l1d.hit_latency", 8))),
            ShardCell(point="p01", workload="spmv", isa="hsail",
                      overrides=(("cu.vrf_banks", 4),)),
        ),
        scale=0.1, seed=11, config=small_config(2), execution="auto",
        engine="vector")


def _sample_lease() -> LeaseGrant:
    return LeaseGrant(state="granted", lease_id="L00001", ttl=30.0,
                      retry_after=0.5, shard=_sample_shard(),
                      trace_available=True, stolen=True)


class TestGoldenPayloads:
    """The lease protocol's envelopes are a wire contract like the
    request kinds: a failure here means the protocol changed."""

    def test_shard_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "shard.json").read_text())
        assert _sample_shard().to_payload() == golden

    def test_lease_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "lease.json").read_text())
        assert _sample_lease().to_payload() == golden

    @pytest.mark.parametrize("name,build", [
        ("shard.json", _sample_shard),
        ("lease.json", _sample_lease),
    ])
    def test_golden_parses_back(self, name, build):
        golden = json.loads((GOLDEN_DIR / name).read_text())
        assert type(build()).from_payload(golden) == build()
