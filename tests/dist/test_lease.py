"""Heartbeat lease table under a fake monotonic clock."""

import pytest

from repro.common.config import small_config
from repro.core.requests import ShardCell, ShardRequest
from repro.dist import LeaseTable, ShardState, shard_id_for


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _shard(cells=2):
    members = tuple(ShardCell(point=f"p{i:02d}", workload="spmv", isa="gcn3")
                    for i in range(cells))
    state = ShardState.from_request(ShardRequest(
        shard_id=shard_id_for("sweep", "fp", members), sweep_id="sweep",
        trace_fp="fp", cells=members, scale=0.1, seed=7,
        config=small_config(2)))
    assert len(state.remaining) == cells
    return state


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def table(clock):
    return LeaseTable(ttl=10.0, clock=clock)


class TestLeaseTable:
    def test_grant_ids_are_sequential(self, table):
        a = table.grant("w1", _shard())
        b = table.grant("w2", _shard())
        assert a.lease_id == "L00001"
        assert b.lease_id == "L00002"
        assert len(table) == 2
        assert table.get(a.lease_id) is a

    def test_renew_extends_the_deadline(self, table, clock):
        lease = table.grant("w1", _shard())
        clock.advance(8.0)
        renewed = table.renew(lease.lease_id)
        assert renewed is lease
        assert lease.renewals == 1
        clock.advance(8.0)                 # 16s after grant, 8 after renew
        assert table.expire() == []
        assert len(table) == 1

    def test_expiry_pops_overdue_leases(self, table, clock):
        a = table.grant("w1", _shard())
        clock.advance(5.0)
        b = table.grant("w2", _shard())
        clock.advance(6.0)                 # a is 11s old, b is 6s old
        expired = table.expire()
        assert expired == [a]
        assert len(table) == 1
        assert table.get(b.lease_id) is b

    def test_renew_of_expired_lease_is_none(self, table, clock):
        lease = table.grant("w1", _shard())
        clock.advance(11.0)
        table.expire()
        assert table.renew(lease.lease_id) is None

    def test_release(self, table):
        lease = table.grant("w1", _shard())
        assert table.release(lease.lease_id) is lease
        assert table.release(lease.lease_id) is None
        assert len(table) == 0

    def test_largest_picks_most_outstanding(self, table):
        table.grant("w1", _shard(2))
        big = table.grant("w2", _shard(3))
        assert table.largest() is big

    def test_largest_skips_single_cell_leases(self, table):
        small = table.grant("w1", _shard(2))
        small.shard.remaining.popitem()
        assert small.outstanding() == 1
        assert table.largest() is None     # splitting 1 cell buys nothing

    def test_positive_ttl_required(self, clock):
        with pytest.raises(ValueError, match="ttl"):
            LeaseTable(ttl=0.0, clock=clock)
