"""Lease bookkeeping inside the coordinator: sequential lease ids, the
end of a lease at its holder's last report, and the work-stealing
victim."""

from .test_coordinator import _coordinator, _keys, _run

TWO_SHARDS = dict(banks=(2, 4, 8), workloads=("spmv", "bitonic"))


class TestLeaseTable:
    def test_grant_ids_are_sequential(self, tmp_path):
        co = _coordinator(tmp_path, **TWO_SHARDS)
        a = co.lease("w1")
        b = co.lease("w2")
        assert a.lease_id == "L00001"
        assert b.lease_id == "L00002"
        assert co.status()["active_leases"] == 2
        co.ledger.close()

    def test_release(self, tmp_path):
        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        for key in _keys(grant):
            co.report("w1", grant.lease_id, key, _run(key))
        assert co.status()["active_leases"] == 0
        # a report under the ended lease's id ends nothing again.
        key = _keys(grant)[0]
        assert co.report("w1", grant.lease_id, key, _run(key))["duplicate"]
        status = co.status()
        assert status["active_leases"] == status["expiries"] == 0
        co.finish()

    def test_largest_picks_most_outstanding(self, tmp_path):
        co = _coordinator(tmp_path, **TWO_SHARDS)
        small = co.lease("w1")
        big = co.lease("w2")
        key = _keys(small)[0]
        co.report("w1", small.lease_id, key, _run(key))   # 2 left vs 3
        stolen = co.lease("w3")
        assert stolen.stolen
        assert set(_keys(stolen)) < set(_keys(big))
        co.ledger.close()

    def test_largest_skips_single_cell_leases(self, tmp_path):
        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        key = _keys(grant)[0]
        co.report("w1", grant.lease_id, key, _run(key))
        # splitting 1 cell buys nothing.
        assert co.lease("w2").state == "wait"
        co.ledger.close()
