"""Fixtures for the distributed-sweep tests."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.dist import group_shards
from repro.explore.sweep import SweepLedger


@pytest.fixture()
def plan_shards(tmp_path):
    """How a sweep request shards, as the coordinator plans it:
    :func:`group_shards` over the live cells of a ledger opened on a
    scratch journal directory."""

    def plan(request):
        ledger = SweepLedger(replace(request, sweeps_dir=str(tmp_path)))
        try:
            shards = group_shards(ledger, ledger.open())
        finally:
            ledger.close()
        return SimpleNamespace(
            ledger=ledger, shards=shards,
            cell_count=sum(len(shard.cells) for shard in shards))

    return plan
