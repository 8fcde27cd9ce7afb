"""On-disk result cache: fingerprints, round-trips, corruption recovery."""

import json

import pytest

from repro.common.config import CuConfig, paper_config, small_config
from repro.harness.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    job_fingerprint,
    resolve_cache,
    source_tree_stamp,
)
from repro.harness.runner import run_workload


@pytest.fixture(scope="module")
def tiny_run():
    return run_workload("arraybw", "gcn3", scale=0.1, config=small_config(2))


class TestConfigFingerprint:
    def test_stable_across_instances(self):
        assert paper_config().fingerprint() == paper_config().fingerprint()

    def test_differs_across_configs(self):
        assert small_config(2).fingerprint() != small_config(4).fingerprint()
        assert small_config(2).fingerprint() != paper_config().fingerprint()

    def test_nested_field_changes_hash(self):
        base = small_config(2)
        tweaked = base.scaled(cu=CuConfig(vrf_banks=8))
        assert base.fingerprint() != tweaked.fingerprint()

    def test_is_short_hex(self):
        fp = paper_config().fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # raises if not hex


class TestJobFingerprint:
    def test_every_component_matters(self):
        base = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        assert base != job_fingerprint(small_config(4), "arraybw", "gcn3", 0.1, 7)
        assert base != job_fingerprint(small_config(2), "comd", "gcn3", 0.1, 7)
        assert base != job_fingerprint(small_config(2), "arraybw", "hsail", 0.1, 7)
        assert base != job_fingerprint(small_config(2), "arraybw", "gcn3", 0.2, 7)
        assert base != job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 8)

    def test_repeatable(self):
        a = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        b = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        assert a == b

    def test_source_stamp_is_folded_in(self):
        # The stamp is process-cached, so just check it is a stable hex id.
        assert source_tree_stamp() == source_tree_stamp()
        int(source_tree_stamp(), 16)


class TestResultCache:
    def test_roundtrip_preserves_everything(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path / "cache")
        key = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        assert cache.get(key) is None          # cold
        assert cache.put(key, tiny_run)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_payload() == tiny_run.to_payload()
        assert loaded.total.snapshot() == tiny_run.total.snapshot()
        assert loaded.dispatch_kernel_names == tiny_run.dispatch_kernel_names
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("0" * 64) is None
        assert cache.stats()["misses"] == 1

    def test_truncated_entry_treated_as_miss_and_rewritten(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path / "cache")
        key = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        cache.put(key, tiny_run)
        path = cache._path(key)
        path.write_text(path.read_text()[: 40])   # simulate a torn write
        assert cache.get(key) is None              # corrupt -> miss
        assert not path.exists()                   # and discarded
        assert cache.put(key, tiny_run)            # rewrite works
        assert cache.get(key).to_payload() == tiny_run.to_payload()

    def test_garbage_json_treated_as_miss(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path / "cache")
        key = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        cache.put(key, tiny_run)
        cache._path(key).write_text('{"format": 1, "run": {"nope": true}}')
        assert cache.get(key) is None

    def test_stale_format_version_is_a_miss(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path / "cache")
        key = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        cache.put(key, tiny_run)
        entry = json.loads(cache._path(key).read_text())
        entry["format"] = CACHE_FORMAT_VERSION + 1
        cache._path(key).write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_unwritable_directory_degrades_silently(self, tmp_path, tiny_run):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")    # mkdir will fail
        key = "f" * 64
        assert cache.put(key, tiny_run) is False
        assert cache.get(key) is None

    def test_clear_removes_entries(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path / "cache")
        for key in ("a" * 64, "b" * 64):
            cache.put(key, tiny_run)
        assert cache.clear() == 2
        assert cache.get("a" * 64) is None


class TestResolveCache:
    def test_default_enabled(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = resolve_cache(None, str(tmp_path))
        assert isinstance(cache, ResultCache)

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert resolve_cache(None, None) is None

    def test_explicit_true_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert isinstance(resolve_cache(True, str(tmp_path)), ResultCache)

    def test_explicit_false(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert resolve_cache(False, None) is None

    def test_env_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = resolve_cache(True, None)
        assert cache.directory == tmp_path / "elsewhere"


class TestPruneAndBreakdown:
    def _fill(self, tmp_path, tiny_run, n=3):
        cache = ResultCache(tmp_path / "cache")
        keys = [job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, s)
                for s in range(n)]
        for key in keys:
            cache.put(key, tiny_run,
                      config_fingerprint=small_config(2).fingerprint())
        return cache, keys

    def test_prune_nothing_when_young(self, tmp_path, tiny_run):
        cache, keys = self._fill(tmp_path, tiny_run)
        assert cache.prune_older_than(1.0) == (0, 0)
        assert all(cache.get(k) is not None for k in keys)

    def test_prune_removes_old_entries(self, tmp_path, tiny_run):
        import os
        cache, keys = self._fill(tmp_path, tiny_run)
        old = cache._path(keys[0])
        stale = old.stat().st_mtime - 10 * 86400
        os.utime(old, (stale, stale))
        removed, freed = cache.prune_older_than(5.0)
        assert removed == 1
        assert freed > 0
        assert cache.get(keys[0]) is None
        assert all(cache.get(k) is not None for k in keys[1:])

    def test_prune_empty_directory(self, tmp_path):
        assert ResultCache(tmp_path / "void").prune_older_than(0.0) == (0, 0)

    @pytest.mark.parametrize("days", [float("nan"), -1.0, float("inf")])
    def test_prune_rejects_bad_days_and_keeps_entries(self, tmp_path,
                                                     tiny_run, days):
        cache, keys = self._fill(tmp_path, tiny_run, n=2)
        with pytest.raises(ValueError, match="days"):
            cache.prune_older_than(days)
        assert all(cache.get(k) is not None for k in keys)

    def test_breakdown_groups_by_config(self, tmp_path, tiny_run):
        cache, _keys = self._fill(tmp_path, tiny_run)
        other = job_fingerprint(small_config(4), "arraybw", "gcn3", 0.1, 7)
        cache.put(other, tiny_run,
                  config_fingerprint=small_config(4).fingerprint())
        usage = cache.breakdown()
        assert usage[small_config(2).fingerprint()]["entries"] == 3
        assert usage[small_config(4).fingerprint()]["entries"] == 1
        assert all(b["bytes"] > 0 for b in usage.values())

    def test_breakdown_legacy_entries_unknown(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path / "cache")
        key = job_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        cache.put(key, tiny_run)   # no config fingerprint recorded
        assert cache.breakdown() == {
            "(unknown)": {"entries": 1,
                          "bytes": cache._path(key).stat().st_size}
        }
