"""Tests for the two-tier result store: LRU eviction, disk tier, counters."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.cache.store import DiskTier, ResultCache
from tests.cache.faults import ManualClock


def payload(tag: int) -> dict:
    return {"tag": tag, "consensus": list(range(tag, tag + 3))}


class TestMemoryLRU:
    def test_eviction_at_capacity(self):
        cache = ResultCache(memory_capacity=2)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        cache.put("c", payload(3))
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.memory_entries == 2
        assert cache.get("a") is None  # memory-only cache: evicted means gone
        assert cache.get("b") == payload(2)
        assert cache.get("c") == payload(3)

    def test_lru_recency_order(self):
        cache = ResultCache(memory_capacity=2)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        assert cache.get("a") == payload(1)  # refresh a; b becomes the LRU entry
        cache.put("c", payload(3))
        assert cache.get("b") is None
        assert cache.get("a") == payload(1)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="memory_capacity"):
            ResultCache(memory_capacity=0)

    def test_unbounded_memory_never_evicts(self):
        cache = ResultCache(memory_capacity=None)
        for index in range(50):
            cache.put(str(index), payload(index))
        stats = cache.stats()
        assert stats.evictions == 0
        assert stats.memory_entries == 50


class TestDiskTier:
    def test_eviction_falls_back_to_disk(self, tmp_path):
        cache = ResultCache(memory_capacity=1, directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # evicts a from memory; disk still holds it
        assert cache.stats().evictions == 1
        assert cache.get("a") == payload(1)
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.memory_hits == 0

    def test_disk_promotion_back_into_memory(self, tmp_path):
        cache = ResultCache(memory_capacity=1, directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        assert cache.get("a") == payload(1)  # disk hit, promoted (evicting b)
        assert cache.get("a") == payload(1)  # now a memory hit
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.memory_hits == 1
        assert stats.evictions == 2

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", payload(1))
        assert list(tmp_path.glob("*.tmp")) == []
        blob = json.loads((tmp_path / "a.json").read_text())
        assert blob["payload"] == payload(1)
        assert set(blob["meta"]) == {"compute_seconds", "frequency", "stored_at"}

    def test_persists_across_instances(self, tmp_path):
        ResultCache(directory=tmp_path).put("a", payload(1))
        reopened = ResultCache(directory=tmp_path)
        assert reopened.get("a") == payload(1)
        assert reopened.stats().disk_hits == 1

    def test_truncated_blob_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(memory_capacity=1, directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # push a out of memory
        blob = tmp_path / "a.json"
        blob.write_text(blob.read_text()[:7])  # truncate mid-JSON
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.disk_corruptions == 1
        assert stats.misses == 1
        assert not blob.exists()  # quarantined so the slot heals
        cache.put("a", payload(1))  # recompute path stores cleanly again
        assert ResultCache(directory=tmp_path).get("a") == payload(1)

    def test_non_object_blob_is_discarded(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.path_for("x").write_text('["not", "an", "object"]')
        assert tier.load("x") is None
        assert tier.pop_corruptions() == 1
        assert not tier.path_for("x").exists()

    def test_size_counters(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        stats = cache.stats()
        assert stats.disk_entries == 2
        assert stats.disk_bytes == sum(
            path.stat().st_size for path in tmp_path.glob("*.json")
        )


class TestStatsAccuracy:
    def test_counter_accuracy_over_a_scripted_sequence(self, tmp_path):
        cache = ResultCache(memory_capacity=2, directory=tmp_path)
        assert cache.get("a") is None  # miss
        cache.put("a", payload(1))
        assert cache.get("a") == payload(1)  # memory hit
        cache.put("b", payload(2))
        cache.put("c", payload(3))  # evicts a
        assert cache.get("a") == payload(1)  # disk hit (promotes, evicting b)
        assert cache.get("b") == payload(2)  # disk hit again (promotes, evicting c)
        assert cache.get("missing") is None  # miss
        stats = cache.stats()
        assert stats.hits == 3
        assert stats.memory_hits == 1
        assert stats.disk_hits == 2
        assert stats.misses == 2
        assert stats.evictions == 3
        assert stats.requests == 5
        assert stats.hit_rate == pytest.approx(3 / 5)

    def test_stats_to_dict_round_trip(self):
        cache = ResultCache()
        cache.put("a", payload(1))
        cache.get("a")
        cache.get("b")
        as_dict = cache.stats().to_dict()
        assert as_dict["hits"] == 1
        assert as_dict["misses"] == 1
        assert as_dict["requests"] == 2
        assert as_dict["hit_rate"] == pytest.approx(0.5)
        assert as_dict["memory_entries"] == 1

    def test_empty_cache_hit_rate_is_zero(self):
        assert ResultCache().stats().hit_rate == 0.0


class TestInvalidation:
    def test_invalidate_removes_entries_from_both_tiers(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))
        removed = cache.invalidate(["a", "b", "unknown"], profile_version=7)
        assert removed == 2
        assert cache.get("a") is None and cache.get("b") is None
        assert not (tmp_path / "a.json").exists()
        stats = cache.stats()
        assert stats.invalidations == 2
        assert stats.profile_version == 7

    def test_invalidation_is_distinct_from_eviction(self):
        cache = ResultCache(memory_capacity=1)
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # evicts a
        cache.invalidate(["b"])
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.invalidations == 1
        assert stats.profile_version == 0  # unchanged when not given

    def test_invalidating_unknown_digests_is_a_counted_no_op(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        assert cache.invalidate(["missing"], profile_version=3) == 0
        stats = cache.stats()
        assert stats.invalidations == 0
        assert stats.profile_version == 3

    def test_duplicate_digests_invalidate_once(self):
        cache = ResultCache()
        cache.put("a", payload(1))
        assert cache.invalidate(["a", "a"]) == 1
        assert cache.stats().invalidations == 1

    def test_memory_only_cache_invalidates(self):
        cache = ResultCache()
        cache.put("a", payload(1))
        assert cache.invalidate(["a"]) == 1
        assert cache.get("a") is None


class TestGetMemory:
    def test_live_entry_counts_exactly_like_get(self):
        via_get = ResultCache(memory_capacity=2, policy="cost-aware")
        via_memory = ResultCache(memory_capacity=2, policy="cost-aware")
        for cache in (via_get, via_memory):
            cache.put("a", payload(1), compute_seconds=0.5)
        assert via_get.get("a") == via_memory.get_memory("a") == payload(1)
        assert via_get.stats() == via_memory.stats()
        assert via_memory.stats().memory_hits == 1

    def test_absent_or_expired_entry_counts_nothing(self, tmp_path):
        clock = ManualClock()
        cache = ResultCache(directory=tmp_path, ttl=10.0, clock=clock)
        cache.put("a", payload(1))
        assert cache.get_memory("missing") is None
        clock.advance(11.0)
        assert cache.get_memory("a") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.expirations) == (0, 0, 0)
        assert stats.memory_entries == 1  # the expiry is left to get()
        assert cache.get("a") is None
        stats = cache.stats()
        assert (stats.misses, stats.expirations) == (1, 1)

    def test_disk_only_entry_is_not_promoted(self, tmp_path):
        cache = ResultCache(memory_capacity=1, directory=tmp_path)
        cache.put("a", payload(1))
        cache.put("b", payload(2))  # a now lives on disk only
        assert cache.get_memory("a") is None
        assert cache.stats().disk_hits == 0

    def test_busy_lock_returns_none_without_waiting(self):
        cache = ResultCache()
        cache.put("a", payload(1))
        results = []
        with cache._lock:  # as put() holds it across a slow disk write
            probe = threading.Thread(
                target=lambda: results.append(cache.get_memory("a")), daemon=True
            )
            probe.start()
            probe.join(timeout=1.0)
            assert not probe.is_alive()  # answered while the lock was still held
        assert results == [None]
        assert cache.stats().hits == 0
        assert cache.get_memory("a") == payload(1)

    def test_concurrent_counters_are_not_lost(self):
        cache = ResultCache(memory_capacity=4)
        tallies = []
        rounds = 400

        def worker(seed: int) -> None:
            hits = misses = 0
            for index in range(rounds):
                digest = str((seed * 7 + index) % 6)
                if index % 3 == 0:
                    cache.put(digest, payload(index))
                elif index % 3 == 1:
                    hits += cache.get_memory(digest) is not None
                elif cache.get(digest) is None:
                    misses += 1
                else:
                    hits += 1
            tallies.append((hits, misses))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats()
        assert stats.hits == stats.memory_hits == sum(hits for hits, _ in tallies)
        assert stats.misses == sum(misses for _, misses in tallies)
