"""Tests for the cache-integrated streaming service: keys, invalidation, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.service import ConsensusCacheService
from repro.cache.store import ResultCache
from repro.exceptions import ValidationError
from repro.streaming import StreamEvent, StreamingConsensusEngine, StreamingConsensusService

DELTA = 0.35
N = 6


def event(rng: np.random.Generator, weight: float = 1.0) -> StreamEvent:
    return StreamEvent(
        op="add", order=tuple(int(c) for c in rng.permutation(N)), weight=weight
    )


@pytest.fixture
def streaming(tiny_table, tmp_path):
    engine = StreamingConsensusEngine(tiny_table, delta=DELTA)
    cache = ResultCache(directory=tmp_path / "cache")
    return StreamingConsensusService(engine, cache=cache)


class TestService:
    def test_streamed_key_and_payload_match_the_batch_path(self, streaming, tiny_table, rng):
        streaming.update(add=[event(rng) for _ in range(4)])
        served = streaming.aggregate()
        batch = ConsensusCacheService().aggregate(
            streaming.engine.rebuild(), tiny_table, delta=DELTA
        )
        assert served["key"] == batch["key"]
        assert served["result"] == batch["result"]

    def test_update_invalidates_served_entries_in_both_tiers(self, streaming, rng):
        streaming.update(add=[event(rng) for _ in range(3)])
        served = streaming.aggregate()
        digest = served["key"]
        assert streaming.cache.disk.path_for(digest).exists()
        outcome = streaming.update(add=[event(rng)])
        assert outcome["invalidated"] == 1
        assert not streaming.cache.disk.path_for(digest).exists()
        assert streaming.cache.get(digest) is None
        stats = streaming.stats()
        assert stats["invalidations"] == 1
        assert stats["profile_version"] == outcome["profile_version"]

    def test_aggregate_is_a_hit_until_the_profile_changes(self, streaming, rng):
        streaming.update(add=[event(rng) for _ in range(3)])
        assert streaming.aggregate()["cached"] is False
        assert streaming.aggregate()["cached"] is True
        streaming.update(add=[event(rng)])
        assert streaming.aggregate()["cached"] is False

    def test_update_can_add_and_remove_in_one_batch(self, streaming, rng):
        first = event(rng)
        streaming.update(add=[first, event(rng)])
        outcome = streaming.update(add=[event(rng)], remove=[first])
        assert outcome["added"] == 1 and outcome["removed"] == 1
        assert outcome["n_rankings"] == 2

    def test_empty_update_is_rejected(self, streaming):
        with pytest.raises(ValidationError, match="at least one"):
            streaming.update()

    def test_aggregate_on_empty_profile_is_rejected(self, streaming):
        with pytest.raises(ValidationError, match="empty"):
            streaming.aggregate()

    def test_repair_reports_the_profile_version(self, streaming, rng):
        streaming.update(add=[event(rng) for _ in range(4)])
        streaming.aggregate()
        streaming.update(add=[event(rng)])
        repaired = streaming.repair()
        assert repaired["profile_version"] == streaming.engine.profile_version
        assert repaired["result"]["consensus"]["names"]

    def test_describe_snapshot(self, streaming, rng):
        before = streaming.describe()
        assert before["n_rankings"] == 0 and before["profile"] is None
        streaming.update(add=[event(rng, weight=2.0)])
        after = streaming.describe()
        assert after["n_rankings"] == 1
        assert after["profile_version"] == 1
        assert after["method"] == "fair-borda"


class TestAtomicUpdate:
    def test_rejected_remove_undoes_the_batch_adds(self, streaming, rng):
        kept = event(rng)
        streaming.update(add=[kept])
        before = streaming.describe()
        live = streaming.engine.rankings
        absent = StreamEvent(op="remove", order=kept.order, weight=2.0)
        with pytest.raises(ValidationError, match="no ranking"):
            streaming.update(add=[event(rng), event(rng)], remove=[absent])
        assert streaming.describe() == before
        assert streaming.engine.rankings is live
        # The restored profile keeps serving and updating normally.
        assert streaming.update(remove=[kept])["n_rankings"] == 0

    def test_rejected_first_batch_leaves_the_profile_empty(self, streaming, rng):
        before = streaming.describe()
        with pytest.raises(ValidationError):
            streaming.update(add=[event(rng)], remove=[event(rng, weight=3.0)])
        assert streaming.describe() == before
        assert streaming.engine.is_empty

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_is_rejected(self, streaming, rng, bad):
        streaming.update(add=[event(rng)])
        before = streaming.describe()
        with pytest.raises(ValidationError, match="finite"):
            streaming.update(add=[event(rng), event(rng, weight=bad)])
        assert streaming.describe() == before
