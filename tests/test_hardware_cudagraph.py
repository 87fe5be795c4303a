"""Tests for the CUDAGraph capture pool and plans (Figure 10, Table 5)."""

from __future__ import annotations

import pytest

from repro.errors import HardwareModelError, OutOfMemoryError
from repro.hardware import (
    CaptureKey,
    CudaGraphPool,
    bucketed_plan,
    get_model,
    single_strategy_plan,
    vanilla_multi_plan,
)
from repro.hardware import cudagraph
from repro.specdec import SdStrategy, default_strategy_pool


@pytest.fixture()
def pool():
    return CudaGraphPool(get_model("Llama-3-8B"))


@pytest.fixture()
def strategies():
    return default_strategy_pool()


class TestCaptureKey:
    def test_bad_role(self):
        with pytest.raises(HardwareModelError):
            CaptureKey("policy", 1, 1)

    def test_bad_sizes(self):
        with pytest.raises(HardwareModelError):
            CaptureKey("target", 0, 1)


class TestPool:
    def test_capture_idempotent(self, pool):
        key = CaptureKey("target", 4, 49)
        first = pool.capture(key)
        again = pool.capture(key)
        assert first == again
        assert pool.num_graphs == 1

    def test_memory_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(cudagraph, "MEMORY_BUDGET_GB", 0.5)
        pool = CudaGraphPool(get_model("Llama-3-8B"))
        with pytest.raises(OutOfMemoryError):
            pool.capture(CaptureKey("target", 32, 49))

    def test_larger_bucket_costs_more(self, pool):
        small = pool.graph_bytes(CaptureKey("target", 1, 49))
        large = pool.graph_bytes(CaptureKey("target", 32, 49))
        assert large > small

    def test_draft_cheaper_than_target(self, pool):
        target = pool.graph_bytes(CaptureKey("target", 8, 49))
        draft = pool.graph_bytes(CaptureKey("draft", 8, 8))
        assert draft < target

    def test_lookup_smallest_covering_bucket(self, pool, strategies):
        pool.capture_plan(single_strategy_plan(strategies[0]))
        target_key, _ = pool.lookup(strategies[0], batch_size=3)
        assert target_key.batch_bucket == 4

    def test_lookup_unknown_strategy_raises(self, pool, strategies):
        pool.capture_plan(single_strategy_plan(strategies[0]))
        with pytest.raises(HardwareModelError):
            pool.lookup(strategies[1], batch_size=1)


class TestPlans:
    def test_table5_ordering(self, strategies):
        """bucketed ≈ single << vanilla-multi (the Table 5 shape)."""
        sizes = {}
        for name, plan in [
            ("single", single_strategy_plan(strategies[0])),
            ("multi", vanilla_multi_plan(strategies)),
            ("bucketed", bucketed_plan(strategies)),
        ]:
            pool = CudaGraphPool(get_model("Llama-3-8B"))
            pool.capture_plan(plan)
            sizes[name] = pool.total_gib
        assert sizes["multi"] > 2.5 * sizes["single"]
        assert sizes["bucketed"] < 0.6 * sizes["multi"]
        assert sizes["bucketed"] < 2.0 * sizes["single"]

    def test_vanilla_multi_no_sharing(self, strategies):
        plan = vanilla_multi_plan(strategies[:2])
        assert len(set(plan.keys)) == len(plan.keys)
        tags = {key.tag for key in plan.keys}
        assert len(tags) == 2

    def test_bucketed_merges_keys(self, strategies):
        plan = bucketed_plan(strategies)
        assert len(set(plan.keys)) == len(plan.keys)
        # Deduplication means fewer keys than the vanilla plan.
        assert len(plan.keys) < len(vanilla_multi_plan(strategies).keys)

    def test_bucketed_big_batches_verify_fewer_tokens(self, strategies):
        """Figure 10c(i): descending V maps to ascending buckets."""
        plan = bucketed_plan(strategies)
        by_bucket = {}
        for (strategy, bucket), (target_key, _) in plan.routing.items():
            by_bucket.setdefault(bucket, []).append(
                strategy.tokens_to_verify
            )
        buckets = sorted(by_bucket)
        smallest = min(by_bucket[buckets[0]])
        largest_bucket_max = max(by_bucket[buckets[-1]])
        assert smallest >= largest_bucket_max

    def test_boundary_overlap_gives_choices(self, strategies):
        """Some bucket must offer >= 2 strategies (MAB exploration)."""
        plan = bucketed_plan(strategies)
        per_bucket: dict = {}
        for (strategy, bucket) in plan.routing:
            per_bucket.setdefault(bucket, set()).add(strategy)
        assert any(len(s) >= 2 for s in per_bucket.values())

    def test_empty_strategies_raise(self):
        with pytest.raises(HardwareModelError):
            bucketed_plan([])
