"""Tests for the paged block-granular KV cache.

Four layers are pinned here:

* the accounting bugfixes — the same-wave duplicate-of-a-hit double
  count (one cache consultation per distinct prompt per wave), the
  effective-context cache key (prompts identical in the model's window
  share cache state), and the ``rejected_pinned``/``rejected_oversize``
  split;
* the block manager — multi-block chains, copy-on-write sharing of
  prefix blocks between diverging keys, partial-prefix admission plans,
  and interior hand-off backfill;
* tiered eviction — demotion under HOT pressure, promotion on
  re-touch, COLD-tier eviction, and the per-tier counters; the heap-
  ordered victim selection against the sort-based store it replaced
  (``tests/_cache_oracle.py``); a chain insert never evicting its own
  prefix;
* the engine's token-granular prefill accounting — block-granular
  admission prefills strictly fewer prompt tokens than exact-match
  caching on a shared-prefix wave, with outputs byte-identical to the
  no-cache reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import BlockTier, CacheStats, KVCacheManager
from repro.cache.blocks import BlockStore
from repro.drafter import EagleDrafter, EagleDrafterConfig
from repro.errors import CacheError
from repro.llm import TinyLM, TinyLMConfig
from repro.serving.metrics import ServingReport
from repro.specdec import (
    BatchedSpecDecodeEngine,
    SdStrategy,
    WorkerCounters,
    make_serving_request,
)

from _cache_oracle import SortedBlockStore


@pytest.fixture()
def strategy():
    return SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


def _requests(prompts, seed=42, max_new_tokens=24, start_id=0):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(prompts))
    return [
        make_serving_request(
            request_id=start_id + i,
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            seed=int(seeds[i]),
        )
        for i, prompt in enumerate(prompts)
    ]


def _engine(target, drafter, strategy, **kwargs):
    return BatchedSpecDecodeEngine(
        target, drafter, strategy, temperature=0.8, **kwargs
    )


def _drain(engine):
    while engine.has_work:
        engine.step()
    return engine.result()


def _handoff(fill=0.0, shape=(3, 16)):
    return np.full(shape, fill)


class TestAccountingBugfixes:
    def test_same_wave_duplicate_of_hit_counts_one_hit(
        self, target, trained_drafter, strategy
    ):
        # Regression: a same-wave duplicate of a prompt whose leader
        # was a cache HIT used to fall through to a second
        # cache.lookup, recording one extra hit per group member.
        cache = KVCacheManager(capacity_tokens=64)
        engine = _engine(
            target, trained_drafter, strategy, kv_cache=cache
        )
        engine.start(_requests([[5, 6, 7]]))
        _drain(engine)
        assert cache.stats.misses == 1  # the warming run
        assert cache.stats.hits == 0
        # Warm wave: a whole GRPO group of the cached prompt.
        engine.start(_requests([[5, 6, 7]] * 3))
        engine.step()
        # ONE consultation for the wave (the leader's hit); the two
        # duplicates ride it without touching hit/miss counters.
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert engine.counters.prefill_launches == 0
        assert engine.counters.prefill_launches_saved == 3

    def test_window_equivalent_prompts_share_cache(
        self, target, trained_drafter, strategy
    ):
        # Both prompts end in the same trailing context_window=4 run of
        # p[:-1], so their hand-offs are bit-equal by purity — the
        # cache must key on that effective context, not the full
        # prompt (which would miss and recompute).
        p1 = [5, 6, 7, 20, 21, 22, 23, 13]
        p2 = [9, 10, 11, 20, 21, 22, 23, 13]
        reference = _engine(target, trained_drafter, strategy)
        reference.start(_requests([p1], seed=7))
        ref1 = _drain(reference)
        reference.start(_requests([p2], seed=8))
        ref2 = _drain(reference)
        cache = KVCacheManager(capacity_tokens=64)
        engine = _engine(
            target, trained_drafter, strategy, kv_cache=cache
        )
        assert cache.context_window == target.config.context_window
        engine.start(_requests([p1], seed=7))
        out1 = _drain(engine)
        assert cache.stats.misses == 1
        engine.start(_requests([p2], seed=8))
        out2 = _drain(engine)
        assert cache.stats.hits == 1  # cross-prompt effective-key hit
        assert [s.response for s in out1.slots] == [
            s.response for s in ref1.slots
        ]
        assert [s.response for s in out2.slots] == [
            s.response for s in ref2.slots
        ]

    def test_rejected_split_oversize(self):
        cache = KVCacheManager(capacity_tokens=2)
        assert not cache.insert((1, 2, 3), _handoff(), cycle=0)
        assert cache.stats.rejected_oversize == 1
        assert cache.stats.rejected_pinned == 0
        assert cache.num_entries == 0

    def test_rejected_split_pinned(self):
        cache = KVCacheManager(capacity_tokens=4)
        assert cache.insert((1, 2, 3), _handoff(1.0), cycle=0)
        assert cache.acquire((1, 2, 3))
        assert not cache.insert((4, 5, 6), _handoff(2.0), cycle=1)
        assert cache.stats.rejected_pinned == 1
        assert cache.stats.rejected_oversize == 0
        assert cache.contains((1, 2, 3))  # pinned entry untouched


class TestBlockManager:
    def test_multi_block_chain_and_partial_reuse(self):
        cache = KVCacheManager(capacity_tokens=64, block_size=2)
        key = (1, 2, 3, 4, 5, 6)
        assert cache.insert(key, _handoff(1.0), cycle=0)
        # Three blocks: (1,2), (1..4), (1..6); only the tail holds the
        # hand-off.
        assert cache.num_entries == 3
        assert cache.stats.insertions == 3
        assert cache.cached_tokens == 6
        hit = cache.plan_admission(key, cycle=1).hidden
        assert hit is not None and np.array_equal(hit, _handoff(1.0))
        # A diverging key reuses the two whole shared blocks and plans
        # to compute only from position 4.
        plan = cache.plan_admission((1, 2, 3, 4, 9, 9), cycle=2)
        assert plan.hidden is None
        assert plan.compute_start == 4
        assert cache.stats.partial_hits == 1
        assert cache.stats.reused_tokens == 4

    def test_copy_on_write_sharing(self):
        cache = KVCacheManager(capacity_tokens=64, block_size=2)
        cache.insert((1, 2, 3, 4, 5, 6), _handoff(1.0), cycle=0)
        # The divergent key admits ONLY its divergent tail block; the
        # shared prefix blocks are shared, not copied.
        assert cache.insert_chain(
            (1, 2, 3, 4, 9, 9), {6: _handoff(2.0)}, cycle=1
        )
        assert cache.num_entries == 4
        assert cache.stats.insertions == 4
        assert cache.cached_tokens == 8  # 6 + 2, not 6 + 6
        first = cache.plan_admission((1, 2, 3, 4, 5, 6), cycle=2).hidden
        second = cache.plan_admission((1, 2, 3, 4, 9, 9), cycle=2).hidden
        assert np.array_equal(first, _handoff(1.0))
        assert np.array_equal(second, _handoff(2.0))

    def test_interior_handoff_backfill(self):
        cache = KVCacheManager(capacity_tokens=64, block_size=2)
        cache.insert((1, 2, 3, 4), _handoff(1.0), cycle=0)
        # The interior block (1,2) was admitted without a hand-off: it
        # licenses prefix reuse but cannot serve an exact hit yet.
        assert cache.contains((1, 2))
        assert cache.plan_admission((1, 2), cycle=1).hidden is None
        assert cache.insert_chain((1, 2), {2: _handoff(3.0)}, cycle=2)
        assert np.array_equal(
            cache.plan_admission((1, 2), cycle=3).hidden, _handoff(3.0)
        )
        # Backfill refreshed the block in place, no duplicate entry.
        assert cache.num_entries == 2

    def test_chain_pins_are_atomic(self):
        cache = KVCacheManager(capacity_tokens=64, block_size=2)
        cache.insert((1, 2, 3, 4), _handoff(1.0), cycle=0)
        assert cache.acquire((1, 2, 3, 4))
        assert cache.refcount((1, 2, 3, 4)) == 1
        assert cache.refcount((1, 2)) == 1  # whole chain pinned
        assert not cache.acquire((1, 2, 3, 4, 5, 6))  # absent tail
        assert cache.release((1, 2, 3, 4))
        assert cache.refcount((1, 2)) == 0
        with pytest.raises(CacheError):
            cache.release((1, 2, 3, 4))

    def test_pending_blocks_extend_same_wave_reuse(self):
        # Blocks another leader of the same wave is computing count as
        # reusable without touching cache statistics.
        cache = KVCacheManager(capacity_tokens=64, block_size=2)
        pending = frozenset({(1, 2), (1, 2, 3, 4)})
        plan = cache.plan_admission(
            (1, 2, 3, 4, 9), cycle=0, pending=pending
        )
        assert plan.compute_start == 4
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0


#: A block size at or above every key below: one block per key.
WHOLE_KEY = 16


class TestTieredEviction:
    def test_block_size_at_key_length_is_whole_key_mode(self):
        cache = KVCacheManager(
            capacity_tokens=4, block_size=4, cold_capacity_tokens=8
        )
        cache.insert((1, 2, 3, 4), _handoff(1.0), cycle=0)
        assert cache.num_entries == 1  # the whole key is one block
        # No partial reuse: sharing 3 of 4 tokens skips nothing.
        plan = cache.plan_admission((1, 2, 3, 9), cycle=1)
        assert plan.compute_start == 0
        assert cache.stats.partial_hits == 0
        # The key demotes and promotes as one unit.
        cache.insert((1, 2, 3, 9), _handoff(2.0), cycle=1)
        assert cache.hot_tokens == 4 and cache.cold_tokens == 4
        assert cache.stats.demotions == 1
        assert np.array_equal(
            cache.plan_admission((1, 2, 3, 4), cycle=2).hidden, _handoff(1.0)
        )
        assert cache.stats.promotions == 1
        assert cache.stats.demotions == 2

    def test_demotion_and_promotion_on_retouch(self):
        cache = KVCacheManager(
            capacity_tokens=4, block_size=WHOLE_KEY,
            cold_capacity_tokens=8,
        )
        cache.insert((1, 2, 3), _handoff(1.0), cycle=0)
        cache.insert((4, 5, 6), _handoff(2.0), cycle=1)
        # HOT pressure demoted the first key instead of dropping it.
        assert cache.stats.demotions == 1
        assert cache.stats.evictions == 0
        assert cache.hot_tokens == 3 and cache.cold_tokens == 3
        assert cache.contains((1, 2, 3))
        # Re-touch promotes it back (demoting the other key down).
        hit = cache.plan_admission((1, 2, 3), cycle=2).hidden
        assert np.array_equal(hit, _handoff(1.0))
        assert cache.stats.cold_hits == 1
        assert cache.stats.promotions == 1
        assert cache.stats.demotions == 2
        assert cache.hot_tokens == 3 and cache.cold_tokens == 3

    def test_cold_tier_eviction_when_budget_exhausted(self):
        cache = KVCacheManager(
            capacity_tokens=4, block_size=WHOLE_KEY,
            cold_capacity_tokens=4,
        )
        cache.insert((1, 2, 3), _handoff(1.0), cycle=0)
        cache.insert((4, 5, 6), _handoff(2.0), cycle=1)
        cache.insert((7, 8, 9), _handoff(3.0), cycle=2)
        # First insert demoted; second demotion needed COLD room and
        # evicted the oldest COLD resident entirely.
        assert cache.stats.demotions == 2
        assert cache.stats.cold_evictions == 1
        assert cache.stats.evictions == 1
        assert not cache.contains((1, 2, 3))
        assert cache.contains((4, 5, 6))
        assert cache.contains((7, 8, 9))

    def test_zero_cold_budget_is_legacy_drop(self):
        cache = KVCacheManager(capacity_tokens=4, block_size=WHOLE_KEY)
        cache.insert((1, 2, 3), _handoff(1.0), cycle=0)
        cache.insert((4, 5, 6), _handoff(2.0), cycle=1)
        assert cache.stats.demotions == 0
        assert cache.stats.evictions == 1
        assert cache.cold_tokens == 0
        assert not cache.contains((1, 2, 3))

    def test_pinned_blocks_never_demoted(self):
        cache = KVCacheManager(
            capacity_tokens=4, block_size=WHOLE_KEY,
            cold_capacity_tokens=8,
        )
        cache.insert((1, 2, 3), _handoff(1.0), cycle=0)
        assert cache.acquire((1, 2, 3))
        assert not cache.insert((4, 5, 6), _handoff(2.0), cycle=1)
        assert cache.stats.demotions == 0
        assert cache.stats.rejected_pinned == 1
        assert cache.hot_tokens == 3


    def test_chain_insert_never_evicts_its_own_prefix(self):
        # A pinned unrelated key leaves room for one more block; the
        # chain's second block could only fit by evicting its first.
        cache = KVCacheManager(capacity_tokens=16, block_size=8)
        other = tuple(range(100, 108))
        assert cache.insert(other, _handoff(1.0), cycle=0)
        assert cache.acquire(other)
        key = tuple(range(16))
        inserted = cache.insert_chain(key, {16: _handoff(2.0)}, cycle=1)
        # The walk stops at the block that cannot fit; what it reports
        # is what a live slot can pin, and the prefix it walked stays.
        assert inserted == cache.acquire(key)
        assert not inserted
        assert cache.stats.rejected_pinned == 1
        assert cache.contains(key[:8]) and cache.contains(other)
        assert cache.refcount(key[:8]) == 0  # the walk's pins are gone
        assert cache.stats.evictions == 0


def _store_state(store, dropped):
    blocks = sorted(
        (prefix, b.tier.value, b.refcount, b.last_touch, b.start,
         b.sequence_number)
        for prefix, b in store.blocks.items()
    )
    return blocks, store.hot_tokens, store.cold_tokens, list(dropped)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("hot, cold", [(10, 6), (9, 0), (12, 4)])
def test_victim_order_matches_sorted_reference(seed, hot, cold):
    """Random add / touch / pin / unpin / drop / promote sequences under
    tight budgets: the heap-ordered store keeps exactly the residents,
    tiers, drop order and counters of sorting each tier per call."""
    rng = np.random.default_rng(seed)
    stores, drops = [], []
    for kind in (BlockStore, SortedBlockStore):
        dropped = []
        drops.append(dropped)
        stores.append(kind(hot, cold, CacheStats(),
                           on_drop=lambda b, d=dropped: d.append(b.prefix)))
    now = 0
    for _ in range(400):
        now += int(rng.integers(0, 2))  # ties in last_touch are common
        heap_store = stores[0]
        resident = sorted(heap_store.blocks)
        op = int(rng.integers(0, 6))
        prefix = None
        if resident:
            prefix = resident[int(rng.integers(0, len(resident)))]
        if op == 0 or prefix is None:
            new = tuple(
                int(t) for t in rng.integers(0, 3, size=rng.integers(1, 6))
            )
            if new in heap_store.blocks:
                continue
            start = int(rng.integers(0, len(new)))
            added = [s.add(new, start, None, now) is None for s in stores]
            assert added[0] == added[1]
        elif op == 1:
            # Sometimes back in time: the order must follow any touch.
            cycle = now - int(rng.integers(0, 3))
            for s in stores:
                s.touch(s.get(prefix), cycle)
        elif op == 2:
            for s in stores:
                s.pin(s.get(prefix))
        elif op == 3:
            if heap_store.get(prefix).refcount:
                for s in stores:
                    s.unpin(s.get(prefix))
        elif op == 4:
            if not heap_store.get(prefix).refcount:
                for s in stores:
                    s.drop(s.get(prefix))
        else:
            cold_blocks = [
                p for p in resident
                if heap_store.get(p).tier is BlockTier.COLD
            ]
            if cold_blocks:
                target = cold_blocks[int(rng.integers(0, len(cold_blocks)))]
                for s in stores:
                    s.touch(s.get(target), now)
        assert _store_state(stores[0], drops[0]) == _store_state(
            stores[1], drops[1]
        )
        assert stores[0].stats == stores[1].stats


class TestBlockGranularPrefill:
    """Engine-level token accounting on a wide-window substrate.

    The session fixtures run a context_window=4 target whose effective
    keys are single blocks; block-granular savings need keys spanning
    several blocks, so these tests build a window-16 target.  The
    drafter is untrained — speculative decoding is lossless regardless
    of drafter quality, and these tests assert accounting and
    byte-identity, not accept length.
    """

    @pytest.fixture(scope="class")
    def wide(self):
        config = TinyLMConfig(
            vocab_size=24,
            hidden_size=16,
            context_window=16,
            num_layers=2,
            init_scale=1.5,
        )
        rng = np.random.default_rng(321)
        target = TinyLM(config, rng)
        drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
        return target, drafter

    @pytest.fixture(scope="class")
    def grouped_prompts(self):
        # Four prompts sharing a 12-token system prefix and diverging
        # in their last two tokens: with BOS the effective keys are 14
        # tokens sharing their leading 13 — whole blocks 4/8/12 under
        # block_size=4.
        system = [5, 6, 7, 9, 10, 11, 4, 8, 12, 13, 14, 15]
        return [system + [suffix, 20] for suffix in (3, 6, 9, 17)]

    def _run(self, target, drafter, strategy, prompts, **kwargs):
        engine = _engine(target, drafter, strategy, **kwargs)
        engine.start(_requests(prompts, max_new_tokens=8))
        return engine, _drain(engine)

    def test_paged_prefills_fewer_tokens_than_exact(
        self, wide, grouped_prompts, strategy
    ):
        target, drafter = wide
        _, base = self._run(target, drafter, strategy, grouped_prompts)
        exact_cache = KVCacheManager(
            capacity_tokens=256, block_size=WHOLE_KEY
        )
        exact_engine, exact = self._run(
            target, drafter, strategy, grouped_prompts,
            kv_cache=exact_cache,
        )
        paged_cache = KVCacheManager(capacity_tokens=256, block_size=4)
        paged_engine, paged = self._run(
            target, drafter, strategy, grouped_prompts,
            kv_cache=paged_cache,
        )
        key_tokens = 4 * 14  # four effective keys of 14 tokens
        # Exact-match caching can only coalesce identical prompts —
        # these four are all distinct, so it prefills every token.
        assert exact_engine.counters.prefill_tokens == key_tokens
        # Block-granular admission shares the 12 whole-block prefix
        # tokens across the wave: 14 + 3 * 2 = 20.
        assert paged_engine.counters.prefill_tokens == 20
        assert (
            paged_engine.counters.prefill_tokens
            < exact_engine.counters.prefill_tokens
        )
        # Conservation: computed + saved covers every admitted key.
        for engine in (exact_engine, paged_engine):
            assert (
                engine.counters.prefill_tokens + engine.counters.prefill_tokens_saved
                == key_tokens
            )
        # Outputs are byte-identical to the no-cache reference.
        reference = [s.response for s in base.slots]
        assert [s.response for s in exact.slots] == reference
        assert [s.response for s in paged.slots] == reference

    def test_warm_paged_cache_serves_exact_hits(
        self, wide, grouped_prompts, strategy
    ):
        target, drafter = wide
        cache = KVCacheManager(capacity_tokens=256, block_size=4)
        engine, cold = self._run(
            target, drafter, strategy, grouped_prompts, kv_cache=cache
        )
        engine.start(_requests(grouped_prompts, max_new_tokens=8))
        warm = _drain(engine)
        assert engine.counters.prefill_tokens == 0
        assert engine.counters.prefill_launches == 0
        assert cache.stats.hits == 4
        assert [s.response for s in warm.slots] == [
            s.response for s in cold.slots
        ]


class TestReportPlumbing:
    def test_serving_report_sums_token_and_tier_counters(self):
        report = ServingReport(
            records=[],
            ticks=1.0,
            worker_counters=[
                WorkerCounters(
                    prefill_tokens=20,
                    prefill_tokens_saved=36,
                    cache=CacheStats(
                        demotions=2, promotions=1, cold_hits=1
                    ),
                ),
                WorkerCounters(
                    prefill_tokens=22,
                    prefill_tokens_saved=14,
                    cache=CacheStats(cold_hits=3, cold_evictions=1),
                ),
            ],
        )
        assert report.prefill_tokens == 42
        assert report.prefill_tokens_saved == 50
        assert report.cache_demotions == 2
        assert report.cache_promotions == 1
        assert report.cache_cold_hits == 4
        assert report.cache_cold_evictions == 1
        summary = report.summary()
        assert summary["prefill_tokens"] == 42.0
        assert summary["prefill_tokens_saved"] == 50.0
