"""Tests for the shared prefix-cache subsystem (repro.cache).

The radix :class:`~repro.cache.prefix_index.PrefixIndex` and the
:class:`~repro.cache.manager.KVCacheManager` are correctness-critical
in a specific way: the engine serves *hidden hand-offs* from them, so a
wrong match, a corrupted entry, or an eviction of pinned state would
silently change committed tokens.  These tests pin the matching
semantics, the ref-count/eviction interaction, and the deterministic
LRU order the engine's reproducibility guarantees lean on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheStats, KVCacheManager, PrefixIndex
from repro.errors import CacheError

from _cache_oracle import stored_sequences


class TestPrefixIndex:
    def test_insert_contains_exact(self):
        index = PrefixIndex()
        assert index.insert([1, 2, 3])
        assert stored_sequences(index) == {(1, 2, 3)}  # not its prefix
        assert len(index) == 1

    def test_duplicate_insert_is_noop(self):
        index = PrefixIndex()
        assert index.insert([1, 2, 3])
        assert not index.insert([1, 2, 3])
        assert len(index) == 1

    def test_prefix_of_existing_sequence_is_insertable(self):
        index = PrefixIndex()
        index.insert([1, 2, 3, 4])
        assert index.insert([1, 2])
        assert stored_sequences(index) == {(1, 2), (1, 2, 3, 4)}
        assert len(index) == 2

    def test_longest_prefix_full_and_partial(self):
        index = PrefixIndex()
        index.insert([1, 2, 3, 4])
        index.insert([1, 2, 9])
        assert index.longest_prefix([1, 2, 3, 4]) == 4
        assert index.longest_prefix([1, 2, 3, 7]) == 3
        assert index.longest_prefix([1, 2, 9, 9]) == 3
        assert index.longest_prefix([1, 2]) == 2
        assert index.longest_prefix([7, 7]) == 0
        # Longer query than any member: match stops at the member end.
        assert index.longest_prefix([1, 2, 3, 4, 5, 6]) == 4

    def test_longest_prefix_counts_partial_edge_match(self):
        # Path compression stores [5, 6, 7, 8] on one edge; a query
        # diverging mid-edge must still credit the shared run.
        index = PrefixIndex()
        index.insert([5, 6, 7, 8])
        assert index.longest_prefix([5, 6, 7, 0]) == 3
        assert index.longest_prefix([5, 0]) == 1

    def test_remove_and_merge(self):
        index = PrefixIndex()
        index.insert([1, 2, 3])
        index.insert([1, 2, 4, 5])
        assert index.remove([1, 2, 3])
        assert stored_sequences(index) == {(1, 2, 4, 5)}
        # The [1,2] split node should have merged back: matching still
        # spans the full remaining sequence.
        assert index.longest_prefix([1, 2, 4, 5]) == 4
        assert index.longest_prefix([1, 2, 3]) == 2
        assert not index.remove([1, 2, 3])  # already gone
        assert len(index) == 1

    def test_remove_keeps_shorter_member(self):
        index = PrefixIndex()
        index.insert([1, 2])
        index.insert([1, 2, 3, 4])
        assert index.remove([1, 2, 3, 4])
        assert stored_sequences(index) == {(1, 2)}
        assert index.longest_prefix([1, 2, 3, 4]) == 2

    def test_empty_sequence_rejected(self):
        index = PrefixIndex()
        with pytest.raises(CacheError):
            index.insert([])
        with pytest.raises(CacheError):
            index.remove(())


def _hidden(tag: float) -> np.ndarray:
    return np.full((2, 3), tag, dtype=np.float64)


class TestKVCacheManager:
    def test_lookup_hit_returns_copy(self):
        cache = KVCacheManager(capacity_tokens=16)
        cache.insert((1, 2, 3), _hidden(7.0), cycle=0)
        out = cache.plan_admission((1, 2, 3), cycle=1).hidden
        assert out is not None and np.array_equal(out, _hidden(7.0))
        out[:] = 0.0  # mutating the copy must not reach the cache
        again = cache.plan_admission((1, 2, 3), cycle=2).hidden
        assert np.array_equal(again, _hidden(7.0))
        assert cache.stats.hits == 2 and cache.stats.misses == 0

    def test_miss_accounting_and_hit_rate(self):
        cache = KVCacheManager(capacity_tokens=16)
        assert cache.plan_admission((4, 5), cycle=0).hidden is None
        cache.insert((4, 5), _hidden(1.0), cycle=0)
        assert cache.plan_admission((4, 5), cycle=1).hidden is not None
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_insert_stores_copy(self):
        cache = KVCacheManager(capacity_tokens=16)
        hidden = _hidden(3.0)
        cache.insert((1,), hidden, cycle=0)
        hidden[:] = 0.0
        assert np.array_equal(
            cache.plan_admission((1,), 1).hidden, _hidden(3.0)
        )

    def test_lru_eviction_by_last_touch(self):
        cache = KVCacheManager(capacity_tokens=6)
        cache.insert((1, 1, 1), _hidden(1.0), cycle=0)
        cache.insert((2, 2, 2), _hidden(2.0), cycle=1)
        cache.plan_admission((1, 1, 1), cycle=2)  # touch: (2,2,2) is LRU
        cache.insert((3, 3, 3), _hidden(3.0), cycle=3)
        assert cache.contains((1, 1, 1))
        assert not cache.contains((2, 2, 2))
        assert cache.contains((3, 3, 3))
        assert cache.stats.evictions == 1
        assert cache.cached_tokens == 6

    def test_eviction_tie_breaks_by_insertion_order(self):
        cache = KVCacheManager(capacity_tokens=6)
        cache.insert((1, 1, 1), _hidden(1.0), cycle=0)
        cache.insert((2, 2, 2), _hidden(2.0), cycle=0)  # same touch
        cache.insert((3, 3, 3), _hidden(3.0), cycle=1)
        assert not cache.contains((1, 1, 1))  # older insertion evicted
        assert cache.contains((2, 2, 2))

    def test_pinned_entries_never_evicted(self):
        cache = KVCacheManager(capacity_tokens=6)
        cache.insert((1, 1, 1), _hidden(1.0), cycle=0)
        assert cache.acquire((1, 1, 1))
        cache.insert((2, 2, 2), _hidden(2.0), cycle=1)
        # Inserting a third entry can only evict the unpinned one.
        cache.insert((3, 3, 3), _hidden(3.0), cycle=2)
        assert cache.contains((1, 1, 1))
        assert not cache.contains((2, 2, 2))
        # With every remaining entry pinned, a new insert is declined.
        assert cache.acquire((3, 3, 3))
        assert not cache.insert((4, 4, 4), _hidden(4.0), cycle=3)
        assert cache.stats.rejected_pinned == 1
        assert cache.contains((1, 1, 1)) and cache.contains((3, 3, 3))

    def test_infeasible_insert_does_not_sweep_warm_entries(self):
        # Pinned entries alone leave no room for the insert: it must
        # be rejected WITHOUT evicting the warm unpinned entry (a
        # destructive sweep would trade every future hit for nothing).
        cache = KVCacheManager(capacity_tokens=9)
        cache.insert((1, 1, 1), _hidden(1.0), cycle=0)
        cache.insert((2, 2, 2), _hidden(2.0), cycle=0)
        cache.acquire((1, 1, 1))
        cache.acquire((2, 2, 2))
        cache.insert((3, 3, 3), _hidden(3.0), cycle=1)  # warm, unpinned
        assert not cache.insert((4, 4, 4, 4), _hidden(4.0), cycle=2)
        assert cache.contains((3, 3, 3))
        assert cache.stats.evictions == 0
        assert cache.stats.rejected_pinned == 1

    def test_oversized_entry_rejected_outright(self):
        cache = KVCacheManager(capacity_tokens=2)
        assert not cache.insert((1, 2, 3), _hidden(1.0), cycle=0)
        assert cache.num_entries == 0
        assert cache.stats.rejected_oversize == 1

    def test_acquire_release_refcount(self):
        cache = KVCacheManager(capacity_tokens=8)
        cache.insert((1, 2), _hidden(1.0), cycle=0)
        assert cache.refcount((1, 2)) == 0
        assert cache.acquire((1, 2))
        assert cache.acquire((1, 2))
        assert cache.refcount((1, 2)) == 2
        assert cache.release((1, 2))
        assert cache.refcount((1, 2)) == 1
        assert not cache.acquire((9, 9))   # absent
        assert not cache.release((9, 9))

    def test_release_underflow_raises(self):
        cache = KVCacheManager(capacity_tokens=8)
        cache.insert((1, 2), _hidden(1.0), cycle=0)
        with pytest.raises(CacheError):
            cache.release((1, 2))

    def test_longest_prefix_probe_is_non_accounting(self):
        cache = KVCacheManager(capacity_tokens=8)
        cache.insert((1, 2, 3), _hidden(1.0), cycle=0)
        assert cache.longest_prefix((1, 2, 9)) == 2
        assert cache.longest_prefix((1, 2, 3)) == 3
        assert cache.stats.lookups == 0

    def test_reinsert_refreshes_touch(self):
        cache = KVCacheManager(capacity_tokens=6)
        cache.insert((1, 1, 1), _hidden(1.0), cycle=0)
        cache.insert((2, 2, 2), _hidden(2.0), cycle=1)
        cache.insert((1, 1, 1), _hidden(1.0), cycle=2)  # refresh
        cache.insert((3, 3, 3), _hidden(3.0), cycle=3)
        assert cache.contains((1, 1, 1))
        assert not cache.contains((2, 2, 2))

    def test_invalid_construction(self):
        with pytest.raises(CacheError):
            KVCacheManager(capacity_tokens=0)
        cache = KVCacheManager(capacity_tokens=4)
        with pytest.raises(CacheError):
            cache.insert((), _hidden(0.0), cycle=0)

    def test_stats_dataclass_defaults(self):
        stats = CacheStats()
        assert stats.lookups == 0 and stats.hit_rate == 0.0
