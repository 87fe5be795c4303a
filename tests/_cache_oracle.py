"""Reference implementations the prefix cache is held to.

:class:`repro.cache.blocks.BlockStore` keeps each tier's victim order
incrementally (a heap of unpinned blocks with stale entries skipped,
plus a pinned-token tally per tier).  :class:`SortedBlockStore` keeps
the store it replaced, in which every make-room call scans the tier,
sums its pinned tokens and sorts its unpinned blocks by
``(last_touch, -len(prefix), sequence_number)``.
``tests/test_paged_kv_cache.py`` drives both with the same random
operations and requires the same residents, tiers, drop order and
counters after every one.

:func:`stored_sequences` reads a :class:`~repro.cache.prefix_index.
PrefixIndex`'s members straight off its radix nodes: the index itself
only answers longest-prefix queries, which is all the cache asks it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cache.blocks import BlockTier, KVBlock
from repro.errors import CacheError


def stored_sequences(index) -> set:
    """Every sequence a radix index holds (walked off its nodes)."""
    found, stack = set(), [(index._root, ())]
    while stack:
        node, prefix = stack.pop()
        full = prefix + node.edge
        if node.terminal:
            found.add(full)
        stack.extend((child, full) for child in node.children.values())
    return found


def _victim_order(block: KVBlock):
    return (block.last_touch, -len(block.prefix), block.sequence_number)


class SortedBlockStore:
    """The two-tier store with a full sort per make-room call."""

    def __init__(
        self,
        hot_capacity: int,
        cold_capacity: int,
        stats,
        on_drop: Optional[Callable[[KVBlock], None]] = None,
    ) -> None:
        self.hot_capacity = hot_capacity
        self.cold_capacity = cold_capacity
        self.stats = stats
        self._on_drop = on_drop
        self.blocks: Dict[tuple, KVBlock] = {}
        self.hot_tokens = 0
        self.cold_tokens = 0
        self._next_sequence = 0

    def get(self, prefix):
        return self.blocks.get(prefix)

    def touch(self, block: KVBlock, cycle: int) -> None:
        block.last_touch = cycle
        if block.tier is BlockTier.COLD:
            self.stats.cold_hits += 1
            self._promote(block)

    def add(self, prefix, start, handoff, cycle) -> Optional[KVBlock]:
        size = len(prefix) - start
        if size < 1:
            raise CacheError("cannot admit an empty block")
        if not self._make_room_hot(size):
            return None
        block = KVBlock(
            prefix=prefix,
            start=start,
            handoff=None if handoff is None else np.asarray(handoff).copy(),
            last_touch=cycle,
            sequence_number=self._next_sequence,
        )
        self._next_sequence += 1
        self.blocks[prefix] = block
        self.hot_tokens += size
        return block

    def pin(self, block: KVBlock) -> None:
        block.refcount += 1

    def unpin(self, block: KVBlock) -> None:
        block.refcount -= 1

    def drop(self, block: KVBlock) -> None:
        if block.tier is BlockTier.HOT:
            self.hot_tokens -= block.size_tokens
        else:
            self.cold_tokens -= block.size_tokens
            self.stats.cold_evictions += 1
        self._forget(block)

    def _forget(self, block: KVBlock) -> None:
        del self.blocks[block.prefix]
        self.stats.evictions += 1
        if self._on_drop is not None:
            self._on_drop(block)

    def _tier_blocks(self, tier: BlockTier) -> List[KVBlock]:
        return [b for b in self.blocks.values() if b.tier is tier]

    def _make_room_hot(self, size: int) -> bool:
        if self.hot_tokens + size <= self.hot_capacity:
            return True
        hot = self._tier_blocks(BlockTier.HOT)
        pinned = sum(b.size_tokens for b in hot if b.refcount > 0)
        if pinned + size > self.hot_capacity:
            return False
        victims = sorted(
            (b for b in hot if b.refcount == 0), key=_victim_order
        )
        for victim in victims:
            self._demote(victim)
            if self.hot_tokens + size <= self.hot_capacity:
                return True
        return self.hot_tokens + size <= self.hot_capacity

    def _demote(self, block: KVBlock) -> None:
        self.hot_tokens -= block.size_tokens
        if self.cold_capacity > 0 and self._make_room_cold(block.size_tokens):
            block.tier = BlockTier.COLD
            self.cold_tokens += block.size_tokens
            self.stats.demotions += 1
            return
        self._forget(block)

    def _make_room_cold(self, size: int) -> bool:
        if size > self.cold_capacity:
            return False
        if self.cold_tokens + size <= self.cold_capacity:
            return True
        cold = self._tier_blocks(BlockTier.COLD)
        pinned = sum(b.size_tokens for b in cold if b.refcount > 0)
        if pinned + size > self.cold_capacity:
            return False
        victims = sorted(
            (b for b in cold if b.refcount == 0), key=_victim_order
        )
        for victim in victims:
            self.cold_tokens -= victim.size_tokens
            self.stats.cold_evictions += 1
            self._forget(victim)
            if self.cold_tokens + size <= self.cold_capacity:
                return True
        return self.cold_tokens + size <= self.cold_capacity

    def _promote(self, block: KVBlock) -> None:
        block.refcount += 1
        try:
            promoted = self._make_room_hot(block.size_tokens)
        finally:
            block.refcount -= 1
        if not promoted:
            return
        self.cold_tokens -= block.size_tokens
        block.tier = BlockTier.HOT
        self.hot_tokens += block.size_tokens
        self.stats.promotions += 1
