"""Fixed-size KV blocks: the paged unit of prefix-cache storage.

The :class:`~repro.cache.manager.KVCacheManager` stores prefixes in
vLLM-style **pages** rather than one monolithic entry per exact
prompt.  A cached prefix is split into fixed-size
blocks, each *content-addressed* by the full token prefix up to its end
— two prompts sharing a system prefix therefore share the underlying
blocks by construction (copy-on-write for free: a diverging prompt
allocates only its divergent-suffix blocks and never copies the shared
ones).  Each block may carry a **positional hand-off**: the target
hidden stack at the block's last position, the per-boundary artifact
admission resumes prefill from (the substrate's stand-in for the
block's KV pages).

Eviction is **tiered**, in the TriForce full/retrieval/streaming
spirit: the HOT tier holds ``hot_capacity`` tokens; under pressure the
coldest unpinned blocks *demote* into a budgeted COLD tier rather than
being dropped, are promoted back on re-touch, and only fall out of the
cache entirely when the COLD budget is exhausted.  A zero COLD budget
degenerates to the classic single-tier LRU drop.  Victim order is
``(last_touch, -prefix length, insertion ordinal)``: least recently
touched first, and at equal touch the *deepest* block of a chain goes
first — shallow blocks are prefixes of more prompts, and dropping
deep-before-shallow means a chain can never be left with interior
holes by capacity pressure.

The order is kept incrementally, never sorted: each tier owns a heap
of ``(last_touch, -len(prefix), sequence_number, version, block)``
entries for its unpinned blocks.  Every change to a block's place in
that order (touch, tier move, pin, drop) bumps its ``version`` and,
while the block is unpinned and resident, pushes a fresh entry; a pop
skips entries whose version is stale.  Each tier also keeps a tally of
its pinned tokens, so the "can pinned state alone leave room?" check
is O(1).  The victims and their order are exactly those of sorting the
tier's unpinned blocks by the key above at the moment room is needed.

Pinned blocks (``refcount > 0``) are never demoted or evicted in
either tier: a live slot's source blocks must survive any pressure.
Pins go through :meth:`BlockStore.pin` / :meth:`BlockStore.unpin`,
which keep the tallies and heaps current.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cache.prefix_index import TokenSeq
from repro.errors import CacheError


class BlockTier(Enum):
    """Residency tier of a cached block."""

    HOT = "hot"
    COLD = "cold"


def effective_prefill_context(
    sequence: Sequence[int], context_window: Optional[int] = None
) -> TokenSeq:
    """The tokens a prompt's prefill hand-off actually depends on.

    The drafter hand-off for a prompt ``p`` is computed from the
    windowed contexts of ``p[:-1]`` (see
    :func:`repro.specdec.engine.initial_hiddens`), so it is a pure
    function of the trailing ``context_window`` tokens of ``p[:-1]``.
    That trailing run is the canonical cache key: prompts identical in
    the effective window share it even when their early tokens differ,
    and — because the key never exceeds the window — every *interior*
    position of a key sees its whole history, which is what makes
    per-block positional hand-offs well-defined.

    Returns the empty tuple for prompts shorter than two tokens (no
    hand-off exists for those).  Only the window is sliced out and
    converted; the rest of the prompt is never copied.
    """
    end = len(sequence) - 1
    start = 0
    if context_window is not None and context_window > 0:
        start = max(0, end - context_window)
    return tuple(map(int, sequence[start:end])) if end > 0 else ()


def block_boundaries(length: int, block_size: int) -> List[int]:
    """Covered-prefix lengths at which a key splits into blocks.

    Full blocks of ``block_size`` tokens followed by one partial tail
    block; with ``block_size >= length`` the whole key is a single
    block (the ablation baseline the paged benchmark compares against).
    """
    if length <= 0:
        return []
    ends = list(range(block_size, length + 1, block_size))
    if not ends or ends[-1] != length:
        ends.append(length)
    return ends


@dataclass
class KVBlock:
    """One fixed-size cached KV block.

    Attributes:
        prefix: content address — EVERY token from the key's start up
            to this block's end (block identity is the whole covered
            history, which is what lets different prompts share it).
        start: first key position this block covers (its token span is
            ``prefix[start:]``).
        handoff: target hidden stack at the block's last position
            (None when the block was admitted without one — it still
            licenses prefix reuse; recompute is pure).
        refcount: live slots currently pinning this block.
        tier: HOT or COLD residency.
        last_touch: cache cycle of the most recent insert/hit/reuse.
        sequence_number: creation ordinal (deterministic LRU ties).
        version: bumped whenever the block's victim-heap entry goes
            stale (only the entry carrying the current version counts).
    """

    prefix: TokenSeq
    start: int
    handoff: Optional[np.ndarray] = None
    refcount: int = 0
    tier: BlockTier = BlockTier.HOT
    last_touch: int = 0
    sequence_number: int = 0
    version: int = 0

    @property
    def size_tokens(self) -> int:
        """Capacity charge of this block, in tokens."""
        return len(self.prefix) - self.start


class _Tier:
    """One tier's token budget, resident and pinned tokens, and victim
    heap of ``(last_touch, -len(prefix), sequence_number, version,
    block)`` entries."""

    __slots__ = ("capacity", "tokens", "pinned", "heap")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.tokens = 0
        self.pinned = 0
        self.heap: List[tuple] = []


class BlockStore:
    """Token-budgeted two-tier store of content-addressed blocks.

    Args:
        hot_capacity: token budget of the HOT tier (inserts land here).
        cold_capacity: token budget of the COLD demotion tier (0 =
            classic drop-on-pressure behaviour).
        stats: counter sink — any object with ``evictions``,
            ``demotions``, ``promotions``, ``cold_hits`` and
            ``cold_evictions`` int attributes (the manager passes its
            :class:`~repro.cache.manager.CacheStats`).
        on_drop: called with each block removed from the store entirely
            (the manager unindexes its prefix).
    """

    def __init__(
        self,
        hot_capacity: int,
        cold_capacity: int,
        stats,
        on_drop: Optional[Callable[[KVBlock], None]] = None,
    ) -> None:
        if hot_capacity < 1:
            raise CacheError(
                f"hot_capacity must be >= 1, got {hot_capacity}"
            )
        if cold_capacity < 0:
            raise CacheError(
                f"cold_capacity must be >= 0, got {cold_capacity}"
            )
        self.stats = stats
        self._on_drop = on_drop
        self.blocks: Dict[TokenSeq, KVBlock] = {}
        self._next_sequence = 0
        self._hot = _Tier(hot_capacity)
        self._cold = _Tier(cold_capacity)

    @property
    def hot_tokens(self) -> int:
        """Tokens resident in the HOT tier."""
        return self._hot.tokens

    @property
    def cold_tokens(self) -> int:
        """Tokens resident in the COLD tier."""
        return self._cold.tokens

    @property
    def cached_tokens(self) -> int:
        """Tokens resident across both tiers."""
        return self._hot.tokens + self._cold.tokens

    def get(self, prefix: TokenSeq) -> Optional[KVBlock]:
        """The block content-addressed by ``prefix`` (either tier)."""
        return self.blocks.get(prefix)

    def touch(self, block: KVBlock, cycle: int) -> None:
        """Refresh a block's recency; re-touching COLD promotes it.

        Promotion needs HOT room and may demote colder HOT blocks to
        make it; when pinned HOT state leaves no room the block stays
        COLD (recency still refreshed) — resident either way.
        """
        block.last_touch = cycle
        self._queue(block)
        if block.tier is BlockTier.COLD:
            self.stats.cold_hits += 1
            self._promote(block)

    def add(
        self,
        prefix: TokenSeq,
        start: int,
        handoff: Optional[np.ndarray],
        cycle: int,
    ) -> Optional[KVBlock]:
        """Admit a new block into HOT, demoting/evicting to fit.

        Returns None when pinned HOT blocks alone leave no room (the
        feasibility check runs FIRST, so a doomed admission never
        sweeps warm state).
        """
        size = len(prefix) - start
        if size < 1:
            raise CacheError("cannot admit an empty block")
        if prefix in self.blocks:
            raise CacheError(
                f"block {prefix!r} already resident; touch it instead"
            )
        if not self._make_room(self._hot, size):
            return None
        block = KVBlock(
            prefix=prefix,
            start=start,
            handoff=(
                None if handoff is None
                else np.asarray(handoff).copy()
            ),
            last_touch=cycle,
            sequence_number=self._next_sequence,
        )
        self._next_sequence += 1
        self.blocks[prefix] = block
        self._hot.tokens += size
        self._queue(block)
        return block

    def pin(self, block: KVBlock) -> None:
        """Take one pin on a block: it leaves its tier's victim order."""
        block.refcount += 1
        if block.refcount == 1:
            self._tier(block).pinned += block.size_tokens
            block.version += 1

    def unpin(self, block: KVBlock) -> None:
        """Drop one pin; the last one returns the block to the order."""
        block.refcount -= 1
        if block.refcount == 0:
            self._tier(block).pinned -= block.size_tokens
            self._queue(block)

    def drop(self, block: KVBlock) -> None:
        """Remove a block from the store entirely (an evicted victim)."""
        self._tier(block).tokens -= block.size_tokens
        if block.tier is BlockTier.COLD:
            self.stats.cold_evictions += 1
        del self.blocks[block.prefix]
        block.version += 1
        self.stats.evictions += 1
        if self._on_drop is not None:
            self._on_drop(block)

    # -- internals ---------------------------------------------------------

    def _tier(self, block: KVBlock) -> _Tier:
        return self._hot if block.tier is BlockTier.HOT else self._cold

    def _queue(self, block: KVBlock) -> None:
        """Stale the block's heap entry; re-enter it if unpinned."""
        block.version += 1
        if block.refcount:
            return
        heap = self._tier(block).heap
        heapq.heappush(heap, (
            block.last_touch, -len(block.prefix), block.sequence_number,
            block.version, block,
        ))
        if len(heap) > 2 * len(self.blocks) + 16:
            # Drop stale entries so a tier that never fills stays small.
            heap[:] = [entry for entry in heap if entry[3] == entry[4].version]
            heapq.heapify(heap)

    def _make_room(self, tier: _Tier, size: int) -> bool:
        """Free ``size`` tokens of ``tier`` by its victim order.

        HOT victims demote, COLD victims drop out.  False, touching
        nothing, when pinned blocks alone leave no room.
        """
        if tier.tokens + size <= tier.capacity:
            return True
        if tier.pinned + size > tier.capacity:
            return False
        evict = self._demote if tier is self._hot else self.drop
        while tier.tokens + size > tier.capacity:
            entry = heapq.heappop(tier.heap)
            if entry[3] == entry[4].version:  # else stale: skip it
                evict(entry[4])
        return True

    def _demote(self, block: KVBlock) -> None:
        """Move an unpinned HOT block down a tier (or out)."""
        if self._make_room(self._cold, block.size_tokens):
            self._move(block, BlockTier.COLD)
            self.stats.demotions += 1
        else:
            self.drop(block)

    def _promote(self, block: KVBlock) -> None:
        # Making HOT room can demote HOT blocks into COLD, and THAT
        # can evict COLD blocks — the promotee must not be one of
        # them, so it is pinned for the duration of the shuffle.
        self.pin(block)
        try:
            promoted = self._make_room(self._hot, block.size_tokens)
        finally:
            self.unpin(block)
        if promoted:
            self._move(block, BlockTier.HOT)
            self.stats.promotions += 1

    def _move(self, block: KVBlock, tier: BlockTier) -> None:
        """Re-tier a block, carrying its tokens and any pins along."""
        size = block.size_tokens
        source = self._tier(block)
        block.tier = tier
        target = self._tier(block)
        source.tokens -= size
        target.tokens += size
        if block.refcount:
            source.pinned -= size
            target.pinned += size
        self._queue(block)
