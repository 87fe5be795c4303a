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

Pinned blocks (``refcount > 0``) are never demoted or evicted in
either tier: a live slot's source blocks must survive any pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    hand-off exists for those).
    """
    key = tuple(int(t) for t in sequence)[:-1] if len(sequence) else ()
    if context_window is not None and context_window > 0:
        key = key[-context_window:]
    return key


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
    """

    prefix: TokenSeq
    start: int
    handoff: Optional[np.ndarray] = None
    refcount: int = 0
    tier: BlockTier = BlockTier.HOT
    last_touch: int = 0
    sequence_number: int = 0

    @property
    def end(self) -> int:
        """One past the last key position this block covers."""
        return len(self.prefix)

    @property
    def size_tokens(self) -> int:
        """Capacity charge of this block, in tokens."""
        return len(self.prefix) - self.start


def _victim_order(block: KVBlock) -> Tuple[int, int, int]:
    """LRU first; at equal touch the deepest block of a chain first."""
    return (block.last_touch, -len(block.prefix), block.sequence_number)


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
        self.hot_capacity = hot_capacity
        self.cold_capacity = cold_capacity
        self.stats = stats
        self._on_drop = on_drop
        self.blocks: Dict[TokenSeq, KVBlock] = {}
        self.hot_tokens = 0
        self.cold_tokens = 0
        self._next_sequence = 0

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def cached_tokens(self) -> int:
        """Tokens resident across both tiers."""
        return self.hot_tokens + self.cold_tokens

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
        if not self._make_room_hot(size):
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
        self.hot_tokens += size
        return block

    def drop(self, block: KVBlock) -> None:
        """Remove a block from the store entirely (explicit eviction)."""
        if block.tier is BlockTier.HOT:
            self.hot_tokens -= block.size_tokens
        else:
            self.cold_tokens -= block.size_tokens
            self.stats.cold_evictions += 1
        del self.blocks[block.prefix]
        self.stats.evictions += 1
        if self._on_drop is not None:
            self._on_drop(block)

    # -- internals ---------------------------------------------------------

    def _tier_blocks(self, tier: BlockTier) -> List[KVBlock]:
        return [b for b in self.blocks.values() if b.tier is tier]

    def _make_room_hot(self, size: int) -> bool:
        if self.hot_tokens + size <= self.hot_capacity:
            return True
        hot = self._tier_blocks(BlockTier.HOT)
        pinned = sum(
            b.size_tokens for b in hot if b.refcount > 0
        )
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
        """Move a cold unpinned HOT block down a tier (or out)."""
        self.hot_tokens -= block.size_tokens
        if (
            self.cold_capacity > 0
            and self._make_room_cold(block.size_tokens)
        ):
            block.tier = BlockTier.COLD
            self.cold_tokens += block.size_tokens
            self.stats.demotions += 1
            return
        del self.blocks[block.prefix]
        self.stats.evictions += 1
        if self._on_drop is not None:
            self._on_drop(block)

    def _make_room_cold(self, size: int) -> bool:
        if size > self.cold_capacity:
            return False
        if self.cold_tokens + size <= self.cold_capacity:
            return True
        cold = self._tier_blocks(BlockTier.COLD)
        pinned = sum(
            b.size_tokens for b in cold if b.refcount > 0
        )
        if pinned + size > self.cold_capacity:
            return False
        victims = sorted(
            (b for b in cold if b.refcount == 0), key=_victim_order
        )
        for victim in victims:
            self.cold_tokens -= victim.size_tokens
            del self.blocks[victim.prefix]
            self.stats.evictions += 1
            self.stats.cold_evictions += 1
            if self._on_drop is not None:
                self._on_drop(victim)
            if self.cold_tokens + size <= self.cold_capacity:
                return True
        return self.cold_tokens + size <= self.cold_capacity

    def _promote(self, block: KVBlock) -> None:
        # Making HOT room can demote HOT blocks into COLD, and THAT
        # can evict COLD blocks — the promotee must not be one of
        # them, so it is pinned for the duration of the shuffle.
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
