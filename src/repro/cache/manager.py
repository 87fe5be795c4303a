"""Per-worker paged prefix cache: blocks, ref-counting, tiered eviction.

A :class:`KVCacheManager` owns the cached *prefix state* of one decode
worker.  In the real system that state is the KV cache of a prompt
prefix; on this algorithmic substrate the reusable artifact is the
target **hidden hand-off** — the (num_layers, hidden_size) stack at a
position that seeds the drafter
(:func:`repro.specdec.engine.initial_hiddens`).  The hand-off is a pure
function of the tokens in the model's context window, so serving it
from cache is byte-identical to recomputing it; what the cache saves is
prefill compute (tokens pushed through the target).

Since the paged rework the manager is a facade over
:class:`~repro.cache.blocks.BlockStore`:

* **Keys are effective contexts** — a prompt is keyed by
  :func:`~repro.cache.blocks.effective_prefill_context` (the trailing
  ``context_window`` tokens of ``p[:-1]``), the tokens its hand-off
  actually depends on.  Window-equivalent prompts share cache state
  even when their early tokens differ.
* **Storage is block-granular** — keys split into fixed-size,
  content-addressed blocks with per-boundary positional hand-offs;
  prompts sharing a prefix share the underlying blocks (copy-on-write:
  divergence allocates only divergent-suffix blocks).
* **Admission monetises partial matches** — :meth:`plan_admission`
  consults the radix :class:`~repro.cache.prefix_index.PrefixIndex`,
  reuses every whole cached block of the matched prefix, and tells the
  engine to prefill only the suffix beyond the last cached boundary.
* **Ref-counting is chain-atomic** — :meth:`acquire`/:meth:`release`
  pin/unpin every block of a key's chain, so eviction can never touch
  state a live slot was served from.  Every pin goes through
  :meth:`~repro.cache.blocks.BlockStore.pin` /
  :meth:`~repro.cache.blocks.BlockStore.unpin` (which keep each tier's
  pinned-token tally and victim heap current), and
  :meth:`insert_chain` also pins the blocks it has already walked for
  the rest of the walk, so admitting a deeper block can never evict
  the chain's own prefix.
* **Eviction is tiered** — cold unpinned blocks demote into a budgeted
  second tier (promoted back on re-touch) before being dropped; see
  :mod:`repro.cache.blocks` for the victim order and tier mechanics.

Accounting: :meth:`plan_admission` counts exact hits and misses
(partial reuse is tracked separately — ``partial_hits`` /
``reused_tokens`` — so the exact hit rate the reports surface keeps its
meaning); probes (:meth:`longest_prefix`, :meth:`contains`,
:meth:`covers_prompt`, :meth:`prompt_match`) never touch the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, Mapping, Optional, Sequence

import numpy as np

from repro.cache.blocks import (
    BlockStore,
    KVBlock,
    block_boundaries,
    effective_prefill_context,
)
from repro.cache.prefix_index import PrefixIndex, TokenSeq, as_key
from repro.errors import CacheError


@dataclass
class CacheStats:
    """Hit/miss/eviction/tier accounting (monotonic counters).

    A declined insert counts under one of two distinct conditions:

    * ``rejected_pinned`` — inserts declined because pinned blocks
      alone left no room (evicting them would corrupt a live slot);
    * ``rejected_oversize`` — inserts declined because the key exceeds
      the cache's total capacity outright.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_pinned: int = 0
    rejected_oversize: int = 0
    #: Admissions that reused a non-empty cached block prefix without
    #: an exact hit (the partial matches the paged tier monetises).
    partial_hits: int = 0
    #: Prompt tokens skipped at admission via block reuse.
    reused_tokens: int = 0
    #: HOT blocks moved to the COLD tier under capacity pressure.
    demotions: int = 0
    #: COLD blocks moved back to HOT on re-touch.
    promotions: int = 0
    #: Touches served by a COLD-tier block (the demotion tier paying off).
    cold_hits: int = 0
    #: Evictions that dropped a COLD-tier block out of the cache.
    cold_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Exact-match lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 before any lookup)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


@dataclass
class AdmissionPlan:
    """What the cache can contribute to one prompt's prefill.

    Attributes:
        hidden: the final hand-off on an exact hit (a private copy the
            slot owns), else None.
        compute_start: first key position the engine must compute.
            ``len(key)`` on an exact hit (nothing to compute); with
            partial block reuse, the first position past the last
            reusable boundary — capped at ``len(key) - 1`` so the
            final hand-off is always recomputed when it was not
            stored (the classic recompute-last-token rule).
    """

    hidden: Optional[np.ndarray]
    compute_start: int


class KVCacheManager:
    """Bounded paged store of prefix blocks with chain pins and tiers.

    Args:
        capacity_tokens: HOT-tier token budget; an insert that cannot
            fit after demoting/evicting every unpinned block is
            declined (pinned blocks are never touched).
        block_size: tokens per block.  At or above the longest key
            every key is one monolithic block with no partial reuse
            (the ablation baseline).
        cold_capacity_tokens: COLD demotion-tier budget (0 = evicted
            blocks are dropped outright, the pre-paged behaviour).
        context_window: the target model's window, used to canonicalise
            prompts into effective-context keys.  ``None`` keys on the
            full ``p[:-1]`` (the engine wires the real window in when
            it attaches the cache).
    """

    def __init__(
        self,
        capacity_tokens: int,
        block_size: int = 8,
        cold_capacity_tokens: int = 0,
        context_window: Optional[int] = None,
    ) -> None:
        if capacity_tokens < 1:
            raise CacheError(
                f"capacity_tokens must be >= 1, got {capacity_tokens}"
            )
        if block_size < 1:
            raise CacheError(
                f"block_size must be >= 1, got {block_size}"
            )
        if cold_capacity_tokens < 0:
            raise CacheError(
                f"cold_capacity_tokens must be >= 0, "
                f"got {cold_capacity_tokens}"
            )
        if context_window is not None and context_window < 1:
            raise CacheError(
                f"context_window must be >= 1 or None, "
                f"got {context_window}"
            )
        self.capacity_tokens = capacity_tokens
        self.block_size = block_size
        self.cold_capacity_tokens = cold_capacity_tokens
        self.context_window = context_window
        self.stats = CacheStats()
        self._index = PrefixIndex()
        self._store = BlockStore(
            capacity_tokens,
            cold_capacity_tokens,
            self.stats,
            on_drop=self._unindex,
        )

    # -- state -------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Resident blocks across both tiers."""
        return len(self._store.blocks)

    @property
    def cached_tokens(self) -> int:
        """Tokens currently resident (HOT + COLD)."""
        return self._store.cached_tokens

    @property
    def hot_tokens(self) -> int:
        """Tokens resident in the HOT tier."""
        return self._store.hot_tokens

    @property
    def cold_tokens(self) -> int:
        """Tokens resident in the COLD demotion tier."""
        return self._store.cold_tokens

    def refcount(self, tokens: Sequence[int]) -> int:
        """Pin count of a key's chain (its tail block; 0 when absent)."""
        block = self._store.get(as_key(tokens))
        return 0 if block is None else block.refcount

    # -- keying ------------------------------------------------------------

    def prefill_key(self, prompt: Sequence[int]) -> TokenSeq:
        """Canonical cache key of a prompt: its effective context."""
        return effective_prefill_context(prompt, self.context_window)

    def covers_prompt(self, prompt: Sequence[int]) -> bool:
        """Whether a prompt's full hand-off is cached (no accounting).

        The exact-reuse probe for admission policies: True when the
        prompt's effective-context chain is resident through its tail
        block *with* a stored hand-off — the match the prefill stage
        can serve without computing anything.
        """
        key = self.prefill_key(prompt)
        if not key:
            return False
        tail = self._store.get(key)
        return tail is not None and tail.handoff is not None

    def prompt_match(self, prompt: Sequence[int]) -> int:
        """Leading effective-context tokens shared with the cache.

        The partial-match score for affinity dispatch and min-shared
        admission, measured in the prompt's *key* space (so two
        window-equivalent prompts score as the match they actually
        share).  Non-accounting.
        """
        key = self.prefill_key(prompt)
        return self._index.longest_prefix(key) if key else 0

    # -- queries -----------------------------------------------------------

    def longest_prefix(self, tokens: Sequence[int]) -> int:
        """Leading tokens shared with any cached block (no accounting).

        Probed by dispatch and admission policies to rank candidates;
        it deliberately does NOT count toward hit/miss statistics —
        policies probe speculatively and would otherwise drown the
        hit-rate signal the reports surface.
        """
        return self._index.longest_prefix(tokens)

    def contains(self, tokens: Sequence[int]) -> bool:
        """Whether the exact key's tail block is resident (no accounting)."""
        return self._store.get(as_key(tokens)) is not None

    def plan_admission(
        self,
        key: Sequence[int],
        cycle: int,
        pending: Optional[AbstractSet[TokenSeq]] = None,
    ) -> AdmissionPlan:
        """Plan one prompt's prefill against the cache (accounting).

        Exactly one hit or miss is recorded per call.  On a miss the
        plan consults the radix index for the longest shared prefix,
        walks the block boundaries, and reuses every whole cached
        block — touching (and thereby promoting) each one.  Boundaries
        covered by ``pending`` — blocks another leader of the same
        admission wave is already computing — extend the reuse without
        touching cache statistics (same-wave coalescing is not a cache
        consultation).
        """
        key = as_key(key)
        if not key:
            return AdmissionPlan(None, 0)
        tail = self._store.get(key)
        if tail is not None and tail.handoff is not None:
            self.stats.hits += 1
            for end in block_boundaries(len(key), self.block_size):
                block = self._store.get(key[:end])
                if block is not None:
                    self._store.touch(block, cycle)
            return AdmissionPlan(tail.handoff.copy(), len(key))
        self.stats.misses += 1
        shared = self._index.longest_prefix(key)
        reuse = 0
        for end in block_boundaries(len(key), self.block_size):
            block = (
                self._store.get(key[:end]) if end <= shared else None
            )
            if block is not None:
                self._store.touch(block, cycle)
                reuse = end
            elif pending is not None and key[:end] in pending:
                reuse = end
            else:
                break
        # The final hand-off was not stored: recompute at least the
        # last position (reuse may cover the whole key when its tail
        # block exists without one, or is pending in this wave).
        compute_start = min(reuse, len(key) - 1)
        if compute_start > 0:
            self.stats.partial_hits += 1
            self.stats.reused_tokens += compute_start
        return AdmissionPlan(None, compute_start)

    # -- mutation ----------------------------------------------------------

    def insert(
        self, tokens: Sequence[int], hidden: np.ndarray, cycle: int
    ) -> bool:
        """Cache a key with its final hand-off only.

        Splits the key into blocks; interior boundaries carry no
        stored hand-off (they still license prefix reuse — recompute
        is pure), the tail carries ``hidden``.
        """
        key = as_key(tokens)
        if not key:
            raise CacheError("cannot cache an empty token sequence")
        return self.insert_chain(key, {len(key): hidden}, cycle)

    def insert_chain(
        self,
        key: Sequence[int],
        handoffs: Mapping[int, np.ndarray],
        cycle: int,
    ) -> bool:
        """Cache a key's block chain with per-boundary hand-offs.

        ``handoffs`` maps covered-prefix lengths (block boundaries) to
        the hidden stack at that boundary's last position.  Existing
        blocks are refreshed (and back-filled with a hand-off when
        they lacked one); missing blocks are admitted in order.  The
        walk stops at the first block that cannot be admitted —
        inserting deeper blocks behind a hole would strand them — so a
        declined insert still leaves a reusable prefix behind.

        Every block already walked stays pinned until the walk ends, so
        making room for a deeper block can never evict the chain's own
        prefix; when only that would make room, the walk stops with
        ``rejected_pinned``.

        Returns True when the chain is resident through its tail block
        afterwards.
        """
        key = as_key(key)
        if not key:
            raise CacheError("cannot cache an empty token sequence")
        if len(key) > self.capacity_tokens:
            self.stats.rejected_oversize += 1
            return False
        store = self._store
        walked: List[KVBlock] = []
        try:
            start = 0
            for end in block_boundaries(len(key), self.block_size):
                prefix = key[:end]
                block = store.get(prefix)
                if block is None:
                    block = store.add(
                        prefix, start, handoffs.get(end), cycle
                    )
                    if block is None:
                        self.stats.rejected_pinned += 1
                        return False
                    self._index.insert(prefix)
                    self.stats.insertions += 1
                    store.pin(block)
                else:
                    store.pin(block)  # before the touch: one heap entry
                    store.touch(block, cycle)
                    if block.handoff is None and end in handoffs:
                        block.handoff = np.asarray(
                            handoffs[end]
                        ).copy()
                walked.append(block)
                start = end
            return True
        finally:
            for block in walked:
                store.unpin(block)

    def acquire(self, tokens: Sequence[int]) -> bool:
        """Pin every block of a key's chain (False unless ALL resident).

        All-or-nothing: a partially resident chain is not pinned at
        all, so release can never underflow a block that was absent at
        acquire time.
        """
        chain = self._chain(as_key(tokens))
        if chain is None:
            return False
        for block in chain:
            self._store.pin(block)
        return True

    def release(self, tokens: Sequence[int]) -> bool:
        """Unpin a key's chain (False when its tail is absent).

        Releasing below zero raises — a double release is a lifecycle
        bug in the caller, not a condition to paper over.
        """
        key = as_key(tokens)
        chain = self._chain(key)
        if chain is None:
            return False
        if any(block.refcount < 1 for block in chain):
            raise CacheError(
                f"release() without a matching acquire() for {key!r}"
            )
        for block in chain:
            self._store.unpin(block)
        return True

    # -- internals ---------------------------------------------------------

    def _chain(self, key: TokenSeq) -> Optional[List[KVBlock]]:
        """Every block of ``key``'s chain, or None unless all resident."""
        if not key:
            return None
        chain: List[KVBlock] = []
        for end in block_boundaries(len(key), self.block_size):
            block = self._store.get(key[:end])
            if block is None:
                return None
            chain.append(block)
        return chain

    def _unindex(self, block: KVBlock) -> None:
        self._index.remove(block.prefix)
