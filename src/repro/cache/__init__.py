"""Shared prefix-cache subsystem (paged block-granular KV reuse).

GRPO rollout groups share their prompt by construction, and interactive
traffic repeats system-prompt-style prefixes; both workloads pay a
prefill forward per request today.  This package owns the machinery
that amortises it:

* :class:`~repro.cache.prefix_index.PrefixIndex` — a path-compressed
  radix tree over token sequences answering longest-shared-prefix
  queries in O(query length);
* :mod:`repro.cache.blocks` — fixed-size content-addressed KV blocks
  with per-boundary positional hand-offs and a token-budgeted two-tier
  (HOT/COLD) :class:`~repro.cache.blocks.BlockStore`;
* :class:`~repro.cache.manager.KVCacheManager` — the per-worker facade:
  effective-context keying, exact-hit and partial-prefix admission
  plans (:meth:`~repro.cache.manager.KVCacheManager.plan_admission`),
  chain-atomic pinning by live slots, and tiered eviction with
  hit/miss/partial/tier accounting.

The engine consumes it through admission
(:class:`~repro.specdec.control.PrefixAwareAdmission` co-admits waiting
requests sharing a cached or in-flight prefix so one prefill launch
serves all of them) and the serving layer through dispatch
(:class:`~repro.serving.dispatch.PrefixAffinityDispatch` routes
arrivals to the worker already holding their prefix).
"""

from repro.cache.blocks import (
    BlockTier,
    KVBlock,
    block_boundaries,
    effective_prefill_context,
)
from repro.cache.manager import (
    AdmissionPlan,
    CacheStats,
    KVCacheManager,
)
from repro.cache.prefix_index import PrefixIndex, common_prefix_len

__all__ = [
    "AdmissionPlan",
    "BlockTier",
    "CacheStats",
    "KVBlock",
    "KVCacheManager",
    "PrefixIndex",
    "block_boundaries",
    "common_prefix_len",
    "effective_prefill_context",
]
