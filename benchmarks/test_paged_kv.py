"""Paged block-granular KV: token-granular prefill amortisation.

The prefix-cache benchmark scores *launch* amortisation — one prefill
forward per distinct prompt.  This one scores the finer-grained lever
the paged rework adds: on a grouped-rollout + shared-prefix trace whose
prompts share long system prefixes but diverge in their suffixes,
exact-match caching can coalesce nothing (every prompt is distinct)
while block-granular admission reuses the shared whole blocks and
prefills **only each prompt's uncovered suffix**.  Four stacks of equal
pool shape:

* **no-cache** — the byte-identity reference; every prompt prefills
  its full effective context.
* **exact** — a block size above every key: whole-key blocks, the
  pre-paged behaviour (repeat prompts hit, distinct prompts pay full).
* **paged** — fixed-size blocks: distinct prompts sharing a prefix
  prefill only their divergent suffixes.
* **paged-tight** — paged under HOT-capacity pressure with a COLD
  demotion tier, surfacing the tier counters (demotions, promotions,
  cold hits/evictions) under real eviction traffic.

Asserted shape: the paged stack prefills **strictly fewer prompt
tokens** than exact-match caching, token conservation holds
(``prefill_tokens + prefill_tokens_saved`` equal across cached
stacks), and all outputs are byte-identical to the no-cache reference
(the hand-off is a pure function of the effective context).
"""

from __future__ import annotations

from _common import format_table, write_result

import numpy as np

from repro.drafter import EagleDrafter, EagleDrafterConfig
from repro.llm import TinyLM, TinyLMConfig
from repro.serving import LeastLoadedDispatch, ServingEngine
from repro.specdec import PrefixAwareAdmission, SdStrategy
from repro.workload import shared_prefix_trace

NUM_WORKERS = 2
MAX_BATCH = 4
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)

#: A wide context window so effective keys span several blocks (the
#: fig-substrate window of 4 would make every key a single block).
WINDOW = 16
BLOCK = 4
#: Above every effective key (none exceeds the window): whole-key blocks.
EXACT = 2 * WINDOW
KV_TOKENS = 512
TIGHT_HOT = 28
TIGHT_COLD = 28

#: 12 requests over 3 shared 12-token system prefixes with 2-token
#: divergent suffixes: with BOS the effective keys are 14 tokens
#: sharing their leading 13 — whole blocks 4/8/12 shared, suffixes not.
NUM_REQUESTS = 12
NUM_PREFIXES = 3
PREFIX_LEN = 12
SUFFIX_LEN = 2
TRACE_SEED = 47


def _substrate():
    config = TinyLMConfig(
        vocab_size=24,
        hidden_size=16,
        context_window=WINDOW,
        num_layers=2,
        init_scale=1.5,
    )
    rng = np.random.default_rng(4242)
    target = TinyLM(config, rng)
    # Untrained drafter: speculative decoding is lossless regardless of
    # drafter quality, and this benchmark scores prefill-token
    # accounting + byte identity, not accept length.
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    return target, drafter


def _trace(vocab_size):
    return shared_prefix_trace(
        np.random.default_rng(TRACE_SEED),
        vocab_size,
        num_requests=NUM_REQUESTS,
        num_prefixes=NUM_PREFIXES,
        prefix_len=PREFIX_LEN,
        suffix_len=SUFFIX_LEN,
        mean_interarrival=2.0,
    )


def _pool(target, drafter, **cache_kwargs):
    return ServingEngine(
        target,
        drafter,
        num_workers=NUM_WORKERS,
        strategy=STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=MAX_BATCH,
        dispatch=LeastLoadedDispatch(),
        # Placement must match across stacks for byte-identity and a
        # fair token comparison; stealing would let it diverge.
        work_stealing=False,
        admission=PrefixAwareAdmission(),
        **cache_kwargs,
    )


def test_paged_kv(benchmark):
    target, drafter = _substrate()
    vocab_size = target.config.vocab_size

    configs = {
        "no-cache": dict(),
        "exact": dict(
            kv_cache_tokens=KV_TOKENS, kv_cache_block_size=EXACT
        ),
        "paged": dict(
            kv_cache_tokens=KV_TOKENS, kv_cache_block_size=BLOCK
        ),
        "paged-tight": dict(
            kv_cache_tokens=TIGHT_HOT,
            kv_cache_block_size=BLOCK,
            kv_cache_cold_tokens=TIGHT_COLD,
        ),
    }

    def sweep():
        grid = {}
        for label, config in configs.items():
            pool = _pool(target, drafter, **config)
            report = pool.run(_trace(vocab_size))
            grid[label] = {"report": report}
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for label, run in grid.items():
        report = run["report"]
        rows.append(
            [
                label,
                report.prefill_tokens,
                report.prefill_tokens_saved,
                report.prefill_launches,
                report.prefill_launches_saved,
                f"{report.cache_demotions}/{report.cache_promotions}",
                f"{report.cache_cold_hits}/"
                f"{report.cache_cold_evictions}",
            ]
        )
    exact = grid["exact"]["report"]
    paged = grid["paged"]["report"]
    rows.append(
        [
            "token amortisation",
            f"{exact.prefill_tokens / max(paged.prefill_tokens, 1):.1f}x",
            "", "", "", "", "",
        ]
    )
    write_result(
        "paged_kv",
        format_table(
            [
                "stack", "tokens", "tok saved", "launches",
                "saved", "demote/promote", "cold hit/evict",
            ],
            rows,
        ),
    )

    # Byte-identical outputs across every stack: blocks, partial
    # reuse, and tiered eviction change how much prefill is computed,
    # never which tokens are committed.
    reference = [r.response for r in grid["no-cache"]["report"].records]
    for label, run in grid.items():
        assert [
            r.response for r in run["report"].records
        ] == reference, label

    # Every prompt is distinct (divergent suffixes), so exact-match
    # caching saves nothing the no-cache baseline computes; paged
    # admission reuses the shared whole blocks and prefills strictly
    # fewer tokens.
    base = grid["no-cache"]["report"]
    assert exact.prefill_tokens == base.prefill_tokens
    assert paged.prefill_tokens < exact.prefill_tokens
    # Conservation: computed + saved covers the same key tokens.
    assert (
        paged.prefill_tokens + paged.prefill_tokens_saved
        == exact.prefill_tokens + exact.prefill_tokens_saved
    )
    # The partial reuse the paged stack monetises is visible in its
    # cache stats, not in the exact stack's.
    assert paged.prefill_tokens_saved > exact.prefill_tokens_saved
    # The tight stack ran under real capacity pressure with a COLD
    # tier: demotions happened instead of outright drops.
    tight = grid["paged-tight"]["report"]
    assert tight.cache_demotions > 0


#: Block-size sweep grid, ending on whole-key (exact-match) blocks.
BLOCK_SIZES = (2, 4, 8, 16, EXACT)
DEFAULT_BLOCK = 8  # the ServingEngine default being documented


def test_block_size_sweep(benchmark):
    """Pick ``kv_cache_block_size``: reuse granularity vs block count.

    On the shared-prefix trace the whole-block rule sets the trade:
    smaller blocks cover more of a shared prefix (a 13-token shared
    head is 6 whole 2-blocks = 12 reusable tokens, but only one
    8-block = 8 tokens, and zero 16-blocks), while every extra block
    is an insert/lookup/eviction bookkeeping unit the cache manager
    pays for per admission.  The sweep reports both ends — prompt
    tokens saved and blocks inserted — and the saved-per-block ratio
    the default balances.  The engine default (8 = half the effective
    window here) keeps most of the token savings at roughly half the
    block churn of the finest setting.
    """
    target, drafter = _substrate()
    vocab_size = target.config.vocab_size

    def sweep():
        grid = {}
        for block_size in BLOCK_SIZES:
            pool = _pool(
                target,
                drafter,
                kv_cache_tokens=KV_TOKENS,
                kv_cache_block_size=block_size,
            )
            report = pool.run(_trace(vocab_size))
            insertions = sum(
                worker.engine.kv_cache.stats.insertions
                for worker in pool.workers
            )
            grid[block_size] = {
                "report": report,
                "insertions": insertions,
            }
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for block_size in BLOCK_SIZES:
        run = grid[block_size]
        report = run["report"]
        saved = report.prefill_tokens_saved
        label = "exact" if block_size == EXACT else str(block_size)
        if block_size == DEFAULT_BLOCK:
            label += " (default)"
        rows.append(
            [
                label,
                report.prefill_tokens,
                saved,
                run["insertions"],
                f"{saved / max(run['insertions'], 1):.2f}",
            ]
        )
    write_result(
        "block_size_sweep",
        format_table(
            [
                "block", "tokens", "tok saved", "blocks inserted",
                "saved/block",
            ],
            rows,
        ),
    )

    # Byte identity is block-size-invariant: granularity changes what
    # is recomputed, never what is committed.
    reference = [
        r.response for r in grid[EXACT]["report"].records
    ]
    for block_size in BLOCK_SIZES:
        assert [
            r.response for r in grid[block_size]["report"].records
        ] == reference, block_size

    # Finer blocks never save fewer tokens (whole-block coverage of a
    # shared prefix is monotone in granularity) ...
    saved = [
        grid[b]["report"].prefill_tokens_saved for b in BLOCK_SIZES
    ]
    assert all(a >= b for a, b in zip(saved, saved[1:])), saved
    # ... and never insert fewer blocks (the bookkeeping overhead the
    # granularity is traded against).
    inserted = [grid[b]["insertions"] for b in (2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(inserted, inserted[1:])), inserted
    assert grid[2]["insertions"] > grid[16]["insertions"]

    # The documented default earns its place on this trace: real token
    # savings at strictly less block churn than the finest setting.
    assert grid[DEFAULT_BLOCK]["report"].prefill_tokens_saved > 0
    assert grid[DEFAULT_BLOCK]["insertions"] < grid[2]["insertions"]
