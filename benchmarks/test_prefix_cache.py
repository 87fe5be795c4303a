"""Prefix-cache subsystem: one prefill launch per shared prompt.

GRPO rollout groups share their prompt by construction and interactive
traffic repeats system-prompt-style prefixes, yet FIFO admission makes
every request pay its own prefill forward.  This benchmark drives the
same grouped-rollout + shared-prefix-interactive trace through three
stacks of equal pool shape:

* **fifo** — :class:`~repro.specdec.control.FifoAdmission`, no cache:
  the pre-PR baseline; every request prefills itself.
* **cache-only** — FIFO admission order untouched, but each worker
  carries a :class:`~repro.cache.manager.KVCacheManager`: repeated
  prompts become cache hits without changing any scheduling decision.
* **prefix-aware** — the full stack:
  :class:`~repro.specdec.control.PrefixAwareAdmission` co-admits
  shared-prefix requests into one wave,
  :class:`~repro.serving.dispatch.PrefixAffinityDispatch` routes
  arrivals to the worker already holding their prefix, and the cache
  serves the rest.

Asserted shape: the full stack issues **>= 2x fewer prefill launches**
than the FIFO baseline on the grouped trace, with every committed token
byte-identical across all three runs (the hidden hand-off is a pure
function of the prompt, so serving it from cache — or sharing one
leader row across a co-admitted group — cannot change outputs).
"""

from __future__ import annotations

from _common import format_table, trained_substrate, write_result

import numpy as np

from repro.serving import (
    LeastLoadedDispatch,
    PrefixAffinityDispatch,
    ServingEngine,
)
from repro.specdec import PrefixAwareAdmission, SdStrategy
from repro.workload import mixed_serving_trace, shared_prefix_trace
from repro.workload.traces import BATCH_GROUP_SIZE

NUM_WORKERS = 2
MAX_BATCH = 2
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8)
KV_CACHE_TOKENS = 4096

#: Rollout floor: 4 GRPO groups x 4 members sharing one prompt each.
NUM_GROUPS = 4
GROUP_SIZE = BATCH_GROUP_SIZE
TRACE_SEED = 31

#: Interactive stream: 8 arrivals drawn from 2 repeated prompts (the
#: system-prompt / retried-question shape).
NUM_INTERACTIVE = 8
NUM_PREFIXES = 2


def _trace(vocab_size):
    rollouts = mixed_serving_trace(
        np.random.default_rng(TRACE_SEED),
        vocab_size,
        num_interactive=1,  # placeholder stream, dropped below
        num_batch=NUM_GROUPS * GROUP_SIZE,
    )
    floor = [r for r in rollouts if r.slo.name == "batch"]
    stream = shared_prefix_trace(
        np.random.default_rng(TRACE_SEED + 1),
        vocab_size,
        num_requests=NUM_INTERACTIVE,
        num_prefixes=NUM_PREFIXES,
        prefix_len=4,
        suffix_len=0,
        mean_interarrival=3.0,
        start_id=1000,
    )
    return sorted(
        floor + stream, key=lambda r: (r.arrival_time, r.request_id)
    )


def _pool(target, drafter, admission=None, cache=None, dispatch=None):
    return ServingEngine(
        target,
        drafter,
        num_workers=NUM_WORKERS,
        strategy=STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=MAX_BATCH,
        dispatch=dispatch or LeastLoadedDispatch(),
        group_affinity=True,
        # Stealing could move a queued group member to the other
        # worker mid-run, splitting a group's prefill across two
        # caches; keep placement under the policies being measured.
        work_stealing=False,
        admission=admission,
        kv_cache_tokens=cache,
    )


def test_prefix_cache(benchmark):
    target, drafter, _ = trained_substrate()
    vocab_size = target.config.vocab_size

    configs = {
        "fifo": dict(),
        "cache-only": dict(cache=KV_CACHE_TOKENS),
        "prefix-aware": dict(
            admission=PrefixAwareAdmission(),
            cache=KV_CACHE_TOKENS,
            dispatch=PrefixAffinityDispatch(
                fallback=LeastLoadedDispatch()
            ),
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
                report.prefill_launches,
                report.prefill_launches_saved,
                f"{report.prefix_hit_rate:.0%}",
                "  ".join(
                    f"{rate:.0%}"
                    for rate in report.worker_prefix_hit_rates()
                ),
                f"{report.p99_latency:.2f}",
                f"{report.ticks:.0f}",
            ]
        )
    fifo = grid["fifo"]["report"]
    full = grid["prefix-aware"]["report"]
    rows.append(
        [
            "amortisation",
            f"{fifo.prefill_launches / max(full.prefill_launches, 1):.1f}x",
            "", "", "", "", "",
        ]
    )
    write_result(
        "prefix_cache",
        format_table(
            [
                "stack", "prefill", "saved", "hit rate",
                "per-worker hits", "p99", "ticks",
            ],
            rows,
        ),
    )

    # Byte-identical outputs across all three stacks: the cache and
    # the admission/dispatch reordering change WHERE and WHEN prefills
    # run, never WHICH tokens are committed.
    reference = [r.response for r in fifo.records]
    for label, run in grid.items():
        assert [
            r.response for r in run["report"].records
        ] == reference, label

    # The FIFO baseline pays one prefill per request; the full stack
    # amortises each shared prompt to ONE launch -> >= 2x fewer.
    total_requests = NUM_GROUPS * GROUP_SIZE + NUM_INTERACTIVE
    assert fifo.prefill_launches == total_requests
    assert fifo.prefill_launches_saved == 0
    assert full.prefill_launches * 2 <= fifo.prefill_launches
    assert (
        full.prefill_launches + full.prefill_launches_saved
        == total_requests
    )
    # Cache-only already saves (repeat prompts hit), but co-admission
    # plus affinity routing must save at least as much.
    assert (
        full.prefill_launches
        <= grid["cache-only"]["report"].prefill_launches
    )
    assert full.prefix_hit_rate > 0.0
