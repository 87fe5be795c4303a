"""Prefix-cache serving: one prefill per shared prompt across the pool.

Drives a mixed workload — grouped GRPO-style rollout requests (every
group shares one prompt by construction) plus an interactive stream
drawn from a small family of repeated prompts — through three stacks of
the same 2-worker pool:

* plain FIFO admission (the baseline: every request prefills itself);
* FIFO + a per-worker :class:`~repro.cache.manager.KVCacheManager`
  (repeated prompts become cache hits, scheduling untouched);
* the full prefix stack:
  :class:`~repro.specdec.control.PrefixAwareAdmission` co-admits
  shared-prefix requests into one admission wave and
  :class:`~repro.serving.dispatch.PrefixAffinityDispatch` routes
  arrivals to the worker whose cache already holds their prefix.

Every committed token is byte-identical across the three stacks — the
hidden hand-off served from cache is a pure function of the prompt —
so the prefill-launch column is pure savings.

Run:  python examples/prefix_cache_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.drafter import EagleDrafter, EagleDrafterConfig
from repro.llm import TinyLMConfig
from repro.llm.pretrain import pretrained_target
from repro.serving import (
    LeastLoadedDispatch,
    PrefixAffinityDispatch,
    ServingEngine,
)
from repro.specdec import PrefixAwareAdmission, SdStrategy
from repro.workload import mixed_serving_trace, shared_prefix_trace


def build_trace(vocab_size: int):
    """Grouped rollout floor + shared-prefix interactive stream."""
    rollouts = mixed_serving_trace(
        np.random.default_rng(11),
        vocab_size,
        num_interactive=1,  # placeholder stream, replaced below
        num_batch=12,  # 3 GRPO groups x 4 members
    )
    floor = [r for r in rollouts if r.slo.name == "batch"]
    stream = shared_prefix_trace(
        np.random.default_rng(12),
        vocab_size,
        num_requests=10,
        num_prefixes=3,  # system-prompt-style repeated prefixes
        prefix_len=4,
        suffix_len=0,
        mean_interarrival=2.5,
        start_id=1000,
    )
    return sorted(
        floor + stream, key=lambda r: (r.arrival_time, r.request_id)
    )


def main() -> None:
    rng = np.random.default_rng(0)
    config = TinyLMConfig(
        vocab_size=32, hidden_size=32, context_window=4, num_layers=4,
        init_scale=0.8,
    )
    target = pretrained_target(config, rng, chain_prob=0.75)
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    strategy = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8)
    trace = build_trace(config.vocab_size)
    groups = len({r.group for r in trace if r.group is not None})
    print(
        f"trace: {len(trace)} requests "
        f"({groups} rollout groups sharing one prompt each, "
        f"interactive stream over 3 repeated prefixes)\n"
    )

    def pool(admission=None, cache=None, dispatch=None):
        return ServingEngine(
            target, drafter, num_workers=2, strategy=strategy,
            temperature=0.8, max_batch_size=2,
            dispatch=dispatch or LeastLoadedDispatch(),
            group_affinity=True, work_stealing=False,
            admission=admission, kv_cache_tokens=cache,
        )

    stacks = [
        ("fifo", pool()),
        ("fifo + cache", pool(cache=4096)),
        (
            "prefix-aware + affinity",
            pool(
                admission=PrefixAwareAdmission(),
                cache=4096,
                dispatch=PrefixAffinityDispatch(),
            ),
        ),
    ]
    print(f"{'stack':>24} {'prefill':>8} {'saved':>6} {'hit rate':>9} "
          f"{'p99':>7} {'ticks':>6}")
    reports = []
    for label, frontend in stacks:
        report = frontend.run(list(trace))
        reports.append(report)
        print(
            f"{label:>24} {report.prefill_launches:>8} "
            f"{report.prefill_launches_saved:>6} "
            f"{report.prefix_hit_rate:>8.0%} "
            f"{report.p99_latency:>7.1f} {report.ticks:>6.0f}"
        )

    reference = [r.response for r in reports[0].records]
    identical = all(
        [r.response for r in report.records] == reference
        for report in reports[1:]
    )
    baseline, full = reports[0], reports[-1]
    print(
        f"\nprefill amortisation: {baseline.prefill_launches} -> "
        f"{full.prefill_launches} launches "
        f"({baseline.prefill_launches / full.prefill_launches:.1f}x "
        f"fewer)"
    )
    print(f"all outputs byte-identical across stacks: {identical}")


if __name__ == "__main__":
    main()
