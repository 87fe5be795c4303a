"""Closed-loop co-location: RL rollouts soaking the serving pool.

The ROADMAP's north-star scenario measured end to end.  Three pools of
equal total size (2 workers) on the same workload ingredients:

* **no-RL** — both workers serve the interactive trace only: the
  latency/SLO reference and the capacity-bubble exhibit (most slots
  idle).
* **dedicated** — the classic split: one worker serves the interactive
  trace, the other decodes the GRPO rollout batch, nothing shared.
* **co-located** — both workers serve the interactive trace while a
  :class:`~repro.longtail.RolloutScheduler` puts the rollout batch on
  the SAME pool as group-tagged BATCH-class requests (whole-group FIFO
  mode, so the rollout columns are the un-reordered baseline);
  :class:`~repro.serving.dispatch.SloPreemption` parks rollouts
  whenever an interactive arrival needs a slot and resumes them
  byte-identically when it frees.

Expected shape (asserted below): the co-located pool completes the
rollout batch at >= 1.5x the dedicated pool's token throughput (it can
soak both workers' bubbles instead of owning one worker), while
interactive p99 latency and SLO attainment stay within 5% of the no-RL
baseline — and every committed token, rollout and interactive alike, is
byte-identical to the isolated runs (private per-request streams +
static strategy make scheduling invisible to outputs).
"""

from __future__ import annotations

from _common import format_table, trained_substrate, write_result

import numpy as np

from repro.longtail import RolloutScheduler, SchedulerMode
from repro.serving import (
    INTERACTIVE,
    LeastLoadedDispatch,
    ServingEngine,
    SloPreemption,
    poisson_trace,
)
from repro.specdec import SdStrategy
from repro.workload import LognormalLengths

NUM_WORKERS = 2
MAX_BATCH = 2
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8)

#: Light interactive stream — the traffic whose bubbles RL reclaims.
NUM_INTERACTIVE = 12
INTERACTIVE_GAP = 4.0
INTERACTIVE_LENGTHS = LognormalLengths(median=4.0, sigma=0.4, cap=8)
TRACE_SEED = 23

#: One GRPO rollout batch: 6 groups x 2 = 12 BATCH-class requests.
NUM_GROUPS = 6
GROUP_SIZE = 2
ROLLOUT_TOKENS = 36
ROLLOUT_SEED = 91


def _interactive_trace(vocab_size: int):
    return poisson_trace(
        np.random.default_rng(TRACE_SEED),
        num_requests=NUM_INTERACTIVE,
        mean_interarrival=INTERACTIVE_GAP,
        length_model=INTERACTIVE_LENGTHS,
        vocab_size=vocab_size,
        slo_mix=((INTERACTIVE, 1.0),),
        start_id=0,
    )


def _rollout_prompts(vocab_size: int):
    """GRPO-expanded prompts: each unique prompt repeated per group."""
    rng = np.random.default_rng(7)
    prompts = []
    for _ in range(NUM_GROUPS):
        prompt = list(rng.integers(3, vocab_size, size=4))
        prompts.extend([list(prompt)] * GROUP_SIZE)
    return prompts


def _pool(target, drafter, num_workers):
    return ServingEngine(
        target,
        drafter,
        num_workers=num_workers,
        strategy=STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=MAX_BATCH,
        dispatch=LeastLoadedDispatch(),
        preemption=SloPreemption(),
        # Per-worker prefix cache + group co-location (admission stays
        # FIFO): each GRPO group lands on one worker, so every member
        # after the first prefills from cache — the report's prefix
        # columns show what co-location amortises.
        kv_cache_tokens=2048,
        group_affinity=True,
    )


def test_colocated_rollout(benchmark):
    target, drafter, _ = trained_substrate()
    vocab_size = target.config.vocab_size
    prompts = _rollout_prompts(vocab_size)

    def sweep():
        grid = {}

        # -- no-RL baseline: 2 workers, interactive only ----------------
        frontend = _pool(target, drafter, NUM_WORKERS)
        base_report = frontend.run(_interactive_trace(vocab_size))
        grid["no-RL"] = {
            "inter": base_report,
            "rollout_tokens": 0.0,
            "rollout_ticks": 0.0,
            "rollout": None,
            "preemptions": base_report.preemptions,
        }

        # -- dedicated split: 1 worker each -----------------------------
        inter_pool = _pool(target, drafter, 1)
        inter_report = inter_pool.run(_interactive_trace(vocab_size))
        rollout_pool = _pool(target, drafter, 1)
        backend = RolloutScheduler(rollout_pool, mode=SchedulerMode.FIFO)
        result = backend.generate(
            target, prompts, ROLLOUT_TOKENS, TEMPERATURE,
            np.random.default_rng(ROLLOUT_SEED),
        )
        grid["dedicated"] = {
            "inter": inter_report,
            "rollout_tokens": result.stats["rollout_tokens"],
            "rollout_ticks": result.stats["pool_ticks"],
            "rollout": result,
            "preemptions": 0,
        }

        # -- co-located: one shared 2-worker pool -----------------------
        frontend = _pool(target, drafter, NUM_WORKERS)
        for request in _interactive_trace(vocab_size):
            frontend.submit(request)
        backend = RolloutScheduler(frontend, mode=SchedulerMode.FIFO)
        result = backend.generate(
            target, prompts, ROLLOUT_TOKENS, TEMPERATURE,
            np.random.default_rng(ROLLOUT_SEED),
        )
        coloc_report = frontend.run(())  # drain leftover interactive
        grid["co-located"] = {
            "inter": coloc_report,
            "rollout_tokens": result.stats["rollout_tokens"],
            "rollout_ticks": result.stats["pool_ticks"],
            "rollout": result,
            "preemptions": coloc_report.preemptions,
        }
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def interactive_records(report):
        return [
            r for r in report.records
            if r.request.slo.name == "interactive"
        ]

    rows = []
    for label, run in grid.items():
        report = run["inter"]
        inter = report.per_class()["interactive"]
        batch_util = report.class_utilization.get("batch", 0.0)
        throughput = (
            run["rollout_tokens"] / run["rollout_ticks"]
            if run["rollout_ticks"] else 0.0
        )
        rows.append(
            [
                label,
                f"{inter['p99_latency']:.2f}",
                f"{inter['slo_attainment']:.0%}",
                f"{run['rollout_tokens']:.0f}",
                f"{run['rollout_ticks']:.0f}",
                f"{throughput:.2f}",
                f"{batch_util:.0%}",
                run["preemptions"],
                f"{report.prefix_hit_rate:.0%}",
                report.prefill_launches_saved,
            ]
        )
    write_result(
        "colocated_rollout",
        format_table(
            [
                "pool", "inter p99", "inter SLO", "rl toks",
                "rl ticks", "rl tok/tick", "batch util", "parks",
                "prefix hit", "prefill saved",
            ],
            rows,
        ),
    )

    base = grid["no-RL"]["inter"].per_class()["interactive"]
    coloc = grid["co-located"]["inter"].per_class()["interactive"]

    # Interactive latency and SLO attainment within 5% of the no-RL
    # baseline: preemption absorbs the co-located rollout floor.
    assert coloc["p99_latency"] <= base["p99_latency"] * 1.05
    assert coloc["slo_attainment"] >= base["slo_attainment"] * 0.95

    # The co-located pool reclaims idle capacity: >= 1.5x the rollout
    # token throughput of the equal-size dedicated split (which pins
    # rollouts to a single worker).
    dedicated_tp = (
        grid["dedicated"]["rollout_tokens"]
        / grid["dedicated"]["rollout_ticks"]
    )
    coloc_tp = (
        grid["co-located"]["rollout_tokens"]
        / grid["co-located"]["rollout_ticks"]
    )
    assert coloc_tp >= 1.5 * dedicated_tp

    # Byte-identical outputs: the shared pool changed WHERE tokens were
    # decoded, never WHICH tokens.
    assert (
        grid["co-located"]["rollout"].responses
        == grid["dedicated"]["rollout"].responses
    )
    assert [
        r.response for r in interactive_records(grid["co-located"]["inter"])
    ] == [
        r.response for r in interactive_records(grid["no-RL"]["inter"])
    ]
    # Every request of both classes finished, and rollouts were indeed
    # parked for interactive arrivals at least once.
    assert all(r.finished for r in grid["co-located"]["inter"].records)
    assert grid["co-located"]["preemptions"] > 0
