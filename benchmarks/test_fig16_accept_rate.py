"""Figure 16: per-position token accept rate, vanilla vs adaptive drafter.

The target is RL-updated for several steps.  A *vanilla* drafter (trained
once on the base model, then frozen) is compared against an *adaptive*
drafter (same initial training, then spot-retrained on the updated
target's rollouts).  Expected shape: the adaptive drafter sustains higher
accept rates at every draft position, with the gap widening at deeper
positions (error accumulation punishes staleness).
"""

from __future__ import annotations

import numpy as np

from _common import (
    build_target,
    format_table,
    rollout_data,
    train_eagle,
    write_result,
)
from repro.llm.vocab import Vocabulary
from repro.longtail import RolloutScheduler
from repro.rl import RlConfig, RlTrainer
from repro.serving import ServingEngine
from repro.specdec import SdRunMetrics, SdStrategy, speculative_generate
from repro.workload import SuccessorChainTask

RL_STEPS = 6


def test_fig16_accept_rate(benchmark):
    def run():
        policy = build_target(seed=903)
        base_data = rollout_data(policy, num_prompts=40, seed=3)
        vanilla_drafter = train_eagle(policy, base_data, epochs=250)
        adaptive_drafter = vanilla_drafter.clone()

        # RL-update the target (the distribution shift).
        task = SuccessorChainTask(
            vocab=Vocabulary(policy.config.vocab_size), target_pairs=10
        )
        rl = RlTrainer(
            policy, task,
            RlConfig(num_prompts=6, group_size=6, max_new_tokens=32,
                     temperature=0.9, learning_rate=8e-3,
                     kl_coef=0.002),
            backend=RolloutScheduler(
                ServingEngine(policy, None, temperature=0.9)
            ),
            rng=np.random.default_rng(41),
        )
        rl.run(RL_STEPS)

        # Adaptive drafter: retrain on the *updated* target's rollouts.
        fresh_data = rollout_data(policy, num_prompts=40, seed=13)
        from repro.drafter import DrafterTrainer, DrafterTrainingConfig
        from repro.drafter.training import (
            build_training_batch,
            collect_training_sequences,
        )

        trainer = DrafterTrainer(
            adaptive_drafter,
            DrafterTrainingConfig(learning_rate=5e-3),
        )
        batch = build_training_batch(
            collect_training_sequences(policy, fresh_data),
            unroll_steps=1,
        )
        trainer.train_epochs(batch, 200)

        strategy = SdStrategy(draft_depth=8, topk=2, tokens_to_verify=16)
        rng = np.random.default_rng(11)
        prompts = [
            list(rng.integers(3, policy.config.vocab_size, size=4))
            for _ in range(64)
        ]

        def profile(drafter, rounds=3):
            # Accept-length gaps of a few tenths need a few thousand
            # cycles to resolve; aggregate several generation rounds.
            profile_rng = np.random.default_rng(19)
            metrics = SdRunMetrics()
            for _ in range(rounds):
                out = speculative_generate(
                    policy, drafter, prompts, max_new_tokens=64,
                    temperature=0.9, rng=profile_rng,
                    strategy=strategy,
                )
                metrics = metrics.merged(out.metrics)
            return metrics.profile.rates(), metrics.mean_accept_length

        return profile(vanilla_drafter), profile(adaptive_drafter)

    (van_rates, van_len), (ada_rates, ada_len) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    depth = min(len(van_rates), len(ada_rates), 8)
    rows = [
        [i + 1, f"{van_rates[i] * 100:.0f}%", f"{ada_rates[i] * 100:.0f}%"]
        for i in range(depth)
    ]
    rows.append(["accept len", f"{van_len:.2f}", f"{ada_len:.2f}"])
    write_result(
        "fig16_accept_rate",
        format_table(
            ["draft position", "vanilla drafter", "adaptive drafter"],
            rows,
        ),
    )

    # Adaptive wins on overall accept length...
    assert ada_len > van_len
    # ...and on the (attempt-weighted) early positions, where most of
    # the acceptance mass lives.  Individual positions are noisy at this
    # sample size, so the comparison averages positions 1-4.
    early = min(depth, 4)
    assert np.mean(ada_rates[:early]) > np.mean(van_rates[:early])
