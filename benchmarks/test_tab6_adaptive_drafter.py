"""Table 6: effectiveness of the adaptive drafter.

Accept lengths of the continuously adapted drafter against the base
target (Target-Base) and the RL-updated target (Target-R), measured on
RL-training prompts and on a "downstream" prompt mix.  Expected shape:
the adaptive drafter reaches *higher* accept lengths on Target-R than the
base drafter achieved on Target-Base (the paper's 4.59 -> 6.53 and
3.76 -> 5.15 columns), because spot training tracks the target's
distribution as RL sharpens it.
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
from repro.drafter import DrafterTrainer, DrafterTrainingConfig
from repro.drafter.training import (
    build_training_batch,
    collect_training_sequences,
)
from repro.llm.vocab import Vocabulary
from repro.longtail import RolloutScheduler
from repro.rl import RlConfig, RlTrainer
from repro.serving import ServingEngine
from repro.specdec import SdRunMetrics, SdStrategy, speculative_generate
from repro.workload import PatternCopyTask, SuccessorChainTask

STRATEGY = SdStrategy(draft_depth=8, topk=4, tokens_to_verify=24)


def _accept(target, drafter, prompts, temperature=0.9, seed=19,
            rounds=6):
    # Accept-length differences of a few tenths need a few thousand
    # cycles to resolve; aggregate several generation rounds.
    rng = np.random.default_rng(seed)
    metrics = SdRunMetrics()
    for _ in range(rounds):
        out = speculative_generate(
            target, drafter, prompts, max_new_tokens=48,
            temperature=temperature, rng=rng, strategy=STRATEGY,
        )
        metrics = metrics.merged(out.metrics)
    return metrics.mean_accept_length


def test_tab6_adaptive_drafter(benchmark):
    def run():
        policy = build_target(seed=905)
        vocab = Vocabulary(policy.config.vocab_size)
        rl_task = SuccessorChainTask(vocab=vocab, target_pairs=10)
        downstream_task = PatternCopyTask(vocab=vocab)
        rng = np.random.default_rng(2)
        rl_prompts = [rl_task.generate_prompt(rng) for _ in range(24)]
        downstream_prompts = [
            downstream_task.generate_prompt(rng) for _ in range(24)
        ]

        base_drafter = train_eagle(
            policy, rollout_data(policy, num_prompts=40, seed=3),
            epochs=250,
        )
        base_rl = _accept(policy, base_drafter, rl_prompts)
        base_down = _accept(policy, base_drafter, downstream_prompts)

        # RL training sharpens the target's distribution.
        rl = RlTrainer(
            policy, rl_task,
            RlConfig(num_prompts=6, group_size=6, max_new_tokens=32,
                     temperature=0.9, learning_rate=8e-3,
                     kl_coef=0.002),
            backend=RolloutScheduler(
                ServingEngine(policy, None, temperature=0.9)
            ),
            rng=np.random.default_rng(43),
        )
        rl.run(8)

        # Adaptive drafter: continued training on the updated target.
        adaptive = base_drafter.clone()
        trainer = DrafterTrainer(
            adaptive, DrafterTrainingConfig(learning_rate=5e-3)
        )
        batch = build_training_batch(
            collect_training_sequences(
                policy, rollout_data(policy, num_prompts=40, seed=23)
            ),
            unroll_steps=1,
        )
        trainer.train_epochs(batch, 200)
        adapted_rl = _accept(policy, adaptive, rl_prompts)
        adapted_down = _accept(policy, adaptive, downstream_prompts)
        return base_rl, adapted_rl, base_down, adapted_down

    base_rl, adapted_rl, base_down, adapted_down = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    rows = [
        ["RL training", f"{base_rl:.2f}", f"{adapted_rl:.2f}",
         "4.59", "6.53"],
        ["Downstream", f"{base_down:.2f}", f"{adapted_down:.2f}",
         "3.76", "5.15"],
    ]
    write_result(
        "tab6_adaptive_drafter",
        format_table(
            ["domain", "Target-Base", "Target-R (adapted)",
             "paper base", "paper R"],
            rows,
        ),
    )

    # The adapted drafter on the RL-trained target beats the base pair.
    assert adapted_rl > base_rl
    # Downstream accept lengths are lower than in-domain (paper's gap).
    assert adapted_down <= adapted_rl + 0.5
    assert adapted_rl > 2.0
