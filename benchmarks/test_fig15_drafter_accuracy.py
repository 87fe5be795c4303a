"""Figure 15: drafter accuracy during adaptive (spot) training.

The target model undergoes RL updates; after each update the drafter's
top-3 accuracy dips (distribution shift) and recovers within a few spot-
training slices.  Expected shape: overall upward accuracy trend, a
measurable dip at each target update, and recovery above the dip.
"""

from __future__ import annotations

import numpy as np

from _common import build_target, format_table, write_result
from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    evaluate_topk_accuracy,
)
from repro.drafter.training import (
    build_training_batch,
    collect_training_sequences,
)
from repro.llm.vocab import Vocabulary
from repro.longtail import RolloutScheduler
from repro.rl import RlConfig, RlTrainer
from repro.serving import ServingEngine
from repro.spot import OnlineDataBuffer, SpotTrainer
from repro.workload import SuccessorChainTask

RL_STEPS = 4
SLICES_PER_STEP = 6
UPDATES_PER_SLICE = 8


def test_fig15_drafter_accuracy(benchmark):
    def run():
        policy = build_target(seed=901)
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
            rng=np.random.default_rng(31),
        )
        drafter = EagleDrafter(
            policy, EagleDrafterConfig(), np.random.default_rng(5)
        )
        spot = SpotTrainer(
            trainer=DrafterTrainer(
                drafter, DrafterTrainingConfig(learning_rate=5e-3)
            ),
            buffer=OnlineDataBuffer(capacity_tokens=200_000),
            checkpoints=None,
            batch_sequences=24,
            max_positions=1024,
        )
        rng = np.random.default_rng(17)

        accuracy_curve = []
        update_marks = []
        for step in range(RL_STEPS):
            spot.begin_step(step)
            rl.step()  # target update happens here
            update_marks.append(len(accuracy_curve))
            assert rl.last_rollout is not None
            spot.ingest(
                collect_training_sequences(
                    policy, rl.last_rollout.full_sequences, step
                )
            )
            eval_batch = build_training_batch(
                collect_training_sequences(
                    policy, rl.last_rollout.full_sequences, step
                ),
                unroll_steps=1,
            )
            accuracy_curve.append(
                evaluate_topk_accuracy(drafter, eval_batch, k=3)
            )
            for _ in range(SLICES_PER_STEP):
                spot.train_slice(UPDATES_PER_SLICE, rng)
                accuracy_curve.append(
                    evaluate_topk_accuracy(drafter, eval_batch, k=3)
                )
        return accuracy_curve, update_marks

    curve, marks = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [i, f"{acc * 100:.1f}%",
         "<- target update" if i in marks else ""]
        for i, acc in enumerate(curve)
    ]
    write_result(
        "fig15_drafter_accuracy",
        format_table(["eval point", "top-3 accuracy", ""], rows),
    )

    # Upward overall trend.
    assert curve[-1] > curve[0] + 0.1
    # Each post-update accuracy recovers within the step's slices.
    for mark in marks[1:]:
        dip = curve[mark]
        recovered = max(curve[mark: mark + SLICES_PER_STEP + 1])
        assert recovered >= dip - 1e-9
    # Final accuracy is high (paper reaches 90%+; we ask for 60%+).
    assert curve[-1] > 0.6
