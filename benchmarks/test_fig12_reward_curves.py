"""Figure 12: end-to-end reward curves — VeRL vs TLT rollouts.

Two GRPO runs on the successor-chain task from the same pretrained base
policy, both on a dedicated one-worker serving pool: one with SD off
(vanilla decoding, the VeRL analogue) and one with lossless speculative
rollouts via a trained EAGLE drafter (the TLT analogue).  Both arms draw
one seed per request from the trainer's generator, so at a given seed
they see the same prompt stream.  Because SD preserves the sampling
distribution exactly, the two reward curves must overlap within seed
noise — the paper's losslessness evidence.
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
from repro.specdec import SdStrategy
from repro.workload import SuccessorChainTask

STEPS = 40


def _run(backend_factory, seed: int):
    policy = build_target(seed=777)
    task = SuccessorChainTask(
        vocab=Vocabulary(policy.config.vocab_size), target_pairs=10
    )
    backend = backend_factory(policy)
    trainer = RlTrainer(
        policy,
        task,
        RlConfig(
            num_prompts=6, group_size=6, max_new_tokens=24,
            temperature=1.0, learning_rate=5e-3, kl_coef=0.002,
        ),
        backend=backend,
        rng=np.random.default_rng(seed),
    )
    return [r.mean_reward for r in trainer.run(STEPS)]


SEEDS = (21, 22)


def _vanilla_backend(policy):
    """The SD-off pool: no drafter, no strategy, every cycle vanilla."""
    return RolloutScheduler(ServingEngine(policy, None, temperature=1.0))


def test_fig12_reward_curves(benchmark):
    def run_both():
        def sd_backend(policy):
            data = rollout_data(
                policy, num_prompts=24, max_new_tokens=40, seed=3
            )
            drafter = train_eagle(policy, data, epochs=150)
            return RolloutScheduler(
                ServingEngine(
                    policy, drafter, num_workers=1,
                    strategy=SdStrategy(
                        draft_depth=4, topk=2, tokens_to_verify=8
                    ),
                    temperature=1.0,
                )
            )

        # Average over seeds: a single run's curve noise would swamp the
        # (zero, by losslessness) systematic difference.
        vanilla = np.mean(
            [_run(_vanilla_backend, seed=s) for s in SEEDS],
            axis=0,
        )
        tlt = np.mean([_run(sd_backend, seed=s) for s in SEEDS], axis=0)
        return vanilla, tlt

    vanilla, tlt = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def smooth(series, width=8):
        return np.convolve(series, np.ones(width) / width, mode="valid")

    sm_v, sm_t = smooth(vanilla), smooth(tlt)
    rows = [
        [f"steps {i * 8}-{i * 8 + 8}",
         f"{np.mean(vanilla[i * 8:(i + 1) * 8]):.3f}",
         f"{np.mean(tlt[i * 8:(i + 1) * 8]):.3f}"]
        for i in range(STEPS // 8)
    ]
    write_result(
        "fig12_reward_curves",
        format_table(["window", "VeRL (vanilla)", "TLT (spec)"], rows),
    )

    # Both runs learn...
    assert np.mean(vanilla[-8:]) > np.mean(vanilla[:8]) + 0.03
    assert np.mean(tlt[-8:]) > np.mean(tlt[:8]) + 0.03
    # ...and the seed-averaged smoothed curves overlap (losslessness).
    gap = float(np.max(np.abs(sm_v - sm_t)))
    assert gap < 0.15, f"curves diverged by {gap:.3f}"
    # Final performance statistically indistinguishable.
    assert abs(np.mean(vanilla[-8:]) - np.mean(tlt[-8:])) < 0.12
