"""End-to-end TLT-style reasoning RL training.

Runs GRPO on the successor-chain reasoning task through the packaged
closed loop (:meth:`~repro.systems.tlt.TltSystem.colocated_system`):
speculative rollouts ride a serving pool, each step's finished rollouts
feed the Online DataBuffer, a spot slice trains the drafter (the
idle-bubble analogue) and the snapshot is republished pool-wide.  Prints
the reward curve alongside the pool ticks each rollout batch took and the
cumulative drafter updates.

Run:  python examples/reasoning_rl_training.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    EagleDrafter,
    EagleDrafterConfig,
    RlConfig,
    SdStrategy,
    TinyLMConfig,
    Vocabulary,
)
from repro.cluster import ClusterSpec
from repro.drafter import DrafterTrainer, DrafterTrainingConfig
from repro.hardware import get_gpu, get_model
from repro.llm.pretrain import pretrained_target
from repro.spot import OnlineDataBuffer, SpotTrainer
from repro.systems import TltSystem
from repro.workload import SuccessorChainTask

RL_STEPS = 24
SPOT_UPDATES_PER_STEP = 30


def main() -> None:
    rng = np.random.default_rng(0)
    config = TinyLMConfig(
        vocab_size=32, hidden_size=32, context_window=4, num_layers=4,
        init_scale=0.8,
    )
    policy = pretrained_target(config, rng, chain_prob=0.72)
    vocab = Vocabulary(config.vocab_size)
    task = SuccessorChainTask(vocab=vocab, target_pairs=10)

    # TLT components: adaptive drafter + spot trainer fed by the
    # DataBuffer, closed into one loop over a serving pool.
    drafter = EagleDrafter(policy, EagleDrafterConfig(), rng)
    spot = SpotTrainer(
        trainer=DrafterTrainer(
            drafter, DrafterTrainingConfig(learning_rate=5e-3)
        ),
        buffer=OnlineDataBuffer(capacity_tokens=200_000),
        checkpoints=None,
        batch_sequences=24,
        max_positions=1024,
    )
    system = TltSystem(
        get_model("Qwen2.5-7B"),
        ClusterSpec(num_workers=2, gpus_per_worker=4, gpu=get_gpu("H100")),
    )
    loop = system.colocated_system(
        policy, drafter, task,
        RlConfig(num_prompts=8, group_size=8, max_new_tokens=32,
                 temperature=1.0, learning_rate=6e-3, kl_coef=0.002),
        spot_trainer=spot,
        spot_updates_per_round=SPOT_UPDATES_PER_STEP,
        rl_rng=np.random.default_rng(1),
        spot_rng=np.random.default_rng(2),
        num_workers=2,
        max_batch_size=32,
        strategy=SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8),
    )

    print(f"{'step':>4} {'reward':>7} {'len':>6} "
          f"{'pool ticks':>10} {'drafter upd':>11}")
    for step in range(RL_STEPS):
        # One turn of the loop: rollout on the pool, policy update,
        # spot slice in the long-tail bubble, snapshot republished.
        (report,) = loop.run(1)
        print(f"{step:>4} {report.mean_reward:>7.3f} "
              f"{report.mean_response_length:>6.1f} "
              f"{report.rollout_stats['pool_ticks']:>10.0f} "
              f"{spot.total_updates:>11}")

    print("\nReward learned by GRPO while the adaptive drafter kept the")
    print("rollout accelerated — and losslessly so: the reward curve is")
    print("statistically identical to vanilla-decoding GRPO (Figure 12).")


if __name__ == "__main__":
    main()
