"""The free byproduct: deploying the RL-trained drafter for serving.

TLT's spot trainer leaves behind a drafter aligned with the final policy.
This example trains one, verifies its quality (accept length and
per-position accept rates), sweeps SD strategies with the BEG-MAB tuner
offline, and projects serving throughput across GPU generations with the
roofline model (the paper's Table 2 deployment story).

Run:  python examples/drafter_deployment.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BegMabSelector,
    EagleDrafter,
    EagleDrafterConfig,
    SdStrategy,
    TinyLMConfig,
    generate,
    speculative_generate,
)
from repro.drafter import DrafterTrainer, DrafterTrainingConfig
from repro.drafter.training import (
    build_training_batch,
    collect_training_sequences,
)
from repro.hardware import RooflineModel, drafter_spec, get_gpu, get_model
from repro.llm.pretrain import pretrained_target


def main() -> None:
    rng = np.random.default_rng(0)
    config = TinyLMConfig(
        vocab_size=32, hidden_size=32, context_window=4, num_layers=4,
        init_scale=0.8,
    )
    target = pretrained_target(config, rng, chain_prob=0.72)

    # Train the drafter (in TLT this happened for free in the bubbles).
    rollouts = generate(
        target,
        [list(rng.integers(3, 32, size=4)) for _ in range(40)],
        max_new_tokens=60, temperature=0.8, rng=rng,
    )
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    trainer = DrafterTrainer(
        drafter, DrafterTrainingConfig(learning_rate=5e-3)
    )
    batch = build_training_batch(
        collect_training_sequences(target, rollouts.full_sequences),
        unroll_steps=1,
    )
    trainer.train_epochs(batch, 250)

    # Offline strategy sweep with the BEG-MAB reward bookkeeping.
    strategies = [
        SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8),
        SdStrategy(draft_depth=6, topk=4, tokens_to_verify=16),
        SdStrategy(draft_depth=8, topk=4, tokens_to_verify=24),
    ]
    selector = BegMabSelector(
        strategies, batch_thresholds=[1, 4, 16],
        rng=np.random.default_rng(4),
    )
    prompts = [list(rng.integers(3, 32, size=4)) for _ in range(6)]
    print("strategy sweep (measured on the substrate):")
    best = None
    for strategy in strategies:
        out = speculative_generate(
            target, drafter, prompts, max_new_tokens=60,
            temperature=0.8, rng=np.random.default_rng(5),
            strategy=strategy,
        )
        accept = out.metrics.mean_accept_length
        selector.record(strategy, 1.0, [accept - 1.0], 1)
        print(f"  {strategy.describe():15s} accept={accept:.2f}")
        if best is None or accept > best[1]:
            best = (strategy, accept)
    assert best is not None
    strategy, accept = best
    print(f"chosen for deployment: {strategy.describe()} "
          f"(accept {accept:.2f})")

    # Project serving throughput across GPU generations (Table 2).
    model = get_model("Qwen2.5-7B")
    spec = drafter_spec(model)
    print("\nprojected serving throughput (Qwen-7B analogue, BS=1):")
    print(f"{'GPU':>9} {'w/o SD':>8} {'w/ SD':>8} {'speedup':>8}")
    for gpu_name in ["B200", "H100", "A100", "RTX4090", "RTX3090"]:
        roofline = RooflineModel(model=model, gpu=get_gpu(gpu_name))
        vanilla = roofline.vanilla_tokens_per_s(1)
        sd = roofline.sd_tokens_per_s(
            spec, min(accept, 5.2), 1, strategy.draft_depth,
            strategy.topk, strategy.tokens_to_verify,
        )
        print(f"{gpu_name:>9} {vanilla:>8.0f} {sd:>8.0f} "
              f"{sd / vanilla:>7.2f}x")


if __name__ == "__main__":
    main()
