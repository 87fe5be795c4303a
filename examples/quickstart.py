"""Quickstart: lossless speculative decoding with a trained drafter.

Builds a pretrained TinyLM target (the "base model"), trains an
EAGLE-style single-layer drafter on its rollouts, and compares vanilla
decoding against tree speculative decoding — identical output
distributions, far fewer target forward passes.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    EagleDrafter,
    EagleDrafterConfig,
    SdStrategy,
    TinyLMConfig,
    generate,
    speculative_generate,
)
from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    evaluate_topk_accuracy,
)
from repro.drafter.training import (
    build_training_batch,
    collect_training_sequences,
)
from repro.llm.pretrain import pretrained_target


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. The target model: a small pretrained autoregressive LM.
    config = TinyLMConfig(
        vocab_size=32, hidden_size=32, context_window=4, num_layers=4,
        init_scale=0.8,
    )
    target = pretrained_target(config, rng, chain_prob=0.75)
    print(f"target: {target.num_parameters} parameters, "
          f"{target.num_layers} layers")

    # 2. Collect rollouts and cache hidden states (the RL inference
    #    stage does this for free in TLT).
    prompts = [list(rng.integers(3, 32, size=4)) for _ in range(40)]
    rollouts = generate(
        target, prompts, max_new_tokens=60, temperature=0.8, rng=rng
    )
    cached = collect_training_sequences(target, rollouts.full_sequences)
    batch = build_training_batch(cached, unroll_steps=1)

    # 3. Train the single-decoder-layer drafter.
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    trainer = DrafterTrainer(
        drafter, DrafterTrainingConfig(learning_rate=5e-3)
    )
    print("training drafter", end="", flush=True)
    for _ in range(5):
        trainer.train_epochs(batch, 50)
        print(".", end="", flush=True)
    accuracy = evaluate_topk_accuracy(drafter, batch)
    print(f" done (top-3 accuracy {accuracy:.1%})")

    # 4. Vanilla vs speculative decoding on fresh prompts.
    fresh = [list(rng.integers(3, 32, size=4)) for _ in range(8)]
    vanilla = generate(
        target, fresh, max_new_tokens=60, temperature=0.8,
        rng=np.random.default_rng(1),
    )
    strategy = SdStrategy(draft_depth=6, topk=4, tokens_to_verify=24)
    spec = speculative_generate(
        target, drafter, fresh, max_new_tokens=60, temperature=0.8,
        rng=np.random.default_rng(2), strategy=strategy,
    )

    total_tokens = sum(spec.response_lengths)
    # Per-sequence accounting: vanilla needs one target forward per
    # generated token; speculation commits several tokens per forward.
    print(f"\nvanilla decoding : "
          f"{sum(vanilla.response_lengths)} target forwards "
          f"for {sum(vanilla.response_lengths)} tokens")
    print(f"speculative      : {spec.target_steps} target forwards "
          f"for {total_tokens} tokens")
    print(f"accept length    : "
          f"{spec.metrics.mean_accept_length:.2f} tokens/cycle")
    print(f"per-position accept rates: "
          f"{[f'{r:.2f}' for r in spec.metrics.profile.rates()]}")
    print("\nBoth samplers draw from *exactly* the same distribution —")
    print("speculative decoding is mathematically lossless.")


if __name__ == "__main__":
    main()
