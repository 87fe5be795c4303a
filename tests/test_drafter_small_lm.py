"""Tests for the vanilla small-LM drafter and its distiller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter.small_lm import (
    DistillationConfig,
    SmallLmDistiller,
    SmallLmDrafter,
)
from repro.errors import DrafterError
from repro.llm import TinyLM, TinyLMConfig, generate
from repro.llm.vocab import PAD_ID
from repro.specdec import SdStrategy, speculative_generate


def make_small(target, seed=0):
    cfg = TinyLMConfig(
        vocab_size=target.config.vocab_size,
        hidden_size=8,
        context_window=3,
        num_layers=2,
        init_scale=1.0,
    )
    return SmallLmDrafter(
        TinyLM(cfg, np.random.default_rng(seed)),
        target.config.vocab_size,
    )


class TestProtocol:
    def test_vocab_mismatch_rejected(self, target):
        cfg = TinyLMConfig(vocab_size=16, hidden_size=8)
        with pytest.raises(DrafterError):
            SmallLmDrafter(
                TinyLM(cfg, np.random.default_rng(0)),
                target.config.vocab_size,
            )

    def test_propose_distribution(self, target):
        drafter = make_small(target)
        states = drafter.begin_batch([[1, 5, 6]], [None])
        (probs,) = drafter.propose_batch(states, 0.9)
        assert probs.sum() == pytest.approx(1.0)

    def test_extend_shifts_window(self, target):
        drafter = make_small(target)
        states = drafter.begin_batch([[1, 5, 6], [2]], [None, None])
        states, _ = drafter.extend_propose_batch(states, [9, 4], 0.9)
        assert states.tolist() == [[5, 6, 9], [PAD_ID, 2, 4]]

    def test_empty_prefix_raises(self, target):
        drafter = make_small(target)
        with pytest.raises(DrafterError):
            drafter.begin_batch([[]], [None])

    def test_usable_for_speculation(self, target):
        drafter = make_small(target)
        out = speculative_generate(
            target, drafter, [[5, 6]], max_new_tokens=20,
            temperature=0.9, rng=np.random.default_rng(0),
            strategy=SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6),
        )
        assert out.metrics.mean_accept_length >= 1.0


class TestDistillation:
    @pytest.fixture()
    def training_data(self, target):
        rng = np.random.default_rng(1)
        prompts = [list(rng.integers(3, 24, size=3)) for _ in range(12)]
        return generate(
            target, prompts, max_new_tokens=30, temperature=0.9, rng=rng
        ).full_sequences

    @pytest.mark.parametrize("mode", ["sft", "kd", "reverse_kd"])
    def test_loss_decreases(self, target, training_data, mode):
        drafter = make_small(target)
        distiller = SmallLmDistiller(
            drafter, target, DistillationConfig(mode=mode)
        )
        losses = [
            distiller.train_step(training_data) for _ in range(30)
        ]
        assert losses[-1] < losses[0]

    def test_distillation_improves_acceptance(self, target, training_data):
        drafter = make_small(target)
        strategy = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
        prompts = [[5, 6, 7]] * 8

        def accept_len():
            out = speculative_generate(
                target, drafter, prompts, max_new_tokens=30,
                temperature=0.9, rng=np.random.default_rng(2),
                strategy=strategy,
            )
            return out.metrics.mean_accept_length

        before = accept_len()
        distiller = SmallLmDistiller(
            drafter, target, DistillationConfig(mode="kd")
        )
        for _ in range(120):
            distiller.train_step(training_data)
        after = accept_len()
        assert after > before

    def test_bad_mode(self):
        with pytest.raises(DrafterError):
            DistillationConfig(mode="magic")

    def test_too_short_sequences(self, target):
        drafter = make_small(target)
        distiller = SmallLmDistiller(
            drafter, target, DistillationConfig()
        )
        with pytest.raises(DrafterError):
            distiller.train_step([[1, 2]])
