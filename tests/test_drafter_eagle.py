"""Tests for the EAGLE drafter: architecture, gradients, training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    TrainingStrategy,
    evaluate_topk_accuracy,
)
from repro.drafter.training import (
    TrainingSequence,
    build_training_batch,
    collect_training_sequences,
)
from repro.errors import DrafterError
from repro.llm import TinyLM, TinyLMConfig, softmax


class TestArchitecture:
    def test_single_decoder_layer_parameters(self, target):
        """The drafter carries exactly one decoder layer's weights.

        (At real-model scale one layer is ~1/num_layers of the target —
        verified against the hardware ModelSpec in the roofline tests; at
        toy scale the 4x FFN expansion makes raw counts incomparable, so
        the structural property is asserted instead.)
        """
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        assert set(drafter.params.names()) == {
            "w_r", "b_r", "w_up", "b_up", "w_down",
        }
        # No embedding / LM-head copies: those stay tied to the target.
        assert "embed" not in drafter.params

    def test_fused_layers_validation(self, target):
        with pytest.raises(DrafterError):
            EagleDrafter(
                target,
                EagleDrafterConfig(fused_layers=(99,)),
                np.random.default_rng(0),
            )

    def test_empty_fusion_rejected(self):
        with pytest.raises(DrafterError):
            EagleDrafterConfig(fused_layers=())

    def test_eagle3_has_fusion_projection(self, target):
        cfg = EagleDrafterConfig(fused_layers=(0, 1, -1))
        drafter = EagleDrafter(target, cfg, np.random.default_rng(0))
        assert "w_fuse" in drafter.params

    def test_single_layer_fusion_is_identity(self, target):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        stack = np.random.default_rng(1).normal(
            size=(target.num_layers, target.config.hidden_size)
        )
        assert np.allclose(drafter.fuse(stack), stack[-1])

    def test_suffix_stack_reads_like_full_stack(self):
        """Fused layers count from the top, so the suffix that starts at
        the lowest fused layer fuses, and backpropagates, bitwise like
        the full stack (here layers 1 and 3 of 4: a 3-layer suffix)."""
        target = TinyLM(
            TinyLMConfig(vocab_size=24, hidden_size=16, num_layers=4),
            np.random.default_rng(2),
        )
        drafter = EagleDrafter(
            target, EagleDrafterConfig(fused_layers=(1, -1)),
            np.random.default_rng(0),
        )
        assert drafter.layer_offsets == (-3, -1)
        full = np.random.default_rng(1).normal(size=(5, 4, 16))
        suffix = full[:, 1:].copy()
        assert np.array_equal(drafter.fuse(suffix), drafter.fuse(full))
        assert np.array_equal(
            drafter._fuse_rows(suffix), drafter._fuse_rows(full)
        )
        dfused = np.random.default_rng(3).normal(size=(5, 16))
        grads = [drafter.params.zeros_like() for _ in range(2)]
        drafter.backward_fuse(full, dfused, grads[0])
        drafter.backward_fuse(suffix, dfused, grads[1])
        assert grads[0].max_abs_diff(grads[1]) == 0.0

    def test_head_is_tied_to_target(self, target):
        """RL updates to the target embedding flow to the drafter."""
        target = target.clone()  # updated in place below
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        hidden = np.ones(target.config.hidden_size)
        before = drafter.head_logits(hidden).copy()
        target.params["embed"] += 0.5
        after = drafter.head_logits(hidden)
        assert not np.allclose(before, after)

    def test_propose_is_distribution(self, target):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        states = drafter.begin_batch([[1, 5, 6]], [None])
        (probs,) = drafter.propose_batch(states, 0.9)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_begin_empty_prefix_raises(self, target):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        with pytest.raises(DrafterError):
            drafter.begin_batch([[]], [None])

    def test_extend_immutable(self, target):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        states = drafter.begin_batch([[1, 5, 6]], [None])
        before = states.copy()
        drafter.extend_propose_batch(states, [4], 0.9)
        assert np.array_equal(states, before)

    def test_clone_independent(self, target):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        twin = drafter.clone()
        twin.params["b_r"] += 1.0
        assert drafter.params.max_abs_diff(twin.params) > 0

    def test_state_dict_roundtrip(self, target):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        state = drafter.state_dict()
        drafter.params["w_r"] += 1.0
        drafter.load_state_dict(state)
        assert np.allclose(drafter.params["w_r"], state["w_r"])


class TestTrainingData:
    def test_collect_shapes(self, target, rollout_sequences):
        sequences = collect_training_sequences(target, rollout_sequences)
        for seq in sequences:
            assert seq.hidden_stacks.shape == (
                seq.length,
                target.num_layers,
                target.config.hidden_size,
            )

    def test_short_sequences_skipped(self, target):
        sequences = collect_training_sequences(target, [[1, 2]])
        assert sequences == []

    def test_batch_indexing_consistency(self, target, rollout_sequences):
        """tokens[:, j] must be followed by labels[:, j] in the source."""
        sequences = collect_training_sequences(
            target, rollout_sequences[:4]
        )
        batch = build_training_batch(sequences, unroll_steps=2)
        assert batch.tokens[:, 1].tolist() == batch.labels[:, 0].tolist()

    def test_unroll_too_deep_raises(self, target):
        seq = TrainingSequence(
            tokens=np.arange(4),
            hidden_stacks=np.zeros(
                (4, target.num_layers, target.config.hidden_size)
            ),
        )
        with pytest.raises(DrafterError):
            build_training_batch([seq], unroll_steps=10)

    def test_subsampling(self, target, rollout_sequences):
        sequences = collect_training_sequences(target, rollout_sequences)
        batch = build_training_batch(
            sequences, unroll_steps=1, max_positions=10,
            rng=np.random.default_rng(0),
        )
        assert batch.num_positions == 10

    def test_subsample_requires_rng(self, target, rollout_sequences):
        sequences = collect_training_sequences(target, rollout_sequences)
        with pytest.raises(DrafterError):
            build_training_batch(sequences, unroll_steps=1, max_positions=1)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DrafterError):
            TrainingSequence(
                tokens=np.arange(4), hidden_stacks=np.zeros((3, 2, 8))
            )


class TestTraining:
    def test_loss_decreases(self, target, rollout_sequences):
        rng = np.random.default_rng(0)
        drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
        sequences = collect_training_sequences(target, rollout_sequences)
        batch = build_training_batch(sequences, unroll_steps=1)
        trainer = DrafterTrainer(
            drafter, DrafterTrainingConfig(learning_rate=5e-3)
        )
        reports = trainer.train_epochs(batch, epochs=40)
        assert reports[-1].total_loss < reports[0].total_loss

    def test_accuracy_improves(self, target, rollout_sequences):
        rng = np.random.default_rng(0)
        drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
        sequences = collect_training_sequences(target, rollout_sequences)
        batch = build_training_batch(sequences, unroll_steps=1)
        before = evaluate_topk_accuracy(drafter, batch)
        trainer = DrafterTrainer(
            drafter, DrafterTrainingConfig(learning_rate=5e-3)
        )
        trainer.train_epochs(batch, epochs=60)
        after = evaluate_topk_accuracy(drafter, batch)
        assert after > before + 0.1

    def test_gradient_check_eagle_loss(self, target, rollout_sequences):
        """Finite-difference check of the full strategy loss gradient."""
        rng = np.random.default_rng(0)
        drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
        sequences = collect_training_sequences(
            target, rollout_sequences[:2]
        )
        batch = build_training_batch(
            sequences, unroll_steps=2, max_positions=5,
            rng=np.random.default_rng(1),
        )
        strategy = TrainingStrategy.hass()  # unroll=3 > batch depth 2
        strategy = TrainingStrategy(
            name="check", unroll_steps=2, l1_weight=0.7, ce_mode="soft"
        )

        def loss_value():
            steps = strategy.unroll_steps
            n = batch.num_positions
            embed = target.params["embed"]
            state = drafter.fuse(batch.fuse_stacks)
            total = 0.0
            for j in range(steps):
                hidden, _ = drafter.forward_cell_batch(
                    state, batch.tokens[:, j]
                )
                logits = hidden @ embed.T
                q = softmax(logits)
                top_j = batch.top_hiddens[:, j, :]
                p = softmax(top_j @ embed.T)
                logq = np.log(np.maximum(q, 1e-300))
                total += -float(np.mean(np.sum(p * logq, axis=-1)))
                total += strategy.l1_weight * float(
                    np.mean(np.abs(hidden - top_j))
                )
                state = hidden
            return total / steps

        # Recompute gradients exactly as the trainer does, without the
        # optimizer step.
        trainer = DrafterTrainer(
            drafter, DrafterTrainingConfig(strategy=strategy)
        )
        # Monkey-patch: capture gradients by zero-lr optimizer.
        trainer.optimizer.lr = 0.0

        # Manual recomputation of gradients via the trainer internals:
        from repro.llm.optim import Adam

        grads_capture = {}
        original_step = Adam.step

        def capture(self_opt, params, grads):
            grads_capture["grads"] = grads.copy()

        Adam.step = capture
        try:
            trainer.train_step(batch)
        finally:
            Adam.step = original_step
        grads = grads_capture["grads"]

        rng2 = np.random.default_rng(3)
        for name in grads.names():
            arr = drafter.params[name]
            for flat in rng2.integers(0, arr.size, size=2):
                idx = np.unravel_index(flat, arr.shape)
                eps = 1e-6
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss_value()
                arr[idx] = orig - eps
                down = loss_value()
                arr[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert grads[name][idx] == pytest.approx(
                    numeric, rel=2e-3, abs=1e-7
                ), name

    def test_strategy_mismatch_rejected(self, target):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        config = DrafterTrainingConfig(
            strategy=TrainingStrategy.eagle3(target.num_layers)
        )
        with pytest.raises(DrafterError):
            DrafterTrainer(drafter, config)

    def test_frozen_weights_untouched(self, target, rollout_sequences):
        rng = np.random.default_rng(0)
        drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
        embed_before = target.params["embed"].copy()
        sequences = collect_training_sequences(target, rollout_sequences)
        batch = build_training_batch(sequences, unroll_steps=1)
        trainer = DrafterTrainer(drafter, DrafterTrainingConfig())
        trainer.train_epochs(batch, epochs=5)
        assert np.allclose(target.params["embed"], embed_before)


class TestStrategies:
    def test_eagle_defaults(self):
        s = TrainingStrategy.eagle()
        assert s.unroll_steps == 1 and s.l1_weight > 0

    def test_hass_unrolls(self):
        s = TrainingStrategy.hass()
        assert s.unroll_steps == 3 and s.relative_cost == 3.0

    def test_eagle3_fuses_three_layers(self):
        s = TrainingStrategy.eagle3(8)
        assert s.fused_layers == (0, 4, 7)
        assert s.l1_weight == 0.0

    def test_osd_reverse_kd(self):
        assert TrainingStrategy.osd().ce_mode == "reverse_kd"

    def test_invalid_ce_mode(self):
        with pytest.raises(DrafterError):
            TrainingStrategy(name="bad", ce_mode="nope")

    def test_hass_training_works(self, target, rollout_sequences):
        rng = np.random.default_rng(0)
        drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
        sequences = collect_training_sequences(target, rollout_sequences)
        batch = build_training_batch(sequences, unroll_steps=3)
        trainer = DrafterTrainer(
            drafter,
            DrafterTrainingConfig(strategy=TrainingStrategy.hass()),
        )
        reports = trainer.train_epochs(batch, epochs=20)
        assert reports[-1].ce_loss < reports[0].ce_loss

    def test_eagle3_training_works(self, target, rollout_sequences):
        rng = np.random.default_rng(0)
        strategy = TrainingStrategy.eagle3(target.num_layers)
        drafter = EagleDrafter(
            target,
            EagleDrafterConfig(fused_layers=strategy.fused_layers),
            rng,
        )
        sequences = collect_training_sequences(target, rollout_sequences)
        batch = build_training_batch(sequences, unroll_steps=7)
        trainer = DrafterTrainer(
            drafter, DrafterTrainingConfig(strategy=strategy)
        )
        reports = trainer.train_epochs(batch, epochs=10)
        assert reports[-1].ce_loss < reports[0].ce_loss
