"""Tests for the SpotTrainer integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    TrainingStrategy,
)
from repro.drafter.training import collect_training_sequences
from repro.errors import DrafterError
from repro.llm import TinyLM, TinyLMConfig
from repro.spot import CheckpointManager, OnlineDataBuffer, SpotTrainer


@pytest.fixture()
def spot(target, rollout_sequences, tmp_path):
    drafter = EagleDrafter(
        target, EagleDrafterConfig(), np.random.default_rng(0)
    )
    trainer = DrafterTrainer(
        drafter, DrafterTrainingConfig(learning_rate=5e-3)
    )
    buffer = OnlineDataBuffer(capacity_tokens=100_000)
    spot = SpotTrainer(
        trainer=trainer,
        buffer=buffer,
        checkpoints=CheckpointManager(str(tmp_path)),
        batch_sequences=8,
        max_positions=256,
        checkpoint_every=5,
    )
    spot.begin_step(0)
    spot.ingest(collect_training_sequences(target, rollout_sequences))
    return spot


class TestTrainSlice:
    def test_updates_happen(self, spot):
        report = spot.train_slice(5, np.random.default_rng(0))
        assert report.updates == 5
        assert report.positions > 0
        assert spot.total_updates == 5

    def test_empty_buffer_graceful(self, target, tmp_path):
        drafter = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(0)
        )
        trainer = DrafterTrainer(drafter, DrafterTrainingConfig())
        spot = SpotTrainer(
            trainer=trainer, buffer=OnlineDataBuffer(), checkpoints=None
        )
        report = spot.train_slice(3, np.random.default_rng(0))
        assert report.updates == 0

    def test_loss_improves_across_slices(self, spot):
        first = spot.train_slice(10, np.random.default_rng(0))
        for _ in range(4):
            last = spot.train_slice(10, np.random.default_rng(0))
        assert last.ce_loss < first.ce_loss

    def test_checkpoints_written(self, spot):
        spot.train_slice(12, np.random.default_rng(0))
        spot.checkpoints.wait_all()
        assert spot.checkpoints.latest() is not None

    def test_checkpoint_restores_progress(self, spot, target):
        spot.train_slice(10, np.random.default_rng(0))
        spot.checkpoints.wait_all()
        path = spot.checkpoints.latest()
        trained_state = spot.trainer.drafter.state_dict()
        fresh = EagleDrafter(
            target, EagleDrafterConfig(), np.random.default_rng(99)
        )
        fresh.load_state_dict(spot.checkpoints.load(path))
        for name, arr in trained_state.items():
            assert np.allclose(fresh.params[name], arr)

    def test_preempt_checkpoints(self, spot):
        spot.train_slice(3, np.random.default_rng(0))
        foreground = spot.preempt()
        assert foreground >= 0.0
        spot.checkpoints.wait_all()
        assert spot.checkpoints.latest() is not None

    def test_validation(self, spot):
        with pytest.raises(DrafterError):
            spot.train_slice(0, np.random.default_rng(0))

    def test_config_validation(self, spot):
        with pytest.raises(DrafterError):
            SpotTrainer(
                trainer=spot.trainer, buffer=spot.buffer,
                batch_sequences=0,
            )


def _buffered(spot):
    """Every sequence the spot trainer's buffer holds."""
    return spot.buffer.sample_sequences(10_000, np.random.default_rng(0))


class TestBufferKeepsWhatTheDrafterReads:
    def test_eagle_buffers_the_top_layer(
        self, spot, target, rollout_sequences
    ):
        """EAGLE reads layer -1 only: the buffer holds ``(T, 1, d)``
        owned copies of the captured stacks' top layer."""
        full = {
            seq.tokens.tobytes(): seq.hidden_stacks
            for seq in collect_training_sequences(target, rollout_sequences)
        }
        stored = _buffered(spot)
        assert len(stored) == len(full)
        for seq in stored:
            d = target.config.hidden_size
            assert seq.hidden_stacks.shape == (seq.length, 1, d)
            assert seq.hidden_stacks.base is None
            assert np.array_equal(
                seq.hidden_stacks, full[seq.tokens.tobytes()][:, -1:]
            )

    @pytest.mark.parametrize(
        "fused_layers, kept", [((-1,), 1), ((1, -1), 3)]
    )
    def test_slice_from_suffix_equals_slice_from_full(
        self, fused_layers, kept
    ):
        """A slice trained from the buffered suffix stacks is bitwise the
        slice trained from the full stacks (the old buffer layout): same
        loss, same weights.  ``(1, -1)`` on a 4-layer target keeps a
        3-layer suffix, where layer 1 sits at suffix index 0."""
        target = TinyLM(
            TinyLMConfig(
                vocab_size=24, hidden_size=16, context_window=4,
                num_layers=4,
            ),
            np.random.default_rng(4),
        )
        rng = np.random.default_rng(9)
        sequences = collect_training_sequences(
            target,
            [list(rng.integers(3, 24, size=n)) for n in rng.integers(6, 30, 12)],
        )
        strategy = TrainingStrategy(name="fused", fused_layers=fused_layers)
        drafter = EagleDrafter(
            target, EagleDrafterConfig(fused_layers=fused_layers),
            np.random.default_rng(0),
        )
        spots = [
            SpotTrainer(
                trainer=DrafterTrainer(
                    drafter.clone(),
                    DrafterTrainingConfig(
                        strategy=strategy, learning_rate=5e-3
                    ),
                ),
                buffer=OnlineDataBuffer(capacity_tokens=100_000),
                batch_sequences=8,
                max_positions=64,
            )
            for _ in range(2)
        ]
        for spot in spots:
            spot.begin_step(0)
        spots[0].ingest(sequences)
        spots[1].buffer.add(sequences)  # the full stacks, uncut
        assert {s.hidden_stacks.shape[1] for s in _buffered(spots[0])} == {
            kept
        }
        assert {s.hidden_stacks.shape[1] for s in _buffered(spots[1])} == {4}
        reports = [
            spot.train_slice(3, np.random.default_rng(5)) for spot in spots
        ]
        assert reports[0].positions == reports[1].positions > 0
        assert reports[0].ce_loss == reports[1].ce_loss
        weights = [spot.trainer.drafter.params for spot in spots]
        assert weights[0].max_abs_diff(weights[1]) == 0.0
