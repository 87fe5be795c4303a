"""Tests for the SpotTrainer integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
)
from repro.drafter.training import collect_training_sequences
from repro.errors import DrafterError
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
