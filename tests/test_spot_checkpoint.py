"""Tests for selective asynchronous checkpointing."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.spot import CheckpointManager
from repro.spot.checkpoint import default_frozen_filter


@pytest.fixture()
def state():
    rng = np.random.default_rng(0)
    return {
        "w_r": rng.normal(size=(64, 128)),
        "b_r": rng.normal(size=64),
        "frozen_embed": rng.normal(size=(4096, 64)),
    }


class TestModes:
    def test_sync_roundtrip(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        result = manager.save(state, step=1, mode="sync")
        assert os.path.exists(result.path)
        loaded = manager.load(result.path)
        assert np.allclose(loaded["w_r"], state["w_r"])
        assert "frozen_embed" in loaded

    def test_async_completes_in_background(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        result = manager.save(state, step=1, mode="async")
        manager.wait_all()
        assert os.path.exists(result.path)
        loaded = manager.load(result.path)
        assert np.allclose(loaded["b_r"], state["b_r"])

    def test_selective_drops_frozen(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        result = manager.save(state, step=1, mode="selective_async")
        manager.wait_all()
        loaded = manager.load(result.path)
        assert "frozen_embed" not in loaded
        assert set(loaded) == {"w_r", "b_r"}

    def test_selective_smaller_payload(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        full = manager.save(state, step=1, mode="async")
        selective = manager.save(state, step=2, mode="selective_async")
        manager.wait_all()
        assert selective.bytes_written < full.bytes_written

    def test_async_foreground_faster_than_sync(self, tmp_path):
        """The paper's Figure 17(a) ordering on a large-ish payload."""
        rng = np.random.default_rng(0)
        big = {"w": rng.normal(size=(1200, 1200)),
               "frozen_embed": rng.normal(size=(2400, 1200))}
        manager = CheckpointManager(str(tmp_path))
        sync = manager.save(big, step=1, mode="sync")
        async_ = manager.save(big, step=2, mode="async")
        manager.wait_all()
        assert async_.foreground_s < sync.foreground_s

    def test_bad_mode(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(CheckpointError):
            manager.save(state, step=1, mode="turbo")

    def test_filter_everything_raises(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(CheckpointError):
            manager.save(
                state, step=1, mode="selective_async",
                trainable_filter=lambda name: False,
            )


class TestRetention:
    def test_keep_last(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        for step in range(12):
            manager.save(state, step=step, mode="sync")
        files = [f for f in os.listdir(tmp_path) if f.endswith(".npz")]
        assert len(files) == 10

    def test_latest(self, state, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(state, step=1, mode="sync")
        second = manager.save(state, step=2, mode="sync")
        assert manager.latest() == second.path

    def test_latest_none_when_empty(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        assert manager.latest() is None

    def test_load_missing_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(CheckpointError):
            manager.load(str(tmp_path / "nope.npz"))


class TestFrozenFilter:
    def test_default_filter(self):
        assert default_frozen_filter("w_r")
        assert not default_frozen_filter("frozen_layer")
        assert not default_frozen_filter("tied_embed")
        assert not default_frozen_filter("lm_head")

    def test_snapshot_isolated_from_mutation(self, tmp_path):
        """Async saves snapshot state at call time (no torn writes)."""
        manager = CheckpointManager(str(tmp_path))
        state = {"w": np.zeros(8)}
        result = manager.save(state, step=1, mode="async")
        state["w"][:] = 99.0
        manager.wait_all()
        loaded = manager.load(result.path)
        assert np.allclose(loaded["w"], 0.0)
