"""Tests for softmax utilities and temperature sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import GenerationError
from repro.llm import (
    log_softmax,
    sample_from_probs,
    softmax,
    temperature_probs,
)

finite_logits = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 8)),
    elements=st.floats(-30, 30),
)


class TestSoftmax:
    @given(finite_logits)
    def test_sums_to_one(self, logits):
        assert softmax(logits).sum() == pytest.approx(1.0)

    @given(finite_logits)
    def test_shift_invariance(self, logits):
        assert np.allclose(softmax(logits), softmax(logits + 123.0))

    def test_extreme_values_stable(self):
        probs = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)

    @given(finite_logits)
    def test_log_softmax_consistent(self, logits):
        assert np.allclose(np.exp(log_softmax(logits)), softmax(logits))


class TestTemperature:
    def test_zero_is_greedy_onehot(self):
        probs = temperature_probs(np.array([1.0, 3.0, 2.0]), 0.0)
        assert probs.tolist() == [0.0, 1.0, 0.0]

    def test_negative_raises(self):
        with pytest.raises(GenerationError):
            temperature_probs(np.zeros(3), -1.0)

    def test_low_temperature_sharpens(self):
        logits = np.array([1.0, 2.0])
        hot = temperature_probs(logits, 2.0)
        cold = temperature_probs(logits, 0.5)
        assert cold[1] > hot[1]

    def test_batched_shapes(self):
        logits = np.zeros((4, 5, 7))
        assert temperature_probs(logits, 1.0).shape == (4, 5, 7)


class TestSampling:
    def test_matches_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.2, 0.5, 0.3])
        draws = sample_from_probs(
            np.tile(probs, (20000, 1)), rng
        )
        freqs = np.bincount(draws, minlength=3) / 20000
        assert np.allclose(freqs, probs, atol=0.02)

    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.0, 1.0, 0.0])
        draws = sample_from_probs(np.tile(probs, (100, 1)), rng)
        assert (draws == 1).all()

    def test_batch_shape_preserved(self):
        rng = np.random.default_rng(0)
        probs = np.full((3, 4, 5), 0.2)
        assert sample_from_probs(probs, rng).shape == (3, 4)
