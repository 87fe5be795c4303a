"""Tests for the lossless accept/reject rule.

The key properties verified statistically (against *analytic* target
distributions, never two-sample):

* chain rule (one candidate): committed token ~ target distribution
  regardless of drafter,
* multi-round rule: same, for any number of sibling candidates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecDecodeError
from repro.specdec import (
    multi_round_accept,
    residual_distribution,
)
from repro.specdec.acceptance import sequential_residual_draws


def _random_dist(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.random(size) + 1e-3
    return raw / raw.sum()


class TestResidual:
    def test_identical_distributions_fall_back(self):
        p = np.array([0.5, 0.5])
        out = residual_distribution(p, p)
        assert np.allclose(out, p)

    def test_known_residual(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.2, 0.8])
        out = residual_distribution(p, q)
        assert np.allclose(out, [1.0, 0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(SpecDecodeError):
            residual_distribution(np.ones(2) / 2, np.ones(3) / 3)

    @given(st.integers(2, 10), st.integers(0, 1000))
    def test_property_valid_distribution(self, size, seed):
        rng = np.random.default_rng(seed)
        p = _random_dist(rng, size)
        q = _random_dist(rng, size)
        out = residual_distribution(p, q)
        assert out.sum() == pytest.approx(1.0)
        assert (out >= 0).all()


class TestOneCandidate:
    """The chain rule: :func:`multi_round_accept` with one candidate.

    (A zero-draft-mass candidate auto-rejects instead of raising:
    ``TestMultiRound.test_zero_mass_candidate_skipped``.)
    """

    def test_always_accept_when_target_dominates(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        rng = np.random.default_rng(0)
        for _ in range(50):
            chosen, _ = multi_round_accept(p, [0], [q], rng)
            assert chosen == 0

    def test_always_reject_zero_target(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        rng = np.random.default_rng(0)
        chosen, residual = multi_round_accept(p, [1], [q], rng)
        assert chosen is None
        assert np.allclose(residual, [1.0, 0.0])

    def test_chain_rule_lossless(self):
        """Draft from q, accept/resample: output must be ~ p (chi-square)."""
        rng = np.random.default_rng(42)
        p = np.array([0.5, 0.3, 0.15, 0.05])
        q = np.array([0.1, 0.2, 0.3, 0.4])  # deliberately mismatched
        n = 40000
        counts = np.zeros(4)
        for _ in range(n):
            token = int(rng.choice(4, p=q))
            chosen, residual = multi_round_accept(p, [token], [q], rng)
            if chosen is not None:
                counts[token] += 1
            else:
                counts[rng.choice(4, p=residual)] += 1
        chi2 = float(np.sum((counts - n * p) ** 2 / (n * p)))
        # 3 dof, 99.9th percentile ~ 16.27
        assert chi2 < 16.27


class TestMultiRound:
    def test_length_mismatch_raises(self):
        with pytest.raises(SpecDecodeError):
            multi_round_accept(
                np.ones(2) / 2, [0, 1], [np.ones(2) / 2],
                np.random.default_rng(0),
            )

    def test_zero_mass_candidate_skipped(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        chosen, residual = multi_round_accept(
            p, [1], [q], np.random.default_rng(0)
        )
        assert chosen is None
        assert np.allclose(residual, p)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_multi_round_lossless(self, k):
        """k i.i.d. draft candidates + residual fallback ~ target exactly."""
        rng = np.random.default_rng(7)
        p = np.array([0.45, 0.25, 0.2, 0.1])
        q = np.array([0.1, 0.5, 0.2, 0.2])
        n = 30000
        counts = np.zeros(4)
        for _ in range(n):
            tokens, dists = sequential_residual_draws(q, k, rng)
            chosen, residual = multi_round_accept(p, tokens, dists, rng)
            if chosen is not None:
                counts[tokens[chosen]] += 1
            else:
                counts[rng.choice(4, p=residual)] += 1
        chi2 = float(np.sum((counts - n * p) ** 2 / (n * p)))
        assert chi2 < 16.27, f"k={k}: chi2={chi2:.1f}"

    def test_first_match_preferred(self):
        """A candidate equal to the target argmax under greedy accepts."""
        p = np.array([0.0, 1.0, 0.0])
        q = np.array([1 / 3, 1 / 3, 1 / 3])
        chosen, _ = multi_round_accept(
            p, [1, 2], [q, q], np.random.default_rng(0)
        )
        assert chosen == 0


class TestSequentialDraws:
    def test_count_validation(self):
        with pytest.raises(SpecDecodeError):
            sequential_residual_draws(
                np.ones(2) / 2, 0, np.random.default_rng(0)
            )

    def test_draws_match_distribution(self):
        rng = np.random.default_rng(0)
        q = np.array([0.7, 0.2, 0.1])
        tokens, dists = sequential_residual_draws(q, 30000, rng)
        freqs = np.bincount(tokens, minlength=3) / 30000
        assert np.allclose(freqs, q, atol=0.02)
        assert all(d is q or np.shares_memory(d, q) for d in dists)
