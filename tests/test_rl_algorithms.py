"""Tests for the KL estimators and the GRPO advantage estimator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError
from repro.rl import GrpoAdvantages, kl_estimate, kl_grad_coef

logp_arrays = hnp.arrays(
    dtype=np.float64, shape=st.tuples(st.integers(1, 20)),
    elements=st.floats(-10, 0),
)


class TestKlEstimators:
    def test_zero_when_identical(self):
        logp = np.array([-1.0, -2.0])
        for kind in ("k1", "k2", "k3"):
            assert np.allclose(kl_estimate(logp, logp, kind), 0.0)

    @given(logp_arrays, logp_arrays)
    @settings(max_examples=40, deadline=None)
    def test_k2_k3_nonnegative(self, logp, logp_ref):
        if logp.shape != logp_ref.shape:
            return
        assert (kl_estimate(logp, logp_ref, "k2") >= 0).all()
        assert (kl_estimate(logp, logp_ref, "k3") >= -1e-12).all()

    def test_k1_is_log_ratio(self):
        logp = np.array([-1.0])
        ref = np.array([-3.0])
        assert kl_estimate(logp, ref, "k1")[0] == pytest.approx(2.0)

    def test_k3_unbiasedness(self):
        """E_p[k3] equals the true KL(p||q) for known distributions."""
        rng = np.random.default_rng(0)
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.4, 0.4, 0.2])
        true_kl = float(np.sum(p * np.log(p / q)))
        draws = rng.choice(3, size=200_000, p=p)
        est = kl_estimate(
            np.log(p[draws]), np.log(q[draws]), "k3"
        ).mean()
        assert est == pytest.approx(true_kl, abs=0.01)

    def test_grad_coef_matches_finite_difference(self):
        logp = np.array([-1.3])
        ref = np.array([-0.7])
        eps = 1e-6
        for kind in ("k1", "k2", "k3"):
            up = kl_estimate(logp + eps, ref, kind)
            down = kl_estimate(logp - eps, ref, kind)
            numeric = (up - down) / (2 * eps)
            assert kl_grad_coef(logp, ref, kind)[0] == pytest.approx(
                numeric[0], rel=1e-4
            )

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            kl_estimate(np.zeros(1), np.zeros(1), "k9")

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            kl_estimate(np.zeros(2), np.zeros(3))


class TestGrpo:
    def test_group_mean_zero(self):
        rewards = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 6.0]])
        adv = GrpoAdvantages().compute(rewards)
        assert np.allclose(adv.mean(axis=1), 0.0, atol=1e-9)

    def test_normalized_scale(self):
        rewards = np.array([[0.0, 1.0]])
        adv = GrpoAdvantages().compute(rewards)
        assert adv[0, 1] == pytest.approx(1.0, abs=1e-4)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 8)),
            elements=st.floats(0, 1),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_mean_zero(self, rewards):
        adv = GrpoAdvantages().compute(rewards)
        assert np.allclose(adv.mean(axis=1), 0.0, atol=1e-7)

    def test_requires_2d(self):
        with pytest.raises(ConfigError):
            GrpoAdvantages().compute(np.zeros(4))
