"""The per-token KL-divergence estimator (Schulman's k3).

The GRPO inference stage scores every response token under the policy and
the frozen reference model; the KL penalty constrains the policy from
drifting.  At a sampled token with log-probs ``logp`` (policy) and
``logp_ref`` (reference) the single-sample estimate of ``KL(pi || pi_ref)``
is ``k3 = exp(logp_ref - logp) - (logp_ref - logp) - 1``: unbiased-ish and
non-negative, the GRPO default.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def _log_ratio(logp: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """``logp_ref - logp``, clipped for numeric safety."""
    logp = np.asarray(logp, dtype=np.float64)
    logp_ref = np.asarray(logp_ref, dtype=np.float64)
    if logp.shape != logp_ref.shape:
        raise ConfigError(
            f"logp/logp_ref shape mismatch: {logp.shape} vs {logp_ref.shape}"
        )
    return np.clip(-(logp - logp_ref), -60.0, 60.0)


def kl_estimate(logp: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """Per-token k3 estimate for sampled tokens.

    Args:
        logp: policy log-probabilities of the sampled tokens.
        logp_ref: reference-model log-probabilities of the same tokens.

    Returns:
        An array of per-token estimates, same shape as the inputs.
    """
    neg = _log_ratio(logp, logp_ref)
    return np.exp(neg) - neg - 1.0


def kl_grad_coef(logp: np.ndarray, logp_ref: np.ndarray) -> np.ndarray:
    """d(k3)/d(logp) — the coefficient entering the policy grad:
    ``1 - exp(logp_ref - logp)``."""
    return 1.0 - np.exp(_log_ratio(logp, logp_ref))
