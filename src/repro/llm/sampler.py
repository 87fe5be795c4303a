"""Numerically stable softmax utilities and temperature sampling.

Speculative decoding's losslessness proof is stated over the *post-
temperature* token distributions, so every consumer in this library goes
through :func:`temperature_probs` — the single place where logits become a
sampling distribution — and through :func:`sample_from_probs` (or, with
uniforms drawn elsewhere, :func:`tokens_at_uniforms` beneath it), the single
place where a distribution becomes a token.  Keeping these centralized makes
the lossless-acceptance property testable end to end.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GenerationError


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``, in place on one new array."""
    logits = np.asarray(logits, dtype=np.float64)
    probs = logits - logits.max(axis=axis, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=axis, keepdims=True)
    return probs


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted


def temperature_probs(
    logits: np.ndarray, temperature: float, axis: int = -1
) -> np.ndarray:
    """Token distribution after temperature scaling.

    ``temperature == 0`` yields a greedy one-hot distribution (argmax);
    otherwise probabilities are ``softmax(logits / temperature)``.
    """
    if temperature < 0:
        raise GenerationError(
            f"temperature must be non-negative, got {temperature}"
        )
    logits = np.asarray(logits, dtype=np.float64)
    if temperature == 0.0:
        # One-hot at the first maximum: compare an index grid laid along
        # ``axis`` with the argmax.
        best_shape = list(logits.shape)
        best_shape[axis] = 1
        grid_shape = [1] * logits.ndim
        grid_shape[axis] = -1
        grid = np.arange(logits.shape[axis]).reshape(grid_shape)
        best = logits.argmax(axis=axis).reshape(best_shape)
        return (grid == best).astype(np.float64)
    return softmax(logits / temperature, axis=axis)


def tokens_at_uniforms(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup: row ``i`` of ``(n, V)`` ``probs`` at ``draws[i]``.

    The one place a uniform becomes a token, so callers that must draw
    their uniforms elsewhere (one private stream per row) sample exactly
    like :func:`sample_from_probs`.
    """
    cdf = np.cumsum(probs, axis=-1)
    # Guard against cumulative rounding: force the last column to 1.
    cdf[:, -1] = 1.0
    return (cdf < draws[:, None]).sum(axis=-1)


def sample_from_probs(
    probs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample token ids from a (..., V) probability array.

    Uses inverse-CDF sampling with one uniform draw per distribution, which
    keeps the number of RNG consumptions independent of the vocabulary.
    """
    probs = np.asarray(probs, dtype=np.float64)
    flat = probs.reshape(-1, probs.shape[-1])
    ids = tokens_at_uniforms(flat, rng.random(flat.shape[0]))
    return ids.reshape(probs.shape[:-1])
