"""Lossless accept/reject rule for speculative decoding.

:func:`multi_round_accept` is SpecInfer's multi-round speculative sampling
over a set of sibling candidates ``x_i ~ q_i``: candidates are tried in
order — ``x`` is accepted with probability ``min(1, p(x)/q(x))`` — and
after each rejection the target distribution is replaced by the residual
``norm(max(p - q, 0))`` against that candidate's draft distribution.  If
every sibling is rejected, sampling from the final residual preserves the
target distribution exactly.  With one candidate it is the chain rule of
Leviathan et al. (2023), which is how a ``topk = 1`` tree (a chain) is
verified.

The rule requires that each candidate was *sampled from the draft
distribution passed in*; the tree builder's ``sample`` child mode satisfies
this (and is what the property tests exercise).  The deterministic ``topk``
child mode trades strict losslessness at ``temperature > 0`` for the higher
accept lengths EAGLE-2-style systems report; greedy verification
(``temperature == 0``) is exact in both modes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SpecDecodeError

_RESIDUAL_EPS = 1e-15


def residual_distribution(
    target_probs: np.ndarray, draft_probs: np.ndarray
) -> np.ndarray:
    """``norm(max(p - q, 0))`` with a numeric fallback.

    Mathematically the residual can only be all-zero when ``p == q``, in
    which case rejection has probability zero; under floating point we fall
    back to the target distribution itself rather than raising.
    """
    target_probs = np.asarray(target_probs, dtype=np.float64)
    draft_probs = np.asarray(draft_probs, dtype=np.float64)
    if target_probs.shape != draft_probs.shape:
        raise SpecDecodeError(
            "target/draft distribution shape mismatch: "
            f"{target_probs.shape} vs {draft_probs.shape}"
        )
    residual = np.maximum(target_probs - draft_probs, 0.0)
    total = residual.sum()
    if total <= _RESIDUAL_EPS:
        return target_probs / target_probs.sum()
    return residual / total


def multi_round_accept(
    target_probs: np.ndarray,
    candidates: Sequence[int],
    draft_prob_dists: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> Tuple[Optional[int], np.ndarray]:
    """SpecInfer multi-round speculative sampling over sibling candidates.

    Args:
        target_probs: target distribution ``p`` at the parent position.
        candidates: sibling token ids, tried in order.
        draft_prob_dists: the draft distribution each candidate was sampled
            from (one per candidate; for a single drafter these are the
            successive residual distributions used during tree building).
        rng: random generator (one uniform per rejection trial).

    Returns:
        ``(index, residual)`` where ``index`` is the position of the first
        accepted candidate in ``candidates`` (or ``None`` if all rejected)
        and ``residual`` is the distribution to sample a correction token
        from when nothing was accepted.
    """
    if len(candidates) != len(draft_prob_dists):
        raise SpecDecodeError(
            "candidates and draft distributions length mismatch: "
            f"{len(candidates)} vs {len(draft_prob_dists)}"
        )
    current = np.asarray(target_probs, dtype=np.float64)
    for index, (token, q) in enumerate(zip(candidates, draft_prob_dists)):
        q_tok = q[token]
        if q_tok <= 0.0:
            # The candidate has zero draft mass under its recorded
            # distribution — treat as an automatic rejection with no
            # residual update (it carried no probability to subtract).
            continue
        if rng.random() < min(1.0, current[token] / q_tok):
            return index, current
        current = residual_distribution(current, q)
    return None, current


def batched_inverse_cdf_draws(
    probs: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Map each row's uniforms through the inverse CDF of its row.

    The candidate-sampling primitive of the tree builder
    (``tests/_tree_oracle.py`` keeps the per-distribution form it
    matches row by row).

    Args:
        probs: ``(rows, V)`` distributions.
        uniforms: ``(rows, draws)`` uniforms, row ``i`` drawn for
            ``probs[i]``.

    Returns:
        ``(rows, draws)`` token ids: the number of cumulative sums not
        above each uniform, which is what a right-sided binary search
        returns.  The last cumulative sum is 1 by definition and a
        uniform lies below it, so only the first ``V - 1`` sums are
        compared — which also keeps a uniform of exactly 1.0 inside the
        support.  ``cumsum`` accumulates each row sequentially, so every
        row equals its scalar counterpart bit for bit.
    """
    cdf = probs.cumsum(axis=1)
    return (cdf[:, None, :-1] <= uniforms[:, :, None]).sum(axis=2)
