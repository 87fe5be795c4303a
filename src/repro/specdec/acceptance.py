"""Lossless accept/reject rule for speculative decoding.

The rule is SpecInfer's multi-round speculative sampling over a set of
sibling candidates ``x_i ~ q``: candidates are tried in order — ``x`` is
accepted with probability ``min(1, p(x)/q(x))`` — and after each
rejection the target distribution ``p`` is replaced by the residual
``norm(max(p - q, 0))``.  If every sibling is rejected, sampling from
the final residual preserves the target distribution exactly.  With one
candidate it is the chain rule of Leviathan et al. (2023), which is how
a ``topk = 1`` tree (a chain) is verified.  A candidate with ``q(x) = 0``
carries no draft mass: it is skipped without a draw.  The residual can
only be all-zero when ``p == q`` (a rejection then has probability
zero); under rounding the rule falls back to ``p`` itself.

The walk that applies it lives in
:func:`repro.specdec.tree._walk_acceptance`, which walks every sequence
of a :class:`~repro.specdec.tree.DraftBatch` and reads each row's one
draft distribution from it.  The per-trial reference —
``multi_round_accept`` and ``residual_distribution``, one candidate and
one distribution per call — is kept in ``tests/_tree_oracle.py``, and
the walk is held to it draw for draw, one sequence's slice of the batch
at a time.

The rule requires that each candidate was *sampled from the draft
distribution passed in*; the tree builder's ``sample`` child mode satisfies
this (and is what the property tests exercise).  The deterministic ``topk``
child mode trades strict losslessness at ``temperature > 0`` for the higher
accept lengths EAGLE-2-style systems report; greedy verification
(``temperature == 0``) is exact in both modes.
"""

from __future__ import annotations

import numpy as np

#: Residual mass at or below which the rule falls back to the target.
RESIDUAL_EPS = 1e-15


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
