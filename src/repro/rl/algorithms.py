"""The GRPO advantage estimator (paper §2.1, §7).

The paper argues TLT is algorithm-agnostic because the GRPO family
shares the rollout/inference/training workflow and differs only in
reward shaping; the trainer here runs GRPO.  The estimator maps a
``(num_prompts, group_size)`` reward matrix to per-sequence advantages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_EPS = 1e-6


class GrpoAdvantages:
    """GRPO: group-mean baseline with group-std normalisation.

    ``A_i = (r_i - mean(group)) / (std(group) + eps)``.
    """

    def compute(self, rewards: np.ndarray) -> np.ndarray:
        """Advantages of a ``(num_prompts, group_size)`` reward matrix,
        same shape."""
        rewards = np.asarray(rewards, dtype=np.float64)
        if rewards.ndim != 2:
            raise ConfigError(
                f"rewards must be 2-D (prompts, group), got {rewards.shape}"
            )
        if rewards.shape[1] < 1:
            raise ConfigError("group_size must be >= 1")
        adv = rewards - rewards.mean(axis=1, keepdims=True)
        return adv / (rewards.std(axis=1, keepdims=True) + _EPS)
