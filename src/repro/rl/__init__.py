"""Reasoning-RL algorithms (paper §2.1, Figure 4).

GRPO and its cousins share one training workflow — rollout, inference
(policy + frozen reference logprobs, rule-based reward), policy update —
differing only in advantage construction and KL regularisation.  This
package implements that workflow for GRPO over the TinyLM substrate with
real policy-gradient updates:

* :mod:`repro.rl.kl` — the k1/k2/k3 KL estimators (Schulman);
* :mod:`repro.rl.algorithms` — the GRPO advantage estimator;
* :mod:`repro.rl.rollout_backends` — the :class:`RolloutBackend` seam
  and the vanilla baseline (speculative rollouts on a serving pool
  implement the same seam one layer up,
  :class:`repro.longtail.RolloutScheduler`; this package imports
  nothing from ``repro.serving`` or ``repro.longtail``);
* :mod:`repro.rl.trainer` — the end-to-end RL training loop.
"""

from repro.rl.algorithms import GrpoAdvantages
from repro.rl.kl import kl_estimate, kl_grad_coef
from repro.rl.rollout_backends import (
    RolloutBackend,
    RolloutResult,
    VanillaRollout,
)
from repro.rl.trainer import RlConfig, RlStepReport, RlTrainer

__all__ = [
    "GrpoAdvantages",
    "kl_estimate",
    "kl_grad_coef",
    "RolloutBackend",
    "RolloutResult",
    "VanillaRollout",
    "RlConfig",
    "RlStepReport",
    "RlTrainer",
]
