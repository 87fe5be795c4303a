"""Optimizers over :class:`~repro.llm.params.ParamSet`.

The paper trains both the target model (RL stage, Adam + BF16 mixed
precision) and the drafter (spot training) with Adam, provided here over
the shared parameter container.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import ConfigError
from repro.llm.params import ParamSet


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) over a ParamSet."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError("betas must be in [0, 1)")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: Optional[ParamSet] = None
        self._v: Optional[ParamSet] = None

    @property
    def step_count(self) -> int:
        """Number of optimizer steps applied so far."""
        return self._step_count

    def step(self, params: ParamSet, grads: ParamSet) -> None:
        """Apply one Adam update in-place on ``params``."""
        if self._m is None:
            self._m = grads.zeros_like()
            self._v = grads.zeros_like()
        assert self._v is not None
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for name, param in params.items():
            grad = grads[name]
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name -> array state: ``step`` plus the moments as
        ``m.<param>`` / ``v.<param>`` (absent before the first step)."""
        state = {"step": np.asarray(self._step_count)}
        for key, moment in (("m", self._m), ("v", self._v)):
            for name, array in (moment or ParamSet()).items():
                state[f"{key}.{name}"] = array.copy()
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore what :meth:`state_dict` returned (arrays are copied)."""
        self._step_count = int(state["step"])
        self._m, self._v = (
            ParamSet(
                {
                    name[2:]: np.array(array)
                    for name, array in state.items()
                    if name.startswith(prefix)
                }
            )
            or None
            for prefix in ("m.", "v.")
        )
