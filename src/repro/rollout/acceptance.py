"""Accept-length models for the rollout simulator.

The algorithmic layer (:mod:`repro.specdec`) *measures* accept lengths on
the TinyLM substrate; the cluster-scale simulator needs a closed-form
stand-in for large-model acceptance behaviour.  The parametric model is
calibrated to the paper's Figure 13(a) saturation curve (accept length
rises with draft depth and saturates near 8.7 for a fresh EAGLE drafter
at V=64) and exposes a ``drafter_quality`` scale so the same curve family
covers the model-free n-gram drafter (~0.35), a stale drafter (~0.6) and
the continuously adapted drafter (1.0).  The other model,
:class:`MeasuredAcceptance`, is a table of accept lengths measured on
the TinyLM engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.specdec.strategy import SdStrategy


class AcceptanceModel(abc.ABC):
    """Maps (strategy, batch) to an expected accept length per cycle."""

    @abc.abstractmethod
    def accept_length(
        self, strategy: SdStrategy, batch_size: int
    ) -> float:
        """Expected committed tokens per draft/verify cycle (>= 1)."""


@dataclass(frozen=True)
class ParametricAcceptance(AcceptanceModel):
    """Saturating accept-length curve calibrated to Figure 13(a).

    ``accept(D, V) = 1 + (E_max*q - 1) * (1 - exp(-rate*D)) * (V/V_ref)^v_exp``

    Attributes:
        e_max: asymptotic accept length of a fresh drafter at ``v_ref``.
        rate: depth-saturation rate (0.245 fits the paper's curve).
        v_ref: reference Tokens_to_Verify (the paper sweeps up to 64).
        v_exp: sensitivity to the verification budget.
        topk_exp: mild sensitivity to tree width (Table 1 shows near-flat).
        drafter_quality: scale in (0, 1] — 1.0 for the continuously
            adapted drafter, lower for stale or model-free drafters.
    """

    e_max: float = 8.8
    rate: float = 0.245
    v_ref: int = 64
    v_exp: float = 0.12
    topk_exp: float = 0.03
    drafter_quality: float = 1.0

    def __post_init__(self) -> None:
        if self.e_max < 1.0 or self.rate <= 0:
            raise ConfigError("e_max must be >= 1 and rate > 0")
        if self.v_ref < 1:
            raise ConfigError("v_ref must be >= 1")
        if not 0.0 < self.drafter_quality <= 1.0:
            raise ConfigError("drafter_quality must be in (0, 1]")

    def accept_length(self, strategy, batch_size):
        depth_part = 1.0 - np.exp(-self.rate * strategy.draft_depth)
        verify_part = (strategy.tokens_to_verify / self.v_ref) ** self.v_exp
        topk_part = (strategy.topk / 8.0) ** self.topk_exp
        peak = self.e_max * self.drafter_quality
        accept = 1.0 + max(peak - 1.0, 0.0) * depth_part * verify_part * topk_part
        return float(np.clip(accept, 1.0, strategy.tokens_to_verify + 1.0))


class MeasuredAcceptance(AcceptanceModel):
    """Lookup table of measured accept lengths (from the TinyLM engine).

    Args:
        table: maps ``(draft_depth, topk, tokens_to_verify)`` to a
            measured accept length.
        default: fallback for unmeasured strategies (None = strict).
    """

    def __init__(
        self,
        table: Dict[Tuple[int, int, int], float],
        default: float | None = None,
    ) -> None:
        if not table and default is None:
            raise ConfigError("table must be non-empty or default set")
        for key, value in table.items():
            if value < 1.0:
                raise ConfigError(f"accept length for {key} must be >= 1")
        self._table = dict(table)
        self._default = default

    def accept_length(self, strategy, batch_size):
        key = (strategy.draft_depth, strategy.topk,
               strategy.tokens_to_verify)
        if key in self._table:
            return min(self._table[key], strategy.tokens_to_verify + 1.0)
        if self._default is not None:
            return min(self._default, strategy.tokens_to_verify + 1.0)
        raise ConfigError(
            f"no measured accept length for strategy {strategy.describe()}"
        )
