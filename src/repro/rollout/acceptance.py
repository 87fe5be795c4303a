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

#: The saturating curve's constants, fitted to Figure 13(a): the
#: asymptotic accept length of a fresh drafter at ``V_REF``, the
#: depth-saturation rate, the reference Tokens_to_Verify (the paper
#: sweeps up to 64), the sensitivity to the verification budget and the
#: mild sensitivity to tree width (Table 1 shows near-flat).
E_MAX = 8.8
RATE = 0.245
V_REF = 64
V_EXP = 0.12
TOPK_EXP = 0.03


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

    ``accept(D, V) = 1 + (E_MAX*q - 1) * (1 - exp(-RATE*D)) * (V/V_REF)^V_EXP``

    Attributes:
        drafter_quality: scale ``q`` in (0, 1] — 1.0 for the continuously
            adapted drafter, lower for stale or model-free drafters.
    """

    drafter_quality: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.drafter_quality <= 1.0:
            raise ConfigError("drafter_quality must be in (0, 1]")

    def accept_length(self, strategy, batch_size):
        depth_part = 1.0 - np.exp(-RATE * strategy.draft_depth)
        verify_part = (strategy.tokens_to_verify / V_REF) ** V_EXP
        topk_part = (strategy.topk / 8.0) ** TOPK_EXP
        peak = E_MAX * self.drafter_quality
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
