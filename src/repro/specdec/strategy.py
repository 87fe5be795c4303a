"""Speculative-decoding strategy tuples.

The paper's tuner treats each arm as a configuration tuple
``(Draft_Depth, topK, Tokens_to_Verify)`` (§5.2).  :class:`SdStrategy`
validates the tuple's internal consistency and provides the default search
space the evaluation sweeps over (Tables 1 and 4, Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError


@dataclass(frozen=True, order=True)
class SdStrategy:
    """One speculative-decoding configuration ("arm" in the MAB).

    Attributes:
        draft_depth: maximum tree depth explored by the drafter.
        topk: candidate children expanded per node.
        tokens_to_verify: tree nodes submitted to the target model for
            parallel verification (the verification batch per sequence).
    """

    draft_depth: int
    topk: int
    tokens_to_verify: int

    def __post_init__(self) -> None:
        if self.draft_depth < 1:
            raise ConfigError(
                f"draft_depth must be >= 1, got {self.draft_depth}"
            )
        if self.topk < 1:
            raise ConfigError(f"topk must be >= 1, got {self.topk}")
        if self.tokens_to_verify < 1:
            raise ConfigError(
                f"tokens_to_verify must be >= 1, got {self.tokens_to_verify}"
            )
        if self.tokens_to_verify < self.topk:
            # Node expansion is all-or-nothing (losslessness requires every
            # drawn candidate to be verified), so the budget must cover at
            # least one full expansion.
            raise ConfigError(
                "tokens_to_verify must be >= topk "
                f"({self.tokens_to_verify} < {self.topk})"
            )

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``D=10 K=8 V=48``."""
        return (
            f"D={self.draft_depth} K={self.topk} V={self.tokens_to_verify}"
        )


def default_strategy_pool() -> List[SdStrategy]:
    """The paper's four candidate strategies (Figure 10: S1..S4).

    Ordered by descending ``tokens_to_verify``; larger verification budgets
    pair with smaller batch sizes (Table 4's diagonal structure).
    """
    return [
        SdStrategy(draft_depth=8, topk=8, tokens_to_verify=48),  # S4
        SdStrategy(draft_depth=8, topk=8, tokens_to_verify=32),  # S3
        SdStrategy(draft_depth=6, topk=6, tokens_to_verify=16),  # S2
        SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8),  # S1
    ]
