"""Adaptive SD Manager (paper §5.1, Figure 6).

Couples two mechanisms:

* **elastic activation** — SD engages only when the number of running
  requests drops to a configurable threshold (default 32), because at
  large batch the verification FLOPs would slow decoding down;
* **strategy selection** — a :class:`~repro.tuner.StrategySelector`
  (BEG-MAB by default) picks the SD configuration per live batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.rollout.acceptance import AcceptanceModel, ParametricAcceptance
from repro.specdec.strategy import SdStrategy, default_strategy_pool
from repro.tuner.mab import BegMabSelector, StrategySelector


@dataclass
class AdaptiveSdConfig:
    """Configuration of the adaptive SD manager.

    Attributes:
        strategies: candidate SD strategies.
        activation_threshold: SD engages when running requests <= this.
        switch_overhead_s: one-off re-prefill cost when SD activates
            (the paper measures ~3 s).
        acceptance: accept-length model for the simulator.
        selector: strategy selector; a BEG-MAB over the strategies is
            built when omitted.
    """

    strategies: Sequence[SdStrategy] = field(
        default_factory=default_strategy_pool
    )
    activation_threshold: int = 32
    switch_overhead_s: float = 3.0
    acceptance: AcceptanceModel = field(
        default_factory=ParametricAcceptance
    )
    selector: Optional[StrategySelector] = None

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ConfigError("strategies must be non-empty")
        if self.activation_threshold < 1:
            raise ConfigError("activation_threshold must be >= 1")
        if self.switch_overhead_s < 0:
            raise ConfigError("switch_overhead_s must be non-negative")


class AdaptiveSdManager:
    """Runtime policy: when to use SD and with which strategy."""

    def __init__(self, config: AdaptiveSdConfig) -> None:
        self.config = config
        if config.selector is not None:
            self.selector = config.selector
        else:
            thresholds = _default_thresholds(
                len({s.tokens_to_verify for s in config.strategies})
            )
            self.selector = BegMabSelector(
                config.strategies, thresholds
            )
        self._sd_active = False
        self.activations = 0

    # -- policy ------------------------------------------------------------

    def should_use_sd(self, running_requests: int) -> bool:
        """Elastic activation rule (engaged once, never disengaged within
        a rollout because batch size only shrinks)."""
        if running_requests < 1:
            raise ConfigError("running_requests must be >= 1")
        return running_requests <= self.config.activation_threshold

    def engage(self, running_requests: int) -> float:
        """Transition bookkeeping; returns the switch overhead to pay.

        The first activation within a rollout pays the re-prefill cost
        (the drafter must build hidden states for live sequences).

        Contract: callers must check :meth:`should_use_sd` first — the
        elastic rule is the manager's single decision point, and an engine
        engaging SD above the threshold has a policy bug it should hear
        about rather than silently pay zero overhead for.

        Raises:
            ConfigError: when ``running_requests`` is above the
                activation threshold (``should_use_sd`` is False).
        """
        if not self.should_use_sd(running_requests):
            raise ConfigError(
                f"engage() called with {running_requests} running requests, "
                "above the activation threshold "
                f"{self.config.activation_threshold}; check should_use_sd() "
                "before engaging"
            )
        if self._sd_active:
            return 0.0
        self._sd_active = True
        self.activations += 1
        return self.config.switch_overhead_s

    def reset(self) -> None:
        """New rollout: SD disengaged until the threshold is crossed."""
        self._sd_active = False

    def select_strategy(self, running_requests: int) -> SdStrategy:
        """Pick the SD strategy for the live batch size."""
        return self.selector.select(running_requests)

    def record(
        self,
        strategy: SdStrategy,
        elapsed_s: float,
        accept_lengths: Sequence[float],
        batch_size: int,
    ) -> None:
        """Feed a cycle measurement back to the tuner."""
        self.selector.record(
            strategy, elapsed_s, accept_lengths, batch_size
        )

    def accept_length(
        self, strategy: SdStrategy, batch_size: int
    ) -> float:
        """Expected accept length under the configured model."""
        return self.config.acceptance.accept_length(strategy, batch_size)


def _default_thresholds(num_groups: int) -> list:
    """Power-of-two bucket thresholds: 1, 4, 8, 16, ... per group."""
    thresholds = [1]
    value = 4
    while len(thresholds) < num_groups:
        thresholds.append(value)
        value *= 2
    return thresholds
