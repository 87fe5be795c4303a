"""Bucketed-Epsilon-Greedy MAB selector — Algorithm 1 of the paper.

Each "arm" is an :class:`~repro.specdec.strategy.SdStrategy`; the reward
of a generation step is ``accept_length * batch_size / elapsed_time``
(tokens per second).  BEG adds two ideas to plain ε-greedy:

* **bucketing** — strategies are grouped by ``tokens_to_verify``
  (descending) and each group is mapped to a batch-size bucket, so large
  batches never explore verification-heavy strategies that would OOM or
  throttle;
* **sliding-window medians** — rewards live in fixed-size deques and the
  exploitation choice maximises the window *median*, keeping the tuner
  responsive to the non-stationary dynamics of RL training (the target
  model changes under the bandit's feet).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TunerError
from repro.specdec.strategy import SdStrategy
from repro.utils.stats import SlidingWindow

#: Sliding-window length ``w`` of the ε-greedy selectors' reward windows.
WINDOW_SIZE = 16

#: Exploration probability ε of the ε-greedy selectors.
EPSILON = 0.1


class StrategySelector(abc.ABC):
    """Interface shared by BEG-MAB and the ablation baselines."""

    @abc.abstractmethod
    def select(self, batch_size: int) -> SdStrategy:
        """Choose the strategy for the next generation step."""

    @abc.abstractmethod
    def record(
        self,
        strategy: SdStrategy,
        elapsed_time: float,
        accept_lengths: Sequence[float],
        batch_size: int,
    ) -> None:
        """Feed back one step's measurement (Algorithm 1, Record)."""

    @staticmethod
    def reward_of(
        elapsed_time: float,
        accept_lengths: Sequence[float],
        batch_size: int,
    ) -> Tuple[float, float]:
        """Algorithm 1 lines 8–9: returns ``(reward, accept_len)``.

        ``accept_len = sum(accept_lengths)/batch_size + 1`` (the bonus
        token), ``reward = accept_len * batch_size / elapsed_time``.
        """
        if elapsed_time <= 0:
            raise TunerError("elapsed_time must be positive")
        if batch_size < 1:
            raise TunerError("batch_size must be >= 1")
        accept_len = float(np.sum(accept_lengths)) / batch_size + 1.0
        reward = accept_len * batch_size / elapsed_time
        return reward, accept_len


@dataclass
class _ArmState:
    """Per-strategy sliding windows (rewards and accept lengths)."""

    rewards: SlidingWindow
    accept_lens: SlidingWindow


class BegMabSelector(StrategySelector):
    """Algorithm 1: Bucketed-Epsilon-Greedy MAB selector.

    Args:
        strategies: candidate strategies S.
        batch_thresholds: ascending bucket lower bounds
            ``t_1 < t_2 < ... < t_m`` (``t_1`` should be 1);  bucket ``i``
            covers ``[t_i, t_{i+1} - 1]`` and the last bucket is open.
        rng: generator for exploration draws.
    """

    def __init__(
        self,
        strategies: Sequence[SdStrategy],
        batch_thresholds: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not strategies:
            raise TunerError("strategies must be non-empty")
        if not batch_thresholds:
            raise TunerError("batch_thresholds must be non-empty")
        thresholds = list(batch_thresholds)
        if thresholds != sorted(thresholds) or len(set(thresholds)) != len(
            thresholds
        ):
            raise TunerError("batch_thresholds must be strictly ascending")
        if thresholds[0] < 1:
            raise TunerError("batch thresholds must start at >= 1")

        # GroupByVerifyTokens(S) -> groups sorted by tokens_to_verify desc.
        verify_values = sorted(
            {s.tokens_to_verify for s in strategies}, reverse=True
        )
        groups: List[List[SdStrategy]] = [
            [s for s in strategies if s.tokens_to_verify == v]
            for v in verify_values
        ]
        if len(groups) > len(thresholds):
            raise TunerError(
                f"{len(groups)} verify-token groups need at least as many "
                f"batch thresholds, got {len(thresholds)}"
            )
        # Map bucket B_i -> group S_i; extra buckets fall to the last group.
        self._groups = groups
        self._thresholds = thresholds
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._arms: Dict[SdStrategy, _ArmState] = {
            s: _ArmState(
                rewards=SlidingWindow(WINDOW_SIZE),
                accept_lens=SlidingWindow(WINDOW_SIZE),
            )
            for s in strategies
        }

    # -- bucket resolution ---------------------------------------------------

    def bucket_index(self, batch_size: int) -> int:
        """Index of the bucket covering ``batch_size``."""
        if batch_size < 1:
            raise TunerError("batch_size must be >= 1")
        index = 0
        for i, threshold in enumerate(self._thresholds):
            if batch_size >= threshold:
                index = i
        return index

    def candidates(self, batch_size: int) -> List[SdStrategy]:
        """Candidate set V for ``batch_size`` (Algorithm 1 line 12)."""
        index = min(self.bucket_index(batch_size), len(self._groups) - 1)
        return list(self._groups[index])

    # -- StrategySelector ------------------------------------------------------

    def select(self, batch_size: int) -> SdStrategy:
        candidates = self.candidates(batch_size)
        if len(candidates) == 1:
            return candidates[0]
        if self._rng.random() < EPSILON:
            return candidates[self._rng.integers(len(candidates))]
        # Exploit: maximise the window median; unexplored arms first so
        # every candidate gets at least one observation.
        unexplored = [
            s for s in candidates if self._arms[s].rewards.is_empty
        ]
        if unexplored:
            return unexplored[0]
        return max(
            candidates, key=lambda s: self._arms[s].rewards.median()
        )

    def record(
        self,
        strategy: SdStrategy,
        elapsed_time: float,
        accept_lengths: Sequence[float],
        batch_size: int,
    ) -> None:
        if strategy not in self._arms:
            raise TunerError(f"unknown strategy {strategy.describe()}")
        reward, accept_len = self.reward_of(
            elapsed_time, accept_lengths, batch_size
        )
        arm = self._arms[strategy]
        arm.rewards.append(reward)
        arm.accept_lens.append(accept_len)

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Summary of every arm (for logs / benchmark rows)."""
        out: Dict[str, Dict[str, float]] = {}
        for strategy, arm in self._arms.items():
            out[strategy.describe()] = {
                "observations": float(len(arm.rewards)),
                "median_reward": (
                    arm.rewards.median() if not arm.rewards.is_empty else 0.0
                ),
                "median_accept_len": (
                    arm.accept_lens.median()
                    if not arm.accept_lens.is_empty
                    else 0.0
                ),
            }
        return out


class PlainEpsilonGreedy(StrategySelector):
    """Unbucketed ε-greedy over the full strategy set (ablation).

    Ignores batch size entirely — it can pick a verification-heavy
    strategy for a large batch, which is exactly the failure mode BEG's
    bucketing prevents.
    """

    def __init__(
        self,
        strategies: Sequence[SdStrategy],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not strategies:
            raise TunerError("strategies must be non-empty")
        self._strategies = list(strategies)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._windows = {
            s: SlidingWindow(WINDOW_SIZE) for s in self._strategies
        }

    def select(self, batch_size: int) -> SdStrategy:
        if self._rng.random() < EPSILON:
            return self._strategies[
                self._rng.integers(len(self._strategies))
            ]
        unexplored = [
            s for s in self._strategies if self._windows[s].is_empty
        ]
        if unexplored:
            return unexplored[0]
        return max(
            self._strategies, key=lambda s: self._windows[s].median()
        )

    def record(self, strategy, elapsed_time, accept_lengths, batch_size):
        reward, _ = self.reward_of(elapsed_time, accept_lengths, batch_size)
        self._windows[strategy].append(reward)


class Ucb1Selector(StrategySelector):
    """UCB1 bandit over the full strategy set (ablation).

    Classic optimism-under-uncertainty; uses running means rather than
    sliding windows, so it adapts slowly when the workload drifts.
    """

    #: Weight of the exploration bonus.
    EXPLORATION_COEF = 2.0

    def __init__(self, strategies: Sequence[SdStrategy]) -> None:
        if not strategies:
            raise TunerError("strategies must be non-empty")
        self._strategies = list(strategies)
        self._counts = {s: 0 for s in self._strategies}
        self._sums = {s: 0.0 for s in self._strategies}
        self._total = 0

    def select(self, batch_size: int) -> SdStrategy:
        for strategy in self._strategies:
            if self._counts[strategy] == 0:
                return strategy

        def ucb(strategy: SdStrategy) -> float:
            mean = self._sums[strategy] / self._counts[strategy]
            bonus = np.sqrt(
                self.EXPLORATION_COEF
                * np.log(max(self._total, 1))
                / self._counts[strategy]
            )
            return mean + bonus

        return max(self._strategies, key=ucb)

    def record(self, strategy, elapsed_time, accept_lengths, batch_size):
        reward, _ = self.reward_of(elapsed_time, accept_lengths, batch_size)
        self._counts[strategy] += 1
        self._sums[strategy] += reward
        self._total += 1


class StaticSelector(StrategySelector):
    """Always the same strategy (the no-tuning baseline)."""

    def __init__(self, strategy: SdStrategy) -> None:
        self._strategy = strategy

    def select(self, batch_size: int) -> SdStrategy:
        return self._strategy

    def record(self, strategy, elapsed_time, accept_lengths, batch_size):
        """Static selection keeps no state."""
