"""Online response-length prediction for distribution-aware scheduling.

The long-tail papers (DARTS; "Beat the Long-Tail") agree on the
mechanism: you do not need an oracle to schedule rollouts well, just a
predictor that ranks prompt families by *expected* response length and
keeps up as the rollout distribution shifts under RL training.  The
:class:`LengthPredictor` here is that estimator:

* prompts are bucketed into **families** by their leading tokens (GRPO
  group members share the whole prompt, so a family covers at least the
  group — and usually the task template behind many groups);
* each family keeps a sliding window of observed response lengths
  (:attr:`~repro.rl.rollout_backends.RolloutResult.response_lengths`
  fed back after every rollout batch) plus an EWMA; the prediction is
  the window **quantile** (p75 by default — scheduling cares about the
  straggler end, not the mean), smoothed toward the EWMA while the
  window is thin;
* unseen families fall back to a **prior** drawn from a
  :class:`~repro.workload.lengths.LengthModel` (the workload's length
  distribution, quantiled once at construction), and finally to the
  request's own cap — so the predictor degrades to the cap-as-oracle
  behaviour the dispatcher already used, never below it.

Calibration is counted, not assumed: every ``observe`` scores the
prediction the predictor *would have made* for that prompt right before
absorbing the observation, so :meth:`LengthPredictor.calibration`
reports mean absolute error, the over/under split, and how often the
prediction landed within a factor of two — the numbers the scheduler's
scoreboard prints next to its makespan wins.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.workload.lengths import LengthModel

#: A prompt family: the leading tokens shared by the prompts it covers.
FamilyKey = Tuple[int, ...]


@dataclass
class FamilyEstimate:
    """Per-family online length state.

    Attributes:
        window: recent observed response lengths, oldest first.
        ordered: the same lengths, sorted (the quantile's source).
        ewma: exponentially-weighted mean length (thin-window smoother).
        observations: total lengths absorbed (not capped by the window).
    """

    window: Deque[float]
    ordered: List[float] = field(default_factory=list)
    ewma: float = 0.0
    observations: int = 0


@dataclass
class PredictorCalibration:
    """Monotonic counters scoring the predictor against reality.

    Every :meth:`LengthPredictor.observe` scores the prediction the
    predictor would have made for that prompt *before* updating, so the
    counters measure true online performance (no peeking).

    Attributes:
        predictions: ``predict`` calls served.
        prior_fallbacks: predictions served from the workload prior
            (family had no observations yet).
        observations: observed lengths absorbed.
        abs_error: summed ``|predicted - observed|``.
        overestimates: observations the predictor called too long.
        underestimates: observations the predictor called too short —
            the expensive direction: an unpredicted straggler starts
            late and stretches the makespan.
        within_factor: observations where the prediction landed within
            ``factor`` (2.0) of the truth in both directions.
    """

    predictions: int = 0
    prior_fallbacks: int = 0
    observations: int = 0
    abs_error: float = 0.0
    overestimates: int = 0
    underestimates: int = 0
    within_factor: int = 0

    @property
    def mean_abs_error(self) -> float:
        """Mean absolute error over scored observations."""
        if not self.observations:
            return 0.0
        return self.abs_error / self.observations

    @property
    def hit_rate(self) -> float:
        """Fraction of observations predicted within the factor band."""
        if not self.observations:
            return 0.0
        return self.within_factor / self.observations

    def summary(self) -> Dict[str, float]:
        """Flat dict for benchmark rows."""
        return {
            "predictions": float(self.predictions),
            "prior_fallbacks": float(self.prior_fallbacks),
            "observations": float(self.observations),
            "mean_abs_error": self.mean_abs_error,
            "overestimates": float(self.overestimates),
            "underestimates": float(self.underestimates),
            "hit_rate": self.hit_rate,
        }


class LengthPredictor:
    """Per-prompt-family quantile/EWMA response-length estimator.

    Args:
        family_prefix: leading prompt tokens forming the family key
            (GRPO members share the whole prompt, so any prefix groups
            them; a template-length prefix groups whole task families).
        quantile: window quantile predicted (p75 by default — the
            scheduler plans for the straggler end of each family).
        ewma_alpha: EWMA smoothing factor in (0, 1].
        min_window: observations a family needs before its window
            quantile is trusted alone; below it the quantile and EWMA
            are blended by observation count.
        window: per-family sliding-window capacity (bounds memory and
            keeps the estimate tracking a *shifting* distribution —
            response lengths grow as RL training progresses).
        prior: optional workload length model; its ``quantile`` is the
            prediction for never-observed families (sampled once,
            deterministically, at construction).
        prior_samples: sample count for the prior quantile.
        hit_factor: calibration band — an observation counts as a hit
            when the prediction was within this factor both ways.
    """

    def __init__(
        self,
        family_prefix: int = 4,
        quantile: float = 75.0,
        ewma_alpha: float = 0.25,
        min_window: int = 4,
        window: int = 64,
        prior: Optional[LengthModel] = None,
        prior_samples: int = 512,
        hit_factor: float = 2.0,
    ) -> None:
        if family_prefix < 1:
            raise ConfigError(
                f"family_prefix must be >= 1, got {family_prefix}"
            )
        if not 0.0 < quantile <= 100.0:
            raise ConfigError(
                f"quantile must be in (0, 100], got {quantile}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        if min_window < 1:
            raise ConfigError(
                f"min_window must be >= 1, got {min_window}"
            )
        if window < min_window:
            raise ConfigError(
                f"window ({window}) must be >= min_window ({min_window})"
            )
        if prior_samples < 1:
            raise ConfigError(
                f"prior_samples must be >= 1, got {prior_samples}"
            )
        if hit_factor < 1.0:
            raise ConfigError(
                f"hit_factor must be >= 1.0, got {hit_factor}"
            )
        self.family_prefix = family_prefix
        self.quantile = quantile
        self.ewma_alpha = ewma_alpha
        self.min_window = min_window
        self.window = window
        self.hit_factor = hit_factor
        self.families: Dict[FamilyKey, FamilyEstimate] = {}
        self.calibration = PredictorCalibration()
        self._prior_length: Optional[float] = None
        if prior is not None:
            # The prior is quantiled once, with a fixed private seed:
            # the predictor must not consume any caller RNG stream
            # (scheduling may only reorder, never perturb seeds).
            samples = prior.sample(
                np.random.default_rng(0), prior_samples
            )
            self._prior_length = float(
                np.percentile(samples, self.quantile)
            )

    # -- family bookkeeping ------------------------------------------------

    def family_of(self, prompt: Sequence[int]) -> FamilyKey:
        """The family key of ``prompt`` (its leading tokens)."""
        return tuple(int(t) for t in prompt[: self.family_prefix])

    @property
    def num_families(self) -> int:
        """Families with at least one observation."""
        return len(self.families)

    # -- the estimator -----------------------------------------------------

    def predict(
        self, prompt: Sequence[int], cap: Optional[int] = None
    ) -> int:
        """Predicted response length for ``prompt``, in tokens.

        Falls back to the workload prior for unseen families, then to
        ``cap`` itself; always clipped into ``[1, cap]`` when a cap is
        given (a prediction beyond the cap is dead weight — the engine
        stops there regardless).
        """
        self.calibration.predictions += 1
        value = self._estimate(self.family_of(prompt))
        if value is None:
            self.calibration.prior_fallbacks += 1
            if self._prior_length is not None:
                value = self._prior_length
            elif cap is not None:
                value = float(cap)
            else:
                raise ConfigError(
                    "predict() needs a cap when the predictor has "
                    "neither observations for this family nor a prior"
                )
        predicted = max(1, int(round(value)))
        if cap is not None:
            predicted = min(predicted, int(cap))
        return predicted

    def observe(self, prompt: Sequence[int], length: int) -> None:
        """Absorb one observed response length for ``prompt``.

        Scores the pre-update prediction first (see
        :class:`PredictorCalibration`), then updates the family's
        window and EWMA.
        """
        if length < 1:
            raise ConfigError(f"length must be >= 1, got {length}")
        key = self.family_of(prompt)
        before = self._estimate(key)
        if before is None:
            before = self._prior_length
        if before is not None:
            self.calibration.observations += 1
            error = before - float(length)
            self.calibration.abs_error += abs(error)
            if error >= 0:
                self.calibration.overestimates += 1
            else:
                self.calibration.underestimates += 1
            ratio = max(before, 1.0) / max(float(length), 1.0)
            if 1.0 / self.hit_factor <= ratio <= self.hit_factor:
                self.calibration.within_factor += 1
        state = self.families.get(key)
        if state is None:
            state = FamilyEstimate(deque(maxlen=self.window))
            self.families[key] = state
        if len(state.window) == self.window:  # the oldest slides out
            del state.ordered[bisect_left(state.ordered, state.window[0])]
        state.window.append(float(length))
        insort(state.ordered, float(length))
        state.ewma = (
            float(length)
            if state.observations == 0
            else self.ewma_alpha * float(length)
            + (1.0 - self.ewma_alpha) * state.ewma
        )
        state.observations += 1

    def observe_batch(
        self,
        prompts: Sequence[Sequence[int]],
        lengths: Sequence[int],
    ) -> None:
        """Feed one rollout batch's observed lengths back."""
        if len(prompts) != len(lengths):
            raise ConfigError(
                f"prompts/lengths length mismatch: "
                f"{len(prompts)} vs {len(lengths)}"
            )
        for prompt, length in zip(prompts, lengths):
            self.observe(prompt, int(length))

    # -- internals ---------------------------------------------------------

    def _estimate(self, key: FamilyKey) -> Optional[float]:
        """Current family estimate, or None with no observations."""
        state = self.families.get(key)
        if state is None or state.observations == 0:
            return None
        quant = percentile_of_sorted(state.ordered, self.quantile)
        count = len(state.window)
        if count >= self.min_window:
            return quant
        # Thin window: blend toward the EWMA by observation count, so
        # a single early outlier cannot own the family's estimate.
        weight = count / self.min_window
        return weight * quant + (1.0 - weight) * state.ewma


def percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """``np.percentile(ordered, q)`` of an ascending sequence, bit for
    bit: numpy's linear virtual index ``(n - 1) * q / 100`` and its
    ``_lerp`` (``a + d*t`` below ``t = 0.5``, else ``b - d*(1 - t)``)."""
    position = (len(ordered) - 1) * (q / 100.0)
    below = int(position)
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    t, d = position - below, b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)
