"""Fluid rollout simulator with elastic adaptive SD (paper Figure 14).

Simulates one rollout instance (worker) decoding a batch of requests with
continuous batching.  Between request completions the active batch is
constant, so the simulation advances completion-to-completion:

* while the active batch is above the SD threshold, vanilla decoding at
  the roofline's batched step latency;
* once the batch shrinks to the threshold, SD engages (paying the switch
  overhead once) and each cycle commits ``accept_length`` tokens at the
  roofline's SD cycle latency, with the strategy re-selected by the
  manager's bandit as the batch keeps shrinking.

The produced timeline is exactly the running-request profile the paper's
Figure 14 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.hardware.gpus import ModelSpec, drafter_spec
from repro.hardware.roofline import RooflineModel
from repro.rollout.adaptive import AdaptiveSdManager

#: Prompt length per simulated request (prefill + KV).
PROMPT_TOKENS = 512


@dataclass(frozen=True)
class TimelinePoint:
    """One step of the running-request profile.

    Attributes:
        time_s: simulation time.
        active_requests: requests still decoding at this time.
        sd_active: whether speculative decoding was engaged.
    """

    time_s: float
    active_requests: int
    sd_active: bool


@dataclass
class RolloutTimeline:
    """Result of simulating one rollout instance.

    Attributes:
        points: running-request profile (completion boundaries).
        total_time_s: wall-clock of the rollout.
        sd_start_s: when SD engaged (None = never).
        total_tokens: generated tokens across requests.
        prompt_tokens: prompt tokens across requests.
        sd_cycles: speculative cycles executed.
        vanilla_steps: vanilla decode steps executed.
        decode_time_s / sd_time_s: time split between the two regimes.
    """

    points: List[TimelinePoint]
    total_time_s: float
    sd_start_s: Optional[float]
    total_tokens: int
    prompt_tokens: int
    sd_cycles: float
    vanilla_steps: float
    decode_time_s: float
    sd_time_s: float


class RolloutEngine:
    """Continuous-batching rollout simulator for one worker.

    Args:
        roofline: target-model cost model for this worker's placement.
        sd_manager: adaptive SD manager, or None for vanilla decoding.
        drafter: drafter spec (defaults to the EAGLE drafter derived from
            the roofline's target model).
    """

    def __init__(
        self,
        roofline: RooflineModel,
        sd_manager: Optional[AdaptiveSdManager] = None,
        drafter: Optional[ModelSpec] = None,
    ) -> None:
        self.roofline = roofline
        self.sd_manager = sd_manager
        self.drafter = drafter or drafter_spec(roofline.model)

    def simulate(self, lengths: Sequence[int]) -> RolloutTimeline:
        """Simulate decoding ``lengths`` to completion, each request
        behind a ``PROMPT_TOKENS`` prompt.

        Args:
            lengths: response length (tokens) per request.

        Returns:
            A :class:`RolloutTimeline`.
        """
        lens = sorted(int(v) for v in lengths)
        if not lens:
            raise ConfigError("lengths must be non-empty")
        if lens[0] < 1:
            raise ConfigError("response lengths must be >= 1")
        n = len(lens)
        if self.sd_manager is not None:
            self.sd_manager.reset()

        time_s = self.roofline.prefill_s(n, PROMPT_TOKENS)
        points: List[TimelinePoint] = [TimelinePoint(time_s, n, False)]
        sd_start: Optional[float] = None
        generated = 0
        completed = 0
        sd_cycles = 0.0
        vanilla_steps = 0.0
        decode_time = 0.0
        sd_time = 0.0

        while completed < n:
            batch = n - completed
            target_len = lens[completed]
            delta = target_len - generated
            if delta > 0:
                context = PROMPT_TOKENS + generated + delta / 2.0
                step_s = self.roofline.decode_step_s(
                    batch, context_tokens=context
                )
                use_sd = (
                    self.sd_manager is not None
                    and self.sd_manager.should_use_sd(batch)
                )
                if use_sd:
                    assert self.sd_manager is not None
                    strategy = self.sd_manager.select_strategy(batch)
                    accept = self.sd_manager.accept_length(strategy, batch)
                    cycle_s = self.roofline.sd_cycle_s(
                        self.drafter,
                        batch,
                        strategy.draft_depth,
                        strategy.topk,
                        strategy.tokens_to_verify,
                        context_tokens=context,
                    )
                    # The manager balances "speculative gains against
                    # computational overhead" (§5.1): fall back to vanilla
                    # decoding whenever SD would not pay at this batch.
                    if accept / cycle_s <= 1.0 / step_s:
                        use_sd = False
                if use_sd:
                    assert self.sd_manager is not None
                    # Feed the bandit only cycles that actually execute;
                    # measurements for skipped cycles would bias the
                    # strategy selection toward unpayable arms.
                    self.sd_manager.record(
                        strategy, cycle_s, [accept - 1.0] * batch, batch
                    )
                    switch = self.sd_manager.engage(batch)
                    if sd_start is None:
                        sd_start = time_s
                    if switch > 0.0:
                        time_s += switch
                        sd_time += switch
                    cycles = delta / accept
                    elapsed = cycles * cycle_s
                    sd_cycles += cycles
                    sd_time += elapsed
                else:
                    elapsed = delta * step_s
                    vanilla_steps += delta
                    decode_time += elapsed
                time_s += elapsed
                generated = target_len
            # Retire every request finishing at this length.
            while completed < n and lens[completed] == generated:
                completed += 1
            points.append(
                TimelinePoint(
                    time_s,
                    n - completed,
                    sd_start is not None,
                )
            )

        return RolloutTimeline(
            points=points,
            total_time_s=time_s,
            sd_start_s=sd_start,
            total_tokens=sum(lens),
            prompt_tokens=PROMPT_TOKENS * n,
            sd_cycles=sd_cycles,
            vanilla_steps=vanilla_steps,
            decode_time_s=decode_time,
            sd_time_s=sd_time,
        )
