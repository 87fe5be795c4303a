"""Rollout backends: vanilla and speculative (static or adaptive).

The RL trainer is backend-agnostic; swapping :class:`VanillaRollout` for
:class:`SpeculativeRollout` is the TLT integration point.  Because the SD
engine is mathematically lossless, both backends sample responses from the
*same* distribution — which is what makes the Figure 12 reward curves
overlap — while the speculative backend needs far fewer target-model
forward launches.

:class:`SpeculativeRollout` runs the continuous-batching engine
(:class:`~repro.specdec.batch_engine.BatchedSpecDecodeEngine`): sequences
retire individually and waiting prompts are admitted into freed slots, so
one target launch serves every live sequence per cycle.  Given an
:class:`~repro.rollout.adaptive.AdaptiveSdManager` instead of a static
strategy, the elastic threshold and BEG-MAB selector are driven by the
engine's *real* per-cycle live-batch sizes and measured accept lengths.
Rollouts that ride a shared serving pool are the same interface one
package up: :class:`repro.longtail.RolloutScheduler`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.drafter.base import Drafter
from repro.errors import ConfigError
from repro.llm.generation import generate
from repro.llm.model import TinyLM
from repro.rollout.adaptive import AdaptiveSdManager
from repro.specdec.batch_engine import BatchedSpecDecodeEngine
from repro.specdec.strategy import SdStrategy


@dataclass
class RolloutResult:
    """Backend-independent rollout output.

    Attributes:
        prompts: prompts as decoded (BOS included).
        responses: response token lists.
        finished: per-sequence EOS flag.
        target_steps: target-model forward launches consumed.
        stats: backend-specific extras (e.g. accept lengths).
    """

    prompts: List[List[int]]
    responses: List[List[int]]
    finished: List[bool]
    target_steps: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def full_sequences(self) -> List[List[int]]:
        """Prompt + response per sequence."""
        return [p + r for p, r in zip(self.prompts, self.responses)]

    @property
    def response_lengths(self) -> List[int]:
        """Token count of each response."""
        return [len(r) for r in self.responses]


class RolloutBackend(abc.ABC):
    """Generates rollout responses for the RL trainer."""

    name: str = "backend"

    @abc.abstractmethod
    def generate(
        self,
        policy: TinyLM,
        prompts: Sequence[Sequence[int]],
        max_new_tokens: int,
        temperature: float,
        rng: np.random.Generator,
    ) -> RolloutResult:
        """Generate one batch of responses."""


class VanillaRollout(RolloutBackend):
    """Plain autoregressive decoding (the VeRL-style baseline)."""

    name = "vanilla"

    def generate(self, policy, prompts, max_new_tokens, temperature, rng):
        out = generate(
            policy, prompts, max_new_tokens, temperature, rng
        )
        return RolloutResult(
            prompts=out.prompts,
            responses=out.responses,
            finished=out.finished,
            target_steps=out.model_steps,
            stats={},
        )


class SpeculativeRollout(RolloutBackend):
    """Speculative-decoding rollout on a private continuous-batching engine.

    One :class:`~repro.specdec.batch_engine.BatchedSpecDecodeEngine` per
    rollout batch, configured the engine's own way: a static
    ``strategy`` every cycle, XOR an adaptive ``manager`` (full TLT).
    Under a manager the engine reports its live-batch size every cycle:
    above the elastic activation threshold the batch decodes vanilla
    (one batched forward per token), below it the manager's BEG-MAB
    selector picks the strategy and absorbs the cycle's *measured*
    accept lengths — the algorithmic counterpart of the paper's Figure
    14 dynamics.  Finished responses are fed back into a model-free
    drafter's retrieval database after every batch.

    Args:
        drafter: the draft model (learned or model-free); shared across
            steps so spot training between steps improves later rollouts.
        strategy: static SD configuration.
        manager: adaptive manager (threshold, strategy pool, selector);
            it keeps its bandit state across rollouts — the
            non-stationary setting BEG-MAB targets.
        child_mode: tree child expansion mode (``sample`` = lossless).
        max_batch_size: live-slot capacity of the scheduler.
    """

    name = "speculative"

    def __init__(
        self,
        drafter: Drafter,
        strategy: Optional[SdStrategy] = None,
        manager: Optional[AdaptiveSdManager] = None,
        child_mode: str = "sample",
        max_batch_size: Optional[int] = None,
    ) -> None:
        if (strategy is None) == (manager is None):
            raise ConfigError(
                "pass exactly one of a static strategy or an adaptive "
                "manager"
            )
        self.drafter = drafter
        self.strategy = strategy
        self.manager = manager
        self.child_mode = child_mode
        self.max_batch_size = max_batch_size

    def swap_drafter(self, drafter: Drafter) -> None:
        """Adopt refreshed drafter weights for subsequent rollouts.

        The RL-side counterpart of the serving pool's rolling hot swap
        (:meth:`repro.serving.frontend.ServingEngine.swap_drafter`):
        the spot trainer publishes a snapshot between RL steps
        (:meth:`repro.spot.trainer.SpotTrainer.snapshot_drafter`) and
        the next ``generate`` call speculates with it.
        """
        self.drafter = drafter

    def generate(self, policy, prompts, max_new_tokens, temperature, rng):
        manager = self.manager
        engine = BatchedSpecDecodeEngine(
            policy,
            self.drafter,
            self.strategy,
            temperature,
            child_mode=self.child_mode,  # type: ignore[arg-type]
            max_batch_size=self.max_batch_size,
            sd_manager=manager,
        )
        activations_before = manager.activations if manager else 0
        result = engine.generate(prompts, max_new_tokens, rng)
        responses = [slot.response for slot in result.slots]
        if not self.drafter.trainable:
            self.drafter.observe_rollouts(responses)
        metrics = result.metrics
        stats = {
            "accept_length": metrics.mean_accept_length,
            "cycles": float(metrics.num_cycles),
            "draft_efficiency": metrics.draft_efficiency,
            "sd_cycles": float(result.sd_cycles),
            "vanilla_cycles": float(result.vanilla_cycles),
            "max_live_batch": float(result.max_live_batch),
        }
        if manager is not None:
            stats["sd_activations"] = float(
                manager.activations - activations_before
            )
        return RolloutResult(
            prompts=[slot.request.prompt for slot in result.slots],
            responses=responses,
            finished=[slot.done for slot in result.slots],
            target_steps=result.target_steps,
            stats=stats,
        )
