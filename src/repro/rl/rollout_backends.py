"""The rollout seam: :class:`RolloutBackend` and the vanilla baseline.

The RL trainer is backend-agnostic.  :class:`VanillaRollout` is plain
autoregressive decoding (the VeRL analogue); the TLT integration point
is the speculative backend one package up,
:class:`repro.longtail.RolloutScheduler` over a
:class:`~repro.serving.frontend.ServingEngine` — a dedicated rollout is
a one-worker pool (``RolloutScheduler(ServingEngine(policy, drafter,
num_workers=1, ...))``), a co-located one shares the serving pool.
Given per-worker :class:`~repro.rollout.adaptive.AdaptiveSdManager`\\ s
instead of a static strategy, the elastic threshold and BEG-MAB
selector are driven by the pool's *real* per-cycle live-batch sizes and
measured accept lengths.  Because speculative decoding is
mathematically lossless, both backends sample responses from the *same*
distribution — which is what makes the Figure 12 reward curves overlap
— while the speculative one needs far fewer target-model launches.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.llm.generation import generate
from repro.llm.model import TinyLM


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
