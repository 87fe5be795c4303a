"""What a rollout hands the RL trainer: :class:`RolloutResult`.

The trainer decodes nothing itself.  Rollouts ride a serving pool one
package up (:class:`repro.longtail.RolloutScheduler`, the trainer's
backend) or are injected with ``step(rollout=..., prompts=...)``.  With
a drafter the pool speculates (TLT); with no drafter or strategy SD is
off and every cycle decodes vanilla (the VeRL analogue).  Both draw one
seed per request from the trainer's generator, so the two arms of
Figure 12 are paired, and speculative decoding is lossless: they sample
the same distribution, the speculative one in far fewer launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class RolloutResult:
    """One rollout batch, as the trainer consumes it.

    Attributes:
        prompts: prompts as decoded (BOS included).
        responses: response token lists.
        finished: per-sequence EOS flag.
        target_steps: target-model forward launches consumed.
        stats: pool extras (ticks, preemptions, prefill counters).
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
