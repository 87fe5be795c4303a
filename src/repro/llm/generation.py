"""Batched autoregressive sampling: the training-corpus builder.

One target forward per token over a batch sharing one generator.  It
builds the corpora drafters and substrates are trained on; rollouts,
vanilla included, decode on a serving pool
(:class:`~repro.serving.frontend.ServingEngine`, SD off with no drafter
or strategy), whose requests draw from private seeded streams instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.errors import GenerationError
from repro.llm.model import TinyLM, contexts_from_sequences
from repro.llm.sampler import sample_from_probs, temperature_probs
from repro.llm.vocab import BOS_ID, EOS_ID


@dataclass
class GenerationOutput:
    """Result of a batched generation call.

    Attributes:
        prompts: the input prompts, BOS prepended.
        responses: generated tokens per sequence, including the terminal EOS
            when one was emitted.
        finished: per-sequence flag — True when EOS terminated generation,
            False when the length cap was hit.
        model_steps: number of target-model forward steps executed (the
            vanilla-decoding cost measure; each step serves every unfinished
            sequence in the batch).
        chosen_probs: per-sequence probability of each sampled token under
            the post-temperature distribution (same length as responses).
    """

    prompts: List[List[int]]
    responses: List[List[int]]
    finished: List[bool]
    model_steps: int
    chosen_probs: List[List[float]] = field(default_factory=list)

    @property
    def full_sequences(self) -> List[List[int]]:
        """Prompt + response per sequence."""
        return [p + r for p, r in zip(self.prompts, self.responses)]

    @property
    def response_lengths(self) -> List[int]:
        """Token count of each response."""
        return [len(r) for r in self.responses]

    @property
    def total_response_tokens(self) -> int:
        """Sum of response lengths across the batch."""
        return sum(self.response_lengths)


def generate(
    model: TinyLM,
    prompts: Sequence[Sequence[int]],
    max_new_tokens: int,
    temperature: float,
    rng: np.random.Generator,
    record_probs: bool = False,
) -> GenerationOutput:
    """Vanilla batched autoregressive generation.

    Args:
        model: the target model.
        prompts: token-id prompts (one list per sequence).
        max_new_tokens: per-sequence response-length cap.
        temperature: sampling temperature (0 = greedy).
        rng: random generator consumed one uniform per active sequence per
            step.
        record_probs: also return the sampled tokens' probabilities.

    Returns:
        A :class:`GenerationOutput`.
    """
    if max_new_tokens < 1:
        raise GenerationError(
            f"max_new_tokens must be >= 1, got {max_new_tokens}"
        )
    if not prompts:
        raise GenerationError("prompts must be non-empty")
    prompt_lists = [[BOS_ID] + list(map(int, p)) for p in prompts]
    batch = len(prompt_lists)
    sequences = [list(p) for p in prompt_lists]
    responses: List[List[int]] = [[] for _ in range(batch)]
    probs_out: List[List[float]] = [[] for _ in range(batch)]
    active = np.ones(batch, dtype=bool)
    context = contexts_from_sequences(sequences, model.config.context_window)

    steps = 0
    for _ in range(max_new_tokens):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        logits, _ = model.step(context[idx])
        probs = temperature_probs(logits, temperature)
        tokens = sample_from_probs(probs, rng)
        steps += 1
        for pos, (row, tok) in enumerate(zip(idx, tokens)):
            tok = int(tok)
            responses[row].append(tok)
            sequences[row].append(tok)
            if record_probs:
                probs_out[row].append(float(probs[pos][tok]))
            if tok == EOS_ID:
                active[row] = False
        # Refresh trailing windows only for still-active sequences.
        context = contexts_from_sequences(
            sequences, model.config.context_window
        )

    finished = [resp[-1] == EOS_ID if resp else False for resp in responses]
    return GenerationOutput(
        prompts=prompt_lists,
        responses=responses,
        finished=finished,
        model_steps=steps,
        chosen_probs=probs_out if record_probs else [],
    )

