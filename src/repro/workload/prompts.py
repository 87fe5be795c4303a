"""Synthetic verifiable tasks — the Eurus-2-RL stand-in.

The paper trains on math/code problems with rule-based verifiers.  The
essential properties for reproducing its system behaviour are (a) rewards
computable from the response alone by a deterministic rule, and (b) tasks
a small policy can genuinely improve on with GRPO.  Two task families:

* :class:`SuccessorChainTask` — reward is the fraction of adjacent token
  pairs forming successor steps (a "show your chain of work" analogue);
  smoothly learnable by a windowed policy, used for the reward-curve
  experiments (Figure 12).
* :class:`PatternCopyTask` — reward for reproducing the prompt tokens;
  maximises cross-rollout similarity, the regime motivating the
  model-free n-gram drafter (§5.3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.llm.vocab import EOS_ID, NUM_SPECIAL_TOKENS, Vocabulary


class Task(abc.ABC):
    """A prompt generator plus rule-based verifier (reward policy)."""

    @abc.abstractmethod
    def generate_prompt(self, rng: np.random.Generator) -> List[int]:
        """Sample one prompt (token ids, no BOS)."""

    @abc.abstractmethod
    def reward(self, prompt: Sequence[int], response: Sequence[int]) -> float:
        """Rule-based reward in [0, 1] for a response to ``prompt``."""

    def reward_batch(
        self,
        prompts: Sequence[Sequence[int]],
        responses: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """Vectorised convenience wrapper over :meth:`reward`."""
        if len(prompts) != len(responses):
            raise ConfigError(
                f"prompts/responses length mismatch: "
                f"{len(prompts)} vs {len(responses)}"
            )
        return np.asarray(
            [self.reward(p, r) for p, r in zip(prompts, responses)],
            dtype=np.float64,
        )


def _strip(response: Sequence[int]) -> List[int]:
    """Response tokens up to (excluding) the first EOS."""
    out: List[int] = []
    for token in response:
        token = int(token)
        if token == EOS_ID:
            break
        out.append(token)
    return out


@dataclass(frozen=True)
class SuccessorChainTask(Task):
    """Reward = fraction of adjacent pairs (a, a+1) in the regular range.

    The successor relation wraps around within the regular-token range, so
    every regular token has a valid successor.  Prompts are
    ``PROMPT_LENGTH`` random regular tokens.  An additive
    ``TERMINAL_BONUS`` rewards clean EOS termination before the cap
    (teaches termination), and full credit
    requires at least ``target_pairs`` correct steps — so policies cannot
    hack the reward with one lucky pair, and response lengths *grow* as
    training progresses (the paper's Figure 2 dynamic).

    Attributes:
        vocab: the shared vocabulary.
        target_pairs: correct successor pairs needed for full chain credit.
    """

    PROMPT_LENGTH = 4
    TERMINAL_BONUS = 0.2

    vocab: Vocabulary
    target_pairs: int = 12

    def __post_init__(self) -> None:
        if self.target_pairs < 1:
            raise ConfigError("target_pairs must be >= 1")

    def generate_prompt(self, rng: np.random.Generator) -> List[int]:
        return self.vocab.random_regular_tokens(
            rng, self.PROMPT_LENGTH
        ).tolist()

    def is_successor(self, first: int, second: int) -> bool:
        """Whether ``second`` follows ``first`` in the wrapped ordering."""
        lo = NUM_SPECIAL_TOKENS
        span = self.vocab.num_regular
        if not (lo <= first < self.vocab.size and
                lo <= second < self.vocab.size):
            return False
        return (first - lo + 1) % span == (second - lo)

    def reward(self, prompt: Sequence[int], response: Sequence[int]) -> float:
        body = _strip(response)
        terminated = len(body) < len(response)
        if len(body) < 2:
            return self.TERMINAL_BONUS if terminated else 0.0
        hits = sum(
            self.is_successor(a, b) for a, b in zip(body, body[1:])
        )
        # Correctness ratio penalises wrong steps; the target_pairs floor
        # penalises chains that are too short for full credit.
        chain_score = hits / max(len(body) - 1, self.target_pairs)
        score = (1.0 - self.TERMINAL_BONUS) * chain_score
        if terminated:
            score += self.TERMINAL_BONUS
        return float(min(score, 1.0))


@dataclass(frozen=True)
class PatternCopyTask(Task):
    """Reward for reproducing the prompt's tokens in order.

    Responses to the same prompt share long common subsequences, which is
    precisely the "sequence similarity across rollouts" the model-free
    drafter exploits.  Prompts are ``PROMPT_LENGTH`` random regular
    tokens, and ``REPEATS`` copies of the prompt earn full reward.

    Attributes:
        vocab: the shared vocabulary.
    """

    PROMPT_LENGTH = 6
    REPEATS = 2

    vocab: Vocabulary

    def generate_prompt(self, rng: np.random.Generator) -> List[int]:
        return self.vocab.random_regular_tokens(
            rng, self.PROMPT_LENGTH
        ).tolist()

    def reward(self, prompt: Sequence[int], response: Sequence[int]) -> float:
        body = _strip(response)
        want = list(prompt) * self.REPEATS
        if not want:
            return 0.0
        hits = sum(
            1 for got, expect in zip(body, want) if int(got) == int(expect)
        )
        return hits / len(want)


@dataclass
class PromptBatch:
    """A GRPO-style batch: each prompt replicated ``group_size`` times.

    Attributes:
        unique_prompts: the distinct prompts.
        group_size: responses to generate per prompt.
    """

    unique_prompts: List[List[int]]
    group_size: int

    @property
    def expanded(self) -> List[List[int]]:
        """Prompts replicated group-wise (group-major order)."""
        out: List[List[int]] = []
        for prompt in self.unique_prompts:
            out.extend([list(prompt)] * self.group_size)
        return out

    @property
    def num_sequences(self) -> int:
        """Total rollout sequences in the batch."""
        return len(self.unique_prompts) * self.group_size


def make_prompt_batch(
    task: Task,
    num_prompts: int,
    group_size: int,
    rng: np.random.Generator,
) -> PromptBatch:
    """Sample a GRPO prompt batch from ``task``."""
    if num_prompts < 1:
        raise ConfigError("num_prompts must be >= 1")
    if group_size < 1:
        raise ConfigError("group_size must be >= 1")
    prompts = [task.generate_prompt(rng) for _ in range(num_prompts)]
    return PromptBatch(unique_prompts=prompts, group_size=group_size)
