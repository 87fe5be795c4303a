"""Tests for synthetic verifiable tasks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.llm.vocab import EOS_ID, NUM_SPECIAL_TOKENS, Vocabulary
from repro.workload import (
    PatternCopyTask,
    SuccessorChainTask,
    make_prompt_batch,
)


@pytest.fixture()
def vocab():
    return Vocabulary(24)


class TestSuccessorChain:
    def test_perfect_chain_full_reward(self, vocab):
        task = SuccessorChainTask(vocab=vocab, target_pairs=4)
        lo = NUM_SPECIAL_TOKENS
        response = [lo, lo + 1, lo + 2, lo + 3, lo + 4, EOS_ID]
        assert task.reward([lo], response) == pytest.approx(1.0)

    def test_wraparound_successor(self, vocab):
        task = SuccessorChainTask(vocab=vocab)
        hi = vocab.size - 1
        lo = NUM_SPECIAL_TOKENS
        assert task.is_successor(hi, lo)

    def test_no_termination_loses_bonus(self, vocab):
        task = SuccessorChainTask(vocab=vocab, target_pairs=2)
        lo = NUM_SPECIAL_TOKENS
        with_eos = task.reward([lo], [lo, lo + 1, lo + 2, EOS_ID])
        without = task.reward([lo], [lo, lo + 1, lo + 2])
        assert with_eos > without

    def test_short_chain_partial_credit(self, vocab):
        task = SuccessorChainTask(vocab=vocab, target_pairs=10)
        lo = NUM_SPECIAL_TOKENS
        short = task.reward([lo], [lo, lo + 1, EOS_ID])
        long = task.reward(
            [lo], [lo + i for i in range(11)] + [EOS_ID]
        )
        assert long > short

    def test_wrong_tokens_no_chain_credit(self, vocab):
        task = SuccessorChainTask(vocab=vocab)
        lo = NUM_SPECIAL_TOKENS
        assert task.reward([lo], [lo, lo + 5, lo + 9]) == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_reward_bounded(self, seed):
        vocab = Vocabulary(24)
        task = SuccessorChainTask(vocab=vocab)
        rng = np.random.default_rng(seed)
        prompt = task.generate_prompt(rng)
        response = rng.integers(0, 24, size=rng.integers(1, 30)).tolist()
        assert 0.0 <= task.reward(prompt, response) <= 1.0

    def test_prompt_tokens_regular(self, vocab):
        task = SuccessorChainTask(vocab=vocab)
        prompt = task.generate_prompt(np.random.default_rng(0))
        assert all(t >= NUM_SPECIAL_TOKENS for t in prompt)


class TestPatternCopy:
    def test_exact_copy_full_reward(self, vocab):
        task = PatternCopyTask(vocab=vocab)
        prompt = [5, 6, 7]
        assert task.reward(prompt, prompt * task.REPEATS + [EOS_ID]) == 1.0

    def test_partial_copy(self, vocab):
        task = PatternCopyTask(vocab=vocab)
        assert task.REPEATS == 2
        assert task.reward([5, 6], [5, 9, 5, 9]) == pytest.approx(0.5)

    def test_rollout_similarity(self, vocab):
        """Optimal responses to the same prompt are identical — the
        regime motivating the model-free drafter."""
        task = PatternCopyTask(vocab=vocab)
        prompt = task.generate_prompt(np.random.default_rng(0))
        assert len(prompt) == task.PROMPT_LENGTH
        best = list(prompt) * task.REPEATS
        assert task.reward(prompt, best) == 1.0


class TestPromptBatch:
    def test_expansion_group_major(self, vocab):
        task = SuccessorChainTask(vocab=vocab)
        batch = make_prompt_batch(
            task, num_prompts=3, group_size=4, rng=np.random.default_rng(0)
        )
        expanded = batch.expanded
        assert len(expanded) == 12
        assert expanded[0] == expanded[3]
        assert batch.num_sequences == 12

    def test_reward_batch_length_check(self, vocab):
        task = SuccessorChainTask(vocab=vocab)
        with pytest.raises(ConfigError):
            task.reward_batch([[1]], [[1], [2]])

    def test_validation(self, vocab):
        task = SuccessorChainTask(vocab=vocab)
        with pytest.raises(ConfigError):
            make_prompt_batch(task, 0, 1, np.random.default_rng(0))
