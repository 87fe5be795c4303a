"""Tests for vanilla autoregressive generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.llm import generate
from repro.llm.vocab import BOS_ID, EOS_ID


class TestGenerate:
    def test_respects_max_tokens(self, target):
        rng = np.random.default_rng(0)
        out = generate(
            target, [[5, 6]], max_new_tokens=10, temperature=1.0, rng=rng
        )
        assert len(out.responses[0]) <= 10

    def test_bos_prepended(self, target):
        rng = np.random.default_rng(0)
        out = generate(
            target, [[5]], max_new_tokens=3, temperature=1.0, rng=rng
        )
        assert out.prompts[0][0] == BOS_ID

    def test_finished_iff_eos(self, target):
        rng = np.random.default_rng(1)
        out = generate(
            target,
            [[4, 5]] * 8,
            max_new_tokens=40,
            temperature=1.0,
            rng=rng,
        )
        for resp, fin in zip(out.responses, out.finished):
            assert fin == (bool(resp) and resp[-1] == EOS_ID)

    def test_nothing_after_eos(self, target):
        rng = np.random.default_rng(2)
        out = generate(
            target,
            [[4, 5]] * 8,
            max_new_tokens=60,
            temperature=1.0,
            rng=rng,
        )
        for resp in out.responses:
            if EOS_ID in resp:
                assert resp.index(EOS_ID) == len(resp) - 1

    def test_steps_equal_longest_response(self, target):
        rng = np.random.default_rng(3)
        out = generate(
            target,
            [[4], [9, 10]],
            max_new_tokens=30,
            temperature=1.0,
            rng=rng,
        )
        assert out.model_steps == max(out.response_lengths)

    def test_greedy_deterministic(self, target):
        a = generate(
            target,
            [[7, 8]],
            max_new_tokens=12,
            temperature=0.0,
            rng=np.random.default_rng(0),
        )
        b = generate(
            target,
            [[7, 8]],
            max_new_tokens=12,
            temperature=0.0,
            rng=np.random.default_rng(999),
        )
        assert a.responses == b.responses

    def test_record_probs(self, target):
        rng = np.random.default_rng(4)
        out = generate(
            target,
            [[5, 6]],
            max_new_tokens=5,
            temperature=1.0,
            rng=rng,
            record_probs=True,
        )
        assert len(out.chosen_probs[0]) == len(out.responses[0])
        assert all(0 < p <= 1 for p in out.chosen_probs[0])

    def test_empty_prompts_raise(self, target):
        with pytest.raises(GenerationError):
            generate(
                target,
                [],
                max_new_tokens=5,
                temperature=1.0,
                rng=np.random.default_rng(0),
            )

    def test_bad_max_tokens(self, target):
        with pytest.raises(GenerationError):
            generate(
                target,
                [[5]],
                max_new_tokens=0,
                temperature=1.0,
                rng=np.random.default_rng(0),
            )

    def test_full_sequences_concatenation(self, target):
        rng = np.random.default_rng(5)
        out = generate(
            target, [[5, 6]], max_new_tokens=4, temperature=1.0, rng=rng
        )
        assert out.full_sequences[0] == out.prompts[0] + out.responses[0]

    def test_total_response_tokens(self, target):
        rng = np.random.default_rng(6)
        out = generate(
            target,
            [[5], [6]],
            max_new_tokens=8,
            temperature=1.0,
            rng=rng,
        )
        assert out.total_response_tokens == sum(out.response_lengths)

