"""Tests for the end-to-end speculative generation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter.ngram import NgramDrafter, NgramDrafterConfig
from repro.errors import SpecDecodeError
from repro.llm import TinyLM, TinyLMConfig, generate
from repro.llm.model import contexts_from_sequences
from repro.llm.sampler import temperature_probs
from repro.llm.vocab import EOS_ID
from repro.specdec import SdStrategy, speculative_generate


@pytest.fixture()
def strategy():
    return SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


class TestSpeculativeGenerate:
    def test_respects_cap(self, target, trained_drafter, strategy):
        rng = np.random.default_rng(0)
        out = speculative_generate(
            target, trained_drafter, [[5, 6]], max_new_tokens=8,
            temperature=0.9, rng=rng, strategy=strategy,
        )
        assert len(out.responses[0]) <= 8

    def test_nothing_after_eos(self, target, trained_drafter, strategy):
        rng = np.random.default_rng(1)
        out = speculative_generate(
            target, trained_drafter, [[5, 6]] * 6, max_new_tokens=60,
            temperature=0.9, rng=rng, strategy=strategy,
        )
        for resp in out.responses:
            if EOS_ID in resp:
                assert resp.index(EOS_ID) == len(resp) - 1

    def test_finished_flags(self, target, trained_drafter, strategy):
        rng = np.random.default_rng(2)
        out = speculative_generate(
            target, trained_drafter, [[5, 6]] * 6, max_new_tokens=60,
            temperature=0.9, rng=rng, strategy=strategy,
        )
        for resp, fin in zip(out.responses, out.finished):
            assert fin == (bool(resp) and resp[-1] == EOS_ID)

    def test_fewer_target_steps_than_tokens(
        self, target, trained_drafter, strategy
    ):
        """The whole point of SD: fewer target launches than tokens."""
        rng = np.random.default_rng(3)
        out = speculative_generate(
            target, trained_drafter, [[5, 6, 7]], max_new_tokens=40,
            temperature=0.9, rng=rng, strategy=strategy,
        )
        total = sum(out.response_lengths)
        if total > 10:  # only meaningful for non-trivial generations
            assert out.target_steps < total + 2

    def test_accept_length_at_least_one(
        self, target, untrained_drafter, strategy
    ):
        rng = np.random.default_rng(4)
        out = speculative_generate(
            target, untrained_drafter, [[5, 6]] * 4, max_new_tokens=30,
            temperature=0.9, rng=rng, strategy=strategy,
        )
        assert out.metrics.mean_accept_length >= 1.0

    def test_trained_beats_untrained_accept_length(
        self, target, trained_drafter, untrained_drafter, strategy
    ):
        # Lower temperature sharpens the target distribution, where an
        # aligned drafter clearly separates from a random one.
        prompts = [[5, 6, 7], [9, 10, 11], [4, 8, 12], [13, 14, 15]] * 4
        out_t = speculative_generate(
            target, trained_drafter, prompts, max_new_tokens=40,
            temperature=0.5, rng=np.random.default_rng(5),
            strategy=strategy,
        )
        out_u = speculative_generate(
            target, untrained_drafter, prompts, max_new_tokens=40,
            temperature=0.5, rng=np.random.default_rng(5),
            strategy=strategy,
        )
        assert (
            out_t.metrics.mean_accept_length
            > out_u.metrics.mean_accept_length
        )

    def test_bad_max_tokens(self, target, trained_drafter, strategy):
        with pytest.raises(SpecDecodeError):
            speculative_generate(
                target, trained_drafter, [[5]], max_new_tokens=0,
                temperature=0.9, rng=np.random.default_rng(0),
                strategy=strategy,
            )

    def test_greedy_matches_vanilla_exactly(
        self, target, trained_drafter, strategy
    ):
        """Greedy speculative output must equal greedy vanilla decoding."""
        vanilla = generate(
            target, [[9, 10, 11]], max_new_tokens=25, temperature=0.0,
            rng=np.random.default_rng(0),
        )
        sd = speculative_generate(
            target, trained_drafter, [[9, 10, 11]], max_new_tokens=25,
            temperature=0.0, rng=np.random.default_rng(1),
            strategy=strategy, child_mode="topk",
        )
        assert sd.responses == vanilla.responses


@pytest.fixture(params=["eagle", "ngram"])
def chain_drafter(request, target, trained_drafter, rollout_sequences):
    if request.param == "eagle":
        return trained_drafter
    drafter = NgramDrafter(
        NgramDrafterConfig(vocab_size=target.config.vocab_size)
    )
    drafter.observe_rollouts(rollout_sequences)
    return drafter


class TestChainStrategy:
    """A chain is the ``topk=1`` tree: ``SdStrategy(d, 1, d)``."""

    CHAIN = SdStrategy(draft_depth=4, topk=1, tokens_to_verify=4)
    PROMPTS = [[5, 6], [9, 10, 11], [4, 8, 12], [13, 14]]

    def _run(self, target, drafter, temperature, max_batch_size):
        return speculative_generate(
            target, drafter, self.PROMPTS, max_new_tokens=20,
            temperature=temperature, rng=np.random.default_rng(6),
            strategy=self.CHAIN, max_batch_size=max_batch_size,
        )

    def test_chain_mode(self, target, chain_drafter):
        out = self._run(target, chain_drafter, 0.9, None)
        assert out.metrics.mean_accept_length >= 1.0
        for cycle in out.metrics.cycles:
            assert cycle.accepted <= cycle.drafted <= 4
            assert cycle.committed <= cycle.accepted + 1
            assert cycle.verify_batch == cycle.drafted + 1

    def test_sequential_equals_batched(self, target, chain_drafter):
        sequential = self._run(target, chain_drafter, 0.9, 1)
        batched = self._run(target, chain_drafter, 0.9, None)
        assert batched.responses == sequential.responses
        assert batched.finished == sequential.finished

    def test_greedy_matches_vanilla(self, target, chain_drafter):
        vanilla = generate(
            target, self.PROMPTS, max_new_tokens=20, temperature=0.0,
            rng=np.random.default_rng(0),
        )
        sd = self._run(target, chain_drafter, 0.0, None)
        assert sd.responses == vanilla.responses


class TestLosslessnessStatistical:
    def test_two_token_joint_matches_analytic(
        self, target, untrained_drafter
    ):
        """Joint dist of the first two generated tokens ~ analytic."""
        temperature = 0.8
        prompt = [5, 7]
        prefix = [1, 5, 7]  # BOS prepended by the engine
        k = target.config.context_window

        def p_next(seq):
            ctx = contexts_from_sequences([seq], k)
            logits, _ = target.step(ctx)
            return temperature_probs(logits[0], temperature)

        v = target.config.vocab_size
        p1 = p_next(prefix)
        analytic = {(EOS_ID,): p1[EOS_ID]}
        for a in range(v):
            if a == EOS_ID:
                continue
            p2 = p_next(prefix + [a])
            for b in range(v):
                analytic[(a, b)] = p1[a] * p2[b]

        strategy = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
        n = 5000
        counts: dict = {}
        rng = np.random.default_rng(17)
        for _ in range(n):
            out = speculative_generate(
                target, untrained_drafter, [prompt], max_new_tokens=2,
                temperature=temperature, rng=rng, strategy=strategy,
            )
            key = tuple(out.responses[0])
            counts[key] = counts.get(key, 0) + 1

        keys = list(analytic)
        expected = np.array([analytic[key] * n for key in keys])
        observed = np.array(
            [counts.get(key, 0) for key in keys], dtype=float
        )
        mask = expected >= 5
        obs = np.append(observed[mask], observed[~mask].sum())
        exp = np.append(expected[mask], expected[~mask].sum())
        exp *= obs.sum() / exp.sum()
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        dof = len(obs) - 1
        # Very loose bound: mean + 6*sqrt(2*dof) covers far past 99.99%.
        assert chi2 < dof + 6 * np.sqrt(2 * dof), f"chi2={chi2:.1f} dof={dof}"
