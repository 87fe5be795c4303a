"""Tests for synthetic-corpus pretraining."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.llm import TinyLM, TinyLMConfig
from repro.llm.pretrain import (
    pretrain_on_sequences,
    pretrained_target,
    synthetic_corpus,
)
from repro.llm.vocab import BOS_ID, EOS_ID, NUM_SPECIAL_TOKENS


class TestCorpus:
    def test_shapes_and_tokens(self):
        corpus = synthetic_corpus(
            16, 10, 20, np.random.default_rng(0)
        )
        assert len(corpus) == 10
        for seq in corpus:
            assert seq[0] == BOS_ID
            assert all(0 <= t < 16 for t in seq)

    def test_chain_structure_present(self):
        corpus = synthetic_corpus(
            16, 20, 40, np.random.default_rng(0), chain_prob=1.0
        )
        lo = NUM_SPECIAL_TOKENS
        span = 16 - lo
        for seq in corpus:
            body = seq[1:-1] if seq[-1] == EOS_ID else seq[1:]
            for a, b in zip(body, body[1:]):
                assert (a - lo + 1) % span == (b - lo)

    def test_eos_terminates(self):
        corpus = synthetic_corpus(
            16, 30, 40, np.random.default_rng(0)
        )
        assert any(seq[-1] == EOS_ID for seq in corpus)

    def test_validation(self):
        with pytest.raises(ConfigError):
            synthetic_corpus(16, 0, 20, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            synthetic_corpus(
                16, 1, 20, np.random.default_rng(0), chain_prob=2.0
            )


class TestPretraining:
    def test_loss_decreases(self):
        cfg = TinyLMConfig(
            vocab_size=16, hidden_size=12, context_window=3,
            num_layers=2,
        )
        model = TinyLM(cfg, np.random.default_rng(0))
        corpus = synthetic_corpus(16, 24, 30, np.random.default_rng(1))
        report = pretrain_on_sequences(model, corpus, epochs=40)
        assert report.final_loss < report.initial_loss

    def test_model_becomes_predictable(self):
        """After pretraining on deterministic chains the model's greedy
        prediction follows the successor function."""
        cfg = TinyLMConfig(
            vocab_size=16, hidden_size=16, context_window=3,
            num_layers=2,
        )
        rng = np.random.default_rng(0)
        model = TinyLM(cfg, rng)
        corpus = synthetic_corpus(
            16, 48, 40, rng, chain_prob=1.0
        )
        pretrain_on_sequences(model, corpus, epochs=150)
        lo = NUM_SPECIAL_TOKENS
        span = 16 - lo
        hits = 0
        for start in range(lo, 16):
            seq = [BOS_ID, start,
                   lo + (start - lo + 1) % span]
            logits = model.forward(
                np.asarray([seq], dtype=np.int64)
            ).logits
            predicted = int(np.argmax(logits[0, -1]))
            expected = lo + (seq[-1] - lo + 1) % span
            hits += predicted == expected
        assert hits >= 0.7 * span

    def test_too_short_sequences_raise(self):
        cfg = TinyLMConfig(vocab_size=16, hidden_size=8)
        model = TinyLM(cfg, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            pretrain_on_sequences(model, [[1]], epochs=1)

    def test_pretrained_target_convenience(self):
        cfg = TinyLMConfig(
            vocab_size=16, hidden_size=8, context_window=3,
            num_layers=2,
        )
        model = pretrained_target(
            cfg, np.random.default_rng(0), corpus_sequences=12,
            corpus_length=20, epochs=10,
        )
        assert model.config.vocab_size == 16
