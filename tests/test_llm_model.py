"""Tests for the TinyLM substrate: shapes, windows, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, GenerationError
from repro.llm import ParamSet, TinyLM, TinyLMConfig, softmax
from repro.llm.model import contexts_from_sequences
from repro.llm.vocab import PAD_ID


@pytest.fixture()
def model() -> TinyLM:
    cfg = TinyLMConfig(
        vocab_size=16, hidden_size=8, context_window=3, num_layers=3
    )
    return TinyLM(cfg, np.random.default_rng(0))


class TestConfigValidation:
    def test_vocab_too_small(self):
        with pytest.raises(ConfigError):
            TinyLMConfig(vocab_size=2)

    def test_bad_hidden(self):
        with pytest.raises(ConfigError):
            TinyLMConfig(hidden_size=0)

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            TinyLMConfig(context_window=0)

    def test_bad_layers(self):
        with pytest.raises(ConfigError):
            TinyLMConfig(num_layers=0)

    def test_bad_init_scale(self):
        with pytest.raises(ConfigError):
            TinyLMConfig(init_scale=0.0)


class TestForward:
    def test_shapes(self, model):
        tokens = np.zeros((2, 5), dtype=int)
        result = model.forward(tokens)
        assert result.logits.shape == (2, 5, 16)
        assert len(result.hiddens) == 3
        assert result.last_hidden.shape == (2, 5, 8)

    def test_rejects_1d(self, model):
        with pytest.raises(GenerationError):
            model.forward(np.zeros(5, dtype=int))

    def test_cache_only_when_requested(self, model):
        tokens = np.zeros((1, 4), dtype=int)
        assert model.forward(tokens).cache is None
        assert model.forward(tokens, keep_cache=True).cache is not None

    def test_causality(self, model):
        """Changing a future token must not affect earlier logits."""
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 16, size=(1, 6))
        base = model.forward(tokens).logits
        tokens2 = tokens.copy()
        tokens2[0, 5] = (tokens2[0, 5] + 1) % 16
        changed = model.forward(tokens2).logits
        assert np.allclose(base[0, :5], changed[0, :5])

    def test_window_limit(self, model):
        """Tokens beyond the context window have no influence."""
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, 16, size=(1, 6))
        base = model.forward(tokens).logits
        tokens2 = tokens.copy()
        tokens2[0, 0] = (tokens2[0, 0] + 1) % 16
        changed = model.forward(tokens2).logits
        # Window = 3, so position 0 only affects logits at positions 0..2.
        assert np.allclose(base[0, 3:], changed[0, 3:])
        assert not np.allclose(base[0, 0], changed[0, 0])

    def test_step_matches_forward(self, model):
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 16, size=(2, 5))
        full = model.forward(tokens)
        ctx = tokens[:, -3:]
        logits, hiddens = model.step(ctx)
        assert np.allclose(logits, full.logits[:, -1, :])
        assert np.allclose(hiddens[-1], full.hiddens[-1][:, -1, :])

    def test_step_shape_validation(self, model):
        with pytest.raises(GenerationError):
            model.step(np.zeros((2, 5), dtype=int))


class TestBackward:
    def test_gradient_check(self, model):
        """Analytic gradients match finite differences for a CE loss."""
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 16, size=(2, 4))
        targets = rng.integers(0, 16, size=(2, 4))

        def loss():
            probs = softmax(model.forward(tokens).logits)
            idx = (
                np.arange(2)[:, None],
                np.arange(4)[None, :],
                targets,
            )
            return -float(np.sum(np.log(probs[idx])))

        result = model.forward(tokens, keep_cache=True)
        dlogits = softmax(result.logits)
        for b in range(2):
            for t in range(4):
                dlogits[b, t, targets[b, t]] -= 1.0
        grads = model.backward(result.cache, dlogits)

        for name in grads.names():
            arr = model.params[name]
            for flat in rng.integers(0, arr.size, size=3):
                idx = np.unravel_index(flat, arr.shape)
                eps = 1e-6
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss()
                arr[idx] = orig - eps
                down = loss()
                arr[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert grads[name][idx] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-7
                ), name

    def test_dlogits_shape_validated(self, model):
        tokens = np.zeros((1, 4), dtype=int)
        result = model.forward(tokens, keep_cache=True)
        with pytest.raises(GenerationError):
            model.backward(result.cache, np.zeros((1, 4, 99)))

    def test_backward_consumes_its_cache(self, model):
        result = model.forward(np.zeros((2, 4), dtype=int), keep_cache=True)
        dlogits = np.ones_like(result.logits)
        model.backward(result.cache, dlogits)
        assert result.cache.hiddens == [] and result.cache.block_acts == []
        with pytest.raises(GenerationError, match="consumed"):
            model.backward(result.cache, dlogits)


class TestClone:
    def test_clone_is_independent(self, model):
        twin = model.clone()
        assert twin.params.max_abs_diff(model.params) == 0.0
        twin.params["b_in"] += 1.0
        assert model.params.max_abs_diff(twin.params) > 0.0


class TestContexts:
    def test_padding_short_sequences(self):
        ctx = contexts_from_sequences([[7]], 3)
        assert ctx.tolist() == [[PAD_ID, PAD_ID, 7]]

    def test_truncates_long_sequences(self):
        ctx = contexts_from_sequences([[1, 2, 3, 4, 5]], 3)
        assert ctx.tolist() == [[3, 4, 5]]

    def test_empty_sequence_all_pad(self):
        ctx = contexts_from_sequences([[]], 2)
        assert ctx.tolist() == [[PAD_ID, PAD_ID]]


class TestParamSet:
    def test_name_mismatch_raises(self):
        params = ParamSet({"a": np.ones(2)})
        other = ParamSet({"b": np.ones(2)})
        with pytest.raises(ConfigError):
            params.max_abs_diff(other)

    def test_clip_global_norm(self):
        params = ParamSet({"a": np.full(4, 10.0)})
        pre = params.clip_global_norm(1.0)
        assert pre == pytest.approx(20.0)
        assert params.l2_norm() == pytest.approx(1.0)

    def test_load_state_dict_roundtrip(self):
        params = ParamSet({"a": np.arange(3, dtype=float)})
        state = params.state_dict()
        params["a"] += 5
        params.load_state_dict(state)
        assert np.allclose(params["a"], [0, 1, 2])

    def test_load_unknown_name_raises(self):
        params = ParamSet({"a": np.zeros(2)})
        with pytest.raises(ConfigError):
            params.load_state_dict({"zzz": np.zeros(2)})

    def test_load_shape_mismatch_raises(self):
        params = ParamSet({"a": np.zeros(2)})
        with pytest.raises(ConfigError):
            params.load_state_dict({"a": np.zeros(3)})

    def test_num_parameters(self):
        params = ParamSet({"a": np.zeros((2, 3)), "b": np.zeros(5)})
        assert params.num_parameters == 11
