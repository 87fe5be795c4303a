"""Batched drafter calls must be token-identical to per-state calls.

The flat tree builder issues one ``propose_batch``/``extend_batch`` per
tree depth for the whole live batch; its byte-identity to per-node
drafting rests on every batched row being unaffected by its neighbours.
These tests pin that contract for both drafters — the vectorised
EAGLE overrides and the per-state base-class fallbacks (which the
small-LM drafter runs) alike — mirroring
the ``begin_batch`` identity tests added with the batched prefill path.
"""

import numpy as np
import pytest

from repro.drafter.small_lm import SmallLmDrafter
from repro.errors import DrafterError
from repro.llm.model import TinyLM, TinyLMConfig

TEMPERATURES = [0.0, 0.9]


@pytest.fixture(scope="module")
def small_lm_drafter():
    model = TinyLM(
        TinyLMConfig(
            vocab_size=24, hidden_size=8, context_window=4, num_layers=2
        ),
        np.random.default_rng(31),
    )
    return SmallLmDrafter(model, target_vocab_size=24)


def _states(drafter, target):
    """A batch of drafting states rooted at distinct prefixes."""
    rng = np.random.default_rng(17)
    prefixes = [[1, 5, 6], [2, 7], [3, 8, 9, 4], [2, 7, 7]]
    hiddens = [
        np.stack(
            [
                rng.normal(size=target.config.hidden_size)
                for _ in range(target.num_layers)
            ],
            axis=0,
        )
        for _ in prefixes
    ]
    return [
        drafter.begin(prefix, hidden)
        for prefix, hidden in zip(prefixes, hiddens)
    ]


def _drafter_cases(request):
    return {
        "eagle": request.getfixturevalue("trained_drafter"),
        "small_lm": request.getfixturevalue("small_lm_drafter"),
    }


@pytest.mark.parametrize("name", ["eagle", "small_lm"])
@pytest.mark.parametrize("temperature", TEMPERATURES)
class TestProposeBatchIdentity:
    def test_rows_bitwise_equal_per_state(
        self, request, target, name, temperature
    ):
        """Each batched proposal row equals the per-state proposal,
        bitwise.  For EAGLE this is the einsum row-stability guarantee
        the flat tree builder's losslessness rests on; for the fallback
        drafters it is trivially the same code path."""
        drafter = _drafter_cases(request)[name]
        states = _states(drafter, target)
        batched = drafter.propose_batch(states, temperature)
        assert len(batched) == len(states)
        for state, row in zip(states, batched):
            single = drafter.propose(state, temperature)
            assert np.array_equal(single, row)


@pytest.mark.parametrize("name", ["eagle", "small_lm"])
class TestExtendBatchIdentity:
    def test_states_equal_per_pair(self, request, target, name):
        drafter = _drafter_cases(request)[name]
        states = _states(drafter, target)
        tokens = [4, 11, 0, 23]
        batched = drafter.extend_batch(states, tokens)
        assert len(batched) == len(states)
        for state, token, result in zip(states, tokens, batched):
            single = drafter.extend(state, token)
            if hasattr(single, "hidden"):
                assert np.array_equal(single.hidden, result.hidden)
            else:
                assert single == result

    def test_length_mismatch_raises(self, request, target, name):
        drafter = _drafter_cases(request)[name]
        states = _states(drafter, target)
        with pytest.raises(DrafterError):
            drafter.extend_batch(states, [1])


def test_propose_batch_empty_is_empty(trained_drafter):
    assert trained_drafter.propose_batch([], 0.7) == []
