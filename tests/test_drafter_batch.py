"""The drafter protocol's one contract: rows are independent, bitwise.

The tree builder drives a drafter through three batched calls on packed
states (``begin_batch``, ``propose_batch``, ``extend_propose_batch``),
one per round for the whole live batch; its byte-identity to per-node
drafting rests on row ``i`` of an ``n``-row call equalling a one-row call
on row ``i``.  These tests pin that contract for both drafters, hold the
small-LM drafter's packed windows to a per-sequence reference, and check
that malformed calls raise.
"""

import numpy as np
import pytest

from repro.drafter.small_lm import SmallLmDrafter
from repro.errors import DrafterError
from repro.llm.model import TinyLM, TinyLMConfig, contexts_from_sequences
from repro.llm.sampler import temperature_probs

TEMPERATURES = [0.0, 0.9]
DRAFTERS = ["eagle", "small_lm", "small_lm_tab8"]
PREFIXES = [
    [1, 5, 6], [2, 7], [3, 8, 9, 4], [2, 7, 7],
    [4, 4], [9, 3, 5, 1, 1, 2], [6], [8, 2, 2, 3],
]
TOKENS = np.array([4, 11, 0, 23, 7, 7, 19, 2])


def _small_lm(hidden_size, seed, init_scale=1.0):
    model = TinyLM(
        TinyLMConfig(
            vocab_size=24, hidden_size=hidden_size, context_window=4,
            num_layers=2, init_scale=init_scale,
        ),
        np.random.default_rng(seed),
    )
    return SmallLmDrafter(model, target_vocab_size=24)


@pytest.fixture(scope="module")
def small_lm_drafter():
    return _small_lm(8, 31)


@pytest.fixture(scope="module")
def small_lm_tab8_drafter():
    """Table 8's small-LM shape (hidden 16, two layers, window 4)."""
    return _small_lm(16, 61, init_scale=0.8)


def _drafter(request, name):
    fixture = "trained_drafter" if name == "eagle" else f"{name}_drafter"
    return request.getfixturevalue(fixture)


def _hiddens(target, size):
    rng = np.random.default_rng(17)
    return [
        rng.normal(size=(target.num_layers, target.config.hidden_size))
        for _ in range(size)
    ]


def _states(drafter, target, size=4):
    """Packed drafting states rooted at distinct prefixes."""
    return drafter.begin_batch(PREFIXES[:size], _hiddens(target, size))


def _assert_rows_independent(call, size, seed=0):
    """``call(rows)`` runs the drafter on the selected input rows.  Row
    ``i`` of the whole call equals the one-row call on row ``i``,
    bitwise, and permuting the input rows permutes every output."""

    def outputs(rows):
        result = call(np.asarray(rows, dtype=np.int64))
        return result if isinstance(result, tuple) else (result,)

    whole = outputs(range(size))
    assert all(len(out) == size for out in whole)
    for i in range(size):
        for row, one in zip(whole, outputs([i])):
            assert one.shape[0] == 1
            assert np.array_equal(row[i], one[0])
    order = np.random.default_rng(seed).permutation(size)
    for out, moved in zip(whole, outputs(order)):
        assert np.array_equal(moved, out[order])


@pytest.mark.parametrize("name", DRAFTERS)
@pytest.mark.parametrize("size", [1, 3, 8])
class TestRowContract:
    def test_begin_batch(self, request, target, name, size):
        drafter = _drafter(request, name)
        hiddens = _hiddens(target, size)
        hiddens[0] = None  # no hand-off: a zero feature for EAGLE
        _assert_rows_independent(
            lambda rows: drafter.begin_batch(
                [PREFIXES[i] for i in rows], [hiddens[i] for i in rows]
            ),
            size, seed=size,
        )

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_propose_batch(self, request, target, name, size, temperature):
        drafter = _drafter(request, name)
        states = _states(drafter, target, size)
        _assert_rows_independent(
            lambda rows: drafter.propose_batch(states[rows], temperature),
            size, seed=size,
        )

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_extend_propose_batch(
        self, request, target, name, size, temperature
    ):
        drafter = _drafter(request, name)
        states = _states(drafter, target, size)
        _assert_rows_independent(
            lambda rows: drafter.extend_propose_batch(
                states[rows], TOKENS[rows], temperature
            ),
            size, seed=size,
        )


@pytest.mark.parametrize("name", ["eagle", "small_lm"])
@pytest.mark.parametrize("temperature", TEMPERATURES)
class TestProposeBatchIdentity:
    def test_rows_bitwise_equal_per_state(
        self, request, target, name, temperature
    ):
        """Each batched proposal row equals the one-row proposal, bitwise.
        For EAGLE this is the einsum row-stability guarantee; for the
        small LM, the per-row matmuls of ``TinyLM.step``."""
        drafter = _drafter(request, name)
        states = _states(drafter, target)
        batched = drafter.propose_batch(states, temperature)
        assert batched.shape == (len(states), 24)
        for state, row in zip(states, batched):
            single = drafter.propose_batch(state[None], temperature)
            assert np.array_equal(single[0], row)


@pytest.mark.parametrize("name", ["eagle", "small_lm"])
class TestExtendBatchIdentity:
    def test_states_equal_per_pair(self, request, target, name):
        drafter = _drafter(request, name)
        states = _states(drafter, target)
        tokens = TOKENS[:4]
        batched, _ = drafter.extend_propose_batch(states, tokens, 0.9)
        assert len(batched) == len(states)
        for state, token, result in zip(states, tokens, batched):
            single, _ = drafter.extend_propose_batch(
                state[None], [token], 0.9
            )
            assert np.array_equal(single[0], result)

    def test_length_mismatch_raises(self, request, target, name):
        drafter = _drafter(request, name)
        states = _states(drafter, target)
        with pytest.raises(DrafterError):
            drafter.extend_propose_batch(states, [1], 0.9)


@pytest.mark.parametrize("name", ["eagle", "small_lm"])
class TestMalformedCallsRaise:
    def test_empty_prefix(self, request, name):
        with pytest.raises(DrafterError):
            _drafter(request, name).begin_batch([[3], []], [None, None])

    def test_prefixes_and_hiddens_mismatch(self, request, name):
        with pytest.raises(DrafterError):
            _drafter(request, name).begin_batch([[1, 2]], [None, None])


def test_propose_batch_empty_is_empty(trained_drafter, target):
    states = np.zeros((0, target.config.hidden_size))
    assert trained_drafter.propose_batch(states, 0.7).shape == (
        0, target.config.vocab_size,
    )


# -- the small LM's packed windows == the per-sequence definition -----------


def _reference_begin(prefix, window):
    return tuple(int(t) for t in prefix[-window:])


def _reference_extend(context, token, window):
    return (context + (int(token),))[-window:]


def _reference_propose(model, context, temperature):
    """One single-row ``TinyLM.step`` over the PAD-left-padded window."""
    window = contexts_from_sequences(
        [list(context)], model.config.context_window
    )
    logits, _ = model.step(window)
    return temperature_probs(logits[0], temperature)


@pytest.mark.parametrize("name", ["small_lm", "small_lm_tab8"])
@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_small_lm_rows_equal_per_sequence_reference(
    request, name, temperature
):
    """Five rounds of extension (past the window, so the PAD padding
    shifts out) on the packed array agree with tuple contexts and one
    single-row step each, bitwise."""
    drafter = _drafter(request, name)
    model = drafter.model
    window = model.config.context_window
    states = drafter.begin_batch(PREFIXES, [None] * len(PREFIXES))
    contexts = [_reference_begin(prefix, window) for prefix in PREFIXES]
    assert np.array_equal(
        states, contexts_from_sequences([list(c) for c in contexts], window)
    )
    probs = drafter.propose_batch(states, temperature)
    rng = np.random.default_rng(3)
    for _ in range(5):
        for context, row in zip(contexts, probs):
            assert np.array_equal(
                _reference_propose(model, context, temperature), row
            )
        tokens = rng.integers(3, 24, size=len(contexts))
        states, probs = drafter.extend_propose_batch(
            states, tokens, temperature
        )
        contexts = [
            _reference_extend(context, token, window)
            for context, token in zip(contexts, tokens)
        ]
        assert np.array_equal(
            states,
            contexts_from_sequences([list(c) for c in contexts], window),
        )
