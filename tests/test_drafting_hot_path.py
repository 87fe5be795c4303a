"""The array-resident drafting hot path against its scalar definitions.

The lock-step tree builder replaces per-node Python bookkeeping with
whole-batch array operations and one fused drafter launch per round.
Each piece has a scalar or per-node definition it must match bit for
bit; these tests hold the pieces to those definitions one at a time, and
then the whole serving stack to the per-node oracle builder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter.ngram import NgramDrafter, NgramDrafterConfig
from repro.drafter.small_lm import SmallLmDrafter
from repro.llm.model import TinyLM, TinyLMConfig, contexts_from_sequences
from repro.llm.vocab import EOS_ID
from repro.serving import frontend
from repro.serving.frontend import ServingEngine
from repro.specdec import SdStrategy, batch_engine, build_draft_trees
from repro.specdec.acceptance import (
    batched_inverse_cdf_draws,
    inverse_cdf_draws,
)
from repro.specdec.engine import initial_hiddens
from repro.specdec.tree import _verify_contexts, plan_verify_rows

import _tree_oracle


# -- (i) batched inverse-CDF draws == the scalar primitive -------------------


def _assert_rows_match_scalar(probs, uniforms):
    batched = batched_inverse_cdf_draws(probs, uniforms)
    assert batched.shape == uniforms.shape
    for row, (dist, draws) in enumerate(zip(probs, uniforms)):
        assert batched[row].tolist() == inverse_cdf_draws(dist, draws)


class TestBatchedInverseCdf:
    def test_random_blocks(self):
        rng = np.random.default_rng(0)
        for rows, vocab, draws in [(1, 5, 1), (3, 24, 4), (8, 32, 8)]:
            probs = rng.random((rows, vocab))
            probs /= probs.sum(axis=1, keepdims=True)
            _assert_rows_match_scalar(probs, rng.random((rows, draws)))

    def test_uniform_endpoints_stay_in_support(self):
        probs = np.array([[0.2, 0.3, 0.5], [0.0, 0.6, 0.4]])
        uniforms = np.array([[0.0, 1.0, 0.5], [0.0, 1.0, 0.6]])
        _assert_rows_match_scalar(probs, uniforms)
        draws = batched_inverse_cdf_draws(probs, uniforms)
        # u == 0 skips zero-probability heads; u == 1 clamps to the last
        # token instead of indexing past it.
        assert draws.tolist() == [[0, 2, 2], [1, 2, 2]]

    def test_zero_probability_tails_are_never_drawn(self):
        probs = np.array([[0.25, 0.75, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        below_one = np.nextafter(1.0, 0.0)
        uniforms = np.array([[0.2, 0.25, below_one], [0.0, 0.5, below_one]])
        _assert_rows_match_scalar(probs, uniforms)
        assert batched_inverse_cdf_draws(probs, uniforms).tolist() == [
            [0, 1, 1], [0, 0, 0],
        ]

    def test_cdf_rounding_below_one(self):
        """Ten tenths sum to 0.999...: the top of the unit interval still
        belongs to the last token."""
        probs = np.full((2, 10), 0.1)
        assert np.cumsum(probs[0])[-1] < 1.0
        uniforms = np.array(
            [[np.cumsum(probs[0])[-1], np.nextafter(1.0, 0.0)], [0.95, 0.05]]
        )
        _assert_rows_match_scalar(probs, uniforms)
        assert batched_inverse_cdf_draws(probs, uniforms)[0].tolist() == [9, 9]


# -- (ii) the fused launch == extend then propose ----------------------------

VOCAB = 24
PREFIXES = [
    [1, 5, 6], [2, 7], [3, 8, 9, 4], [2, 7, 7],
    [4, 4], [9, 3, 5], [6], [8, 2, 2, 3],
]
TOKENS = [4, 11, 0, 23, 7, 7, 19, 2]


@pytest.fixture(scope="module")
def ngram_drafter(rollout_sequences):
    drafter = NgramDrafter(NgramDrafterConfig(vocab_size=VOCAB, max_order=3))
    drafter.observe_rollouts(rollout_sequences)
    return drafter


@pytest.fixture(scope="module")
def small_lm_drafter():
    model = TinyLM(
        TinyLMConfig(
            vocab_size=VOCAB, hidden_size=8, context_window=4, num_layers=2
        ),
        np.random.default_rng(31),
    )
    return SmallLmDrafter(model, target_vocab_size=VOCAB)


def _same_states(left, right):
    if left.dtype == object:
        return list(left) == list(right)
    return np.array_equal(left, right)


@pytest.mark.parametrize("name", ["eagle", "small_lm", "ngram"])
@pytest.mark.parametrize("temperature", [0.0, 0.9])
@pytest.mark.parametrize("size", [1, 3, 8])
def test_fused_launch_equals_extend_then_propose(
    request, target, name, temperature, size
):
    drafter = {
        "eagle": "trained_drafter",
        "small_lm": "small_lm_drafter",
        "ngram": "ngram_drafter",
    }[name]
    drafter = request.getfixturevalue(drafter)
    hiddens = initial_hiddens(target, PREFIXES[:size])
    states = drafter.pack_states(
        drafter.begin_batch(PREFIXES[:size], hiddens)
    )
    tokens = np.array(TOKENS[:size])

    successors = drafter.extend_batch(states, tokens)
    proposals = drafter.propose_batch(successors, temperature)
    fused_states, fused_probs = drafter.extend_propose_batch(
        states, tokens, temperature
    )
    assert _same_states(fused_states, drafter.pack_states(successors))
    assert fused_probs.shape == (size, VOCAB)
    for row, proposal in zip(fused_probs, proposals):
        assert np.array_equal(row, proposal)

    # A row does not depend on its neighbours or its position.
    order = np.random.default_rng(size).permutation(size)
    moved_states, moved_probs = drafter.extend_propose_batch(
        states[order], tokens[order], temperature
    )
    assert _same_states(moved_states, fused_states[order])
    assert np.array_equal(moved_probs, fused_probs[order])


# -- (iii) equally confident nodes expand in creation order ------------------


def _arrays_equal(left, right):
    return all(
        np.array_equal(getattr(left, name), getattr(right, name))
        for name in (
            "tokens", "parents", "depths", "path_probs", "cand_offsets",
            "cand_tokens", "cand_child", "cand_dists",
        )
    )


class TestFrontierTieBreak:
    """An empty n-gram drafter proposes the uniform distribution, so every
    node of a level has the same confidence and the pop order is decided
    by the tie-break alone."""

    def test_first_created_of_tied_nodes_is_expanded(self):
        drafter = NgramDrafter(NgramDrafterConfig(vocab_size=VOCAB))
        # Budget 4 = the root's two children plus ONE further expansion.
        strategy = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=4)
        expanded_first = 0
        for seed in range(20):
            (tree,), _ = build_draft_trees(
                drafter, [[3, 4]], [None], strategy, 1.0,
                [np.random.default_rng(seed)],
            )
            if (
                tree.depths.tolist().count(1) != 2
                or tree.num_nodes != 4
                or EOS_ID in tree.tokens[:2]
            ):
                continue  # a duplicate or unexpandable draw: no tie to break
            assert tree.path_probs[0] == tree.path_probs[1]
            assert tree.children_of(0) and not tree.children_of(1)
            expanded_first += 1
        assert expanded_first >= 10

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tied_builds_match_the_heap(self, seed):
        drafter = NgramDrafter(NgramDrafterConfig(vocab_size=VOCAB))
        strategy = SdStrategy(draft_depth=4, topk=3, tokens_to_verify=10)
        prefixes = [[3, 4], [5], [6, 7, 8]]
        ours, _ = build_draft_trees(
            drafter, prefixes, [None] * 3, strategy, 1.0,
            [np.random.default_rng(seed + i) for i in range(3)],
        )
        heap, _ = _tree_oracle.build_draft_trees(
            drafter, prefixes, [None] * 3, strategy, 1.0,
            [np.random.default_rng(seed + i) for i in range(3)],
        )
        for tree, reference in zip(ours, heap):
            assert _arrays_equal(tree, reference)


# -- launch accounting and the verify context block --------------------------


@pytest.mark.parametrize("child_mode", ["sample", "topk"])
@pytest.mark.parametrize("seed", [0, 5])
def test_launch_bound_and_per_node_baseline(
    target, trained_drafter, child_mode, seed
):
    """One begin, one root proposal, one fused launch per further round;
    ``draft_calls`` still counts what the per-node path spends."""
    strategy = SdStrategy(draft_depth=4, topk=3, tokens_to_verify=8)
    prefixes = PREFIXES[:5]
    hiddens = initial_hiddens(target, prefixes)

    def rngs():
        return [np.random.default_rng(seed + i) for i in range(5)]

    trees, launches = build_draft_trees(
        trained_drafter, prefixes, hiddens, strategy, 0.8, rngs(),
        child_mode,
    )
    reference, per_node = _tree_oracle.build_draft_trees(
        trained_drafter, prefixes, hiddens, strategy, 0.8, rngs(),
        child_mode,
    )
    assert [t.draft_calls for t in trees] == [
        t.draft_calls for t in reference
    ]
    assert [t.draft_steps for t in trees] == [
        t.draft_steps for t in reference
    ]
    assert launches < per_node
    if child_mode == "sample":
        rounds = max(t.draft_calls - 1 - t.draft_steps for t in trees)
        assert launches == 1 + rounds
    else:
        assert launches <= 1 + strategy.draft_depth


@pytest.mark.parametrize("window", [1, 3, 6])
def test_verify_contexts_equal_the_token_paths(
    target, trained_drafter, window
):
    """Shifting the parent's context by one token gives the same rows as
    cutting the window out of every full prefix + path sequence."""
    prefixes = [[3, 5, 7, 2], [4], [1, 2]]
    hiddens = initial_hiddens(target, prefixes)
    trees, _ = build_draft_trees(
        trained_drafter, prefixes, hiddens,
        SdStrategy(draft_depth=5, topk=2, tokens_to_verify=9), 0.9,
        [np.random.default_rng(i) for i in range(3)],
    )
    contexts, first_rows = _verify_contexts(trees, prefixes, window)
    paths = []
    for tree, prefix in zip(trees, prefixes):
        assert first_rows.pop(0) == len(paths)
        paths.extend(plan_verify_rows(tree, prefix)[0])
    assert np.array_equal(contexts, contexts_from_sequences(paths, window))


# -- (iv) the serving stack on the array builder == on the oracle ------------


def _serve(monkeypatch, scenario, child_mode, builder):
    """Run the scenario through a 2-worker pool; returns what must match."""
    created = {}
    make_request = frontend.make_serving_request

    def recording(**kwargs):
        request = make_request(**kwargs)
        created[request.request_id] = request
        return request

    with monkeypatch.context() as patch:
        patch.setattr(frontend, "make_serving_request", recording)
        patch.setattr(batch_engine, "build_draft_trees", builder)
        report = ServingEngine(
            scenario.target,
            scenario.drafter,
            num_workers=2,
            strategy=scenario.strategy,
            temperature=scenario.temperature,
            child_mode=child_mode,
            max_batch_size=4,
        ).run(scenario.serving_requests(arrival_gap=0.3))
    responses = [record.response for record in report.records]
    streams = [
        created[i].rng.bit_generator.state for i in sorted(created)
    ]
    return responses, streams, report.ticks


@pytest.mark.parametrize("child_mode", ["sample", "topk"])
def test_serving_run_equals_oracle_builder(
    monkeypatch, scenario_factory, child_mode
):
    scenario = scenario_factory(
        2024, num_requests=40, max_new_tokens=14, ragged_caps=True,
        temperature=0.8, draft_depth=4, topk=3, tokens_to_verify=8,
    )
    ours = _serve(monkeypatch, scenario, child_mode, build_draft_trees)
    oracle = _serve(
        monkeypatch, scenario, child_mode, _tree_oracle.build_draft_trees
    )
    assert len(ours[0]) == 40 and all(ours[0])
    assert ours[0] == oracle[0]  # committed tokens
    assert ours[1] == oracle[1]  # every request's stream ends in the same state
    assert ours[2] == oracle[2]  # makespan in ticks
