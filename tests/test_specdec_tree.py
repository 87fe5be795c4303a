"""Tests for draft-tree construction and tree verification."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.llm.model import contexts_from_sequences
from repro.llm.sampler import temperature_probs
from repro.specdec import SdStrategy
from repro.specdec import verify_trees as verify_flat_trees
from repro.specdec.engine import initial_hiddens
from repro.specdec.tree import _verify_contexts

from _tree_oracle import (
    ancestor_matrix,
    build_draft_tree,
    children_of,
    flat_verify_rows,
    flatten,
    level_offsets,
    level_slice,
    node_dist_row,
    plan_verify_rows as plan_verify_rows_ref,
    to_batch,
    to_node_view,
    trees_of,
)


def verify_tree(target, tree, prefix, temperature, rng):
    """Verify a per-node oracle tree through the production batch path;
    returns its one sequence's verdict."""
    batch = to_batch([flatten(tree)])
    verdicts = verify_flat_trees(target, batch, [prefix], temperature, [rng])
    bonus = verdicts.bonus[0]
    return SimpleNamespace(
        accepted_tokens=verdicts.accepted[0] + [bonus],
        bonus_token=bonus,
        next_hidden=verdicts.handoffs[0],
        attempted=verdicts.attempted[0],
        # The rows the verify launch gives the target.
        verify_batch=_verify_contexts(
            batch, [prefix], target.config.context_window
        ).shape[0],
    )


@pytest.fixture()
def prefix():
    return [1, 5, 7, 9]


class TestStrategyValidation:
    def test_valid(self):
        SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(draft_depth=0, topk=1, tokens_to_verify=4),
            dict(draft_depth=2, topk=0, tokens_to_verify=4),
            dict(draft_depth=2, topk=2, tokens_to_verify=0),
            dict(draft_depth=2, topk=8, tokens_to_verify=4),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SdStrategy(**kwargs)

    def test_describe(self):
        s = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8)
        assert s.describe() == "D=4 K=2 V=8"


class TestBuildTree:
    def test_budget_respected(self, target, trained_drafter, prefix):
        rng = np.random.default_rng(0)
        strategy = SdStrategy(draft_depth=6, topk=3, tokens_to_verify=12)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng
        )
        assert len(tree.nodes) <= strategy.tokens_to_verify
        assert tree.num_selected == len(tree.nodes)

    def test_depth_respected(self, target, trained_drafter, prefix):
        rng = np.random.default_rng(1)
        strategy = SdStrategy(draft_depth=2, topk=2, tokens_to_verify=16)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng
        )
        assert max(n.depth for n in tree.nodes) <= 2

    def test_every_drawn_candidate_has_node(
        self, target, trained_drafter, prefix
    ):
        """Losslessness invariant: no drawn candidate is ever pruned."""
        rng = np.random.default_rng(2)
        strategy = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=10)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng
        )
        for token in tree.root_candidates:
            assert token in tree.root_children
        for node in tree.nodes:
            for token in node.child_candidates:
                assert token in node.child_nodes
            assert node.selected

    def test_parents_precede_children(
        self, target, trained_drafter, prefix
    ):
        rng = np.random.default_rng(3)
        strategy = SdStrategy(draft_depth=5, topk=2, tokens_to_verify=14)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng
        )
        position = {idx: pos for pos, idx in
                    enumerate(tree.selected_indices)}
        for idx in tree.selected_indices:
            parent = tree.nodes[idx].parent
            if parent != -1:
                assert position[parent] < position[idx]

    def test_path_prob_monotone(self, target, trained_drafter, prefix):
        rng = np.random.default_rng(4)
        strategy = SdStrategy(draft_depth=5, topk=2, tokens_to_verify=14)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng
        )
        for node in tree.nodes:
            if node.parent != -1:
                assert node.path_prob <= tree.nodes[node.parent].path_prob + 1e-12

    def test_topk_mode_children_unique_and_sorted(
        self, target, trained_drafter, prefix
    ):
        rng = np.random.default_rng(5)
        strategy = SdStrategy(draft_depth=3, topk=3, tokens_to_verify=9)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng,
            child_mode="topk",
        )
        assert len(set(tree.root_candidates)) == len(tree.root_candidates)
        probs = [tree.root_dists[0][t] for t in tree.root_candidates]
        assert probs == sorted(probs, reverse=True)


class TestVerifyTree:
    def test_always_commits_at_least_one_token(
        self, target, untrained_drafter, prefix
    ):
        rng = np.random.default_rng(0)
        strategy = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
        hidden = initial_hiddens(target, [prefix])[0]
        for _ in range(20):
            tree = build_draft_tree(
                untrained_drafter, prefix, hidden, strategy, 0.9, rng
            )
            result = verify_tree(target, tree, prefix, 0.9, rng)
            assert len(result.accepted_tokens) >= 1
            assert result.accepted_tokens[-1] == result.bonus_token

    def test_accepted_tokens_form_tree_path(
        self, target, trained_drafter, prefix
    ):
        rng = np.random.default_rng(1)
        strategy = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=10)
        hidden = initial_hiddens(target, [prefix])[0]
        for _ in range(20):
            tree = build_draft_tree(
                trained_drafter, prefix, hidden, strategy, 0.9, rng
            )
            result = verify_tree(target, tree, prefix, 0.9, rng)
            children = tree.root_children
            for token in result.accepted_tokens[:-1]:
                assert token in children
                node = tree.nodes[children[token]]
                children = node.child_nodes

    def test_verify_batch_is_selected_plus_root(
        self, target, trained_drafter, prefix
    ):
        rng = np.random.default_rng(2)
        strategy = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=8)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng
        )
        result = verify_tree(target, tree, prefix, 0.9, rng)
        assert result.verify_batch == tree.num_selected + 1

    def test_next_hidden_matches_target_recompute(
        self, target, trained_drafter, prefix
    ):
        """The hand-off hidden must equal the exact target hidden at the
        position before the bonus token."""
        rng = np.random.default_rng(3)
        strategy = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.9, rng
        )
        result = verify_tree(target, tree, prefix, 0.9, rng)
        full = prefix + result.accepted_tokens
        ctx = contexts_from_sequences(
            [full[:-1]], target.config.context_window
        )
        _, hiddens = target.step(ctx)
        expected = np.stack([h[0] for h in hiddens], axis=0)
        assert np.allclose(result.next_hidden, expected)

    def test_greedy_tree_matches_greedy_decode(
        self, target, trained_drafter, prefix
    ):
        """At temperature 0 the committed tokens equal greedy decoding."""
        rng = np.random.default_rng(4)
        strategy = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=10)
        hidden = initial_hiddens(target, [prefix])[0]
        tree = build_draft_tree(
            trained_drafter, prefix, hidden, strategy, 0.0, rng,
            child_mode="topk",
        )
        result = verify_tree(target, tree, prefix, 0.0, rng)
        seq = list(prefix)
        for committed in result.accepted_tokens:
            ctx = contexts_from_sequences(
                [seq], target.config.context_window
            )
            logits, _ = target.step(ctx)
            assert committed == int(np.argmax(logits[0]))
            seq.append(committed)

    def test_first_token_distribution_lossless(
        self, target, untrained_drafter, prefix
    ):
        """Statistical: first committed token ~ analytic target dist even
        with an adversarial (untrained) drafter."""
        temperature = 0.8
        ctx = contexts_from_sequences(
            [prefix], target.config.context_window
        )
        logits, _ = target.step(ctx)
        p_true = temperature_probs(logits[0], temperature)
        rng = np.random.default_rng(5)
        strategy = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
        hidden = initial_hiddens(target, [prefix])[0]
        n = 6000
        counts = np.zeros(target.config.vocab_size)
        for _ in range(n):
            tree = build_draft_tree(
                untrained_drafter, prefix, hidden, strategy,
                temperature, rng,
            )
            result = verify_tree(target, tree, prefix, temperature, rng)
            counts[result.accepted_tokens[0]] += 1
        mask = p_true * n >= 5
        observed = counts[mask]
        expected = p_true[mask] * n
        tail_mass = p_true[~mask].sum() * n
        if tail_mass > 0:
            observed = np.append(observed, counts[~mask].sum())
            expected = np.append(expected, tail_mass)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # dof ~ len(observed)-1; 99.9th percentile of chi2(24) ~ 51.2
        assert chi2 < 52.0, f"chi2={chi2:.1f}"


# -- flat tensor-tree layout ------------------------------------------------


from repro.specdec import (  # noqa: E402  (grouped with the flat tests)
    GrowMap,
    build_draft_trees,
    verify_trees,
)

FLAT_STRATEGIES = [
    SdStrategy(draft_depth=2, topk=2, tokens_to_verify=4),
    SdStrategy(draft_depth=4, topk=3, tokens_to_verify=8),
    SdStrategy(draft_depth=5, topk=2, tokens_to_verify=12),
]


def _prefixes_and_hiddens(target):
    prefixes = [[3, 5, 7, 2], [4, 4, 9], [1, 2], [8, 6, 5, 3, 2]]
    hiddens = initial_hiddens(target, prefixes)
    return prefixes, hiddens


class TestGrowMap:
    def test_from_strategy_layout(self):
        grow = GrowMap.from_strategy(
            SdStrategy(draft_depth=4, topk=3, tokens_to_verify=8)
        )
        assert grow.depth == 4
        assert grow.branch == 3
        assert grow.level_width == 8  # max(topk, min(V, 32))
        assert grow.capacities == (3, 8, 8, 8)
        assert grow.max_nodes == 27

    def test_wide_budget_is_clamped(self):
        grow = GrowMap.from_strategy(
            SdStrategy(draft_depth=2, topk=2, tokens_to_verify=64)
        )
        assert grow.level_width == 32


class TestFlatRoundTrip:
    @pytest.mark.parametrize("strategy", FLAT_STRATEGIES)
    @pytest.mark.parametrize("child_mode", ["sample", "topk"])
    @pytest.mark.parametrize("seed", [0, 7, 91])
    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    def test_flat_round_trips_to_node_view(
        self, target, trained_drafter, strategy, child_mode, seed,
        temperature,
    ):
        """Flattening a legacy tree and rebuilding the node view keeps
        the selected tokens, parents, depths and verify-row plan."""
        prefixes, hiddens = _prefixes_and_hiddens(target)
        for prefix, hidden in zip(prefixes, hiddens):
            tree = build_draft_tree(
                trained_drafter, prefix, hidden, strategy, temperature,
                np.random.default_rng(seed), child_mode,
            )
            flat = flatten(tree)
            view = to_node_view(flat)
            assert flat.num_nodes == tree.num_selected
            selected = tree.selected_indices
            for flat_i, legacy_i in enumerate(selected):
                node = tree.nodes[legacy_i]
                back = view.nodes[flat_i]
                assert back.token == node.token
                assert back.depth == node.depth
                assert back.path_prob == node.path_prob
                assert np.array_equal(back.draft_dist, node.draft_dist)
                legacy_parent = node.parent
                if legacy_parent == -1:
                    assert back.parent == -1
                else:
                    assert selected[back.parent] == legacy_parent
            legacy_paths, legacy_rows = plan_verify_rows_ref(tree, prefix)
            flat_paths, flat_rows = flat_verify_rows(flat, prefix)
            assert flat_paths == legacy_paths
            assert list(flat_rows.values()) == sorted(flat_rows.values())
            # Round-trip again: the node view flattens back identically.
            again = flatten(view)
            assert np.array_equal(again.tokens, flat.tokens)
            assert np.array_equal(again.parents, flat.parents)
            assert np.array_equal(again.cand_tokens, flat.cand_tokens)
            assert np.array_equal(again.cand_child, flat.cand_child)
            assert np.array_equal(again.cand_offsets, flat.cand_offsets)

    def test_flatten_keeps_one_distribution_per_slot(
        self, target, trained_drafter
    ):
        """A node's candidates share its one proposal, so the flat tree
        keeps one distribution per slot; a slot whose candidates name
        two distributions cannot be flattened."""
        prefixes, hiddens = _prefixes_and_hiddens(target)
        tree = build_draft_tree(
            trained_drafter, prefixes[0], hiddens[0],
            SdStrategy(draft_depth=3, topk=3, tokens_to_verify=8), 0.9,
            np.random.default_rng(0),
        )
        flat = flatten(tree)
        assert flat.node_dists.shape == (
            flat.num_nodes + 1, target.config.vocab_size
        )
        assert np.array_equal(flat.node_dists[0], tree.root_dists[0])
        assert len(tree.root_dists) > 1
        tree.root_dists[-1] = tree.root_dists[-1] * 0.5
        with pytest.raises(AssertionError, match="two dists in a slot"):
            flatten(tree)

    @pytest.mark.parametrize("child_mode", ["sample", "topk"])
    @pytest.mark.parametrize("seed", [3, 42])
    def test_batched_build_bitwise_equals_per_node(
        self, target, trained_drafter, child_mode, seed
    ):
        """The lock-step batched build produces byte-identical flat
        trees to flattening per-node builds under the same seeds, and
        verification commits identical tokens from either."""
        strategy = SdStrategy(draft_depth=4, topk=3, tokens_to_verify=8)
        temperature = 0.8
        prefixes, hiddens = _prefixes_and_hiddens(target)
        rngs_a = [
            np.random.default_rng(seed + i) for i in range(len(prefixes))
        ]
        rngs_b = [
            np.random.default_rng(seed + i) for i in range(len(prefixes))
        ]
        legacy = [
            build_draft_tree(
                trained_drafter, p, h, strategy, temperature, r,
                child_mode,
            )
            for p, h, r in zip(prefixes, hiddens, rngs_a)
        ]
        batch = build_draft_trees(
            trained_drafter, prefixes, hiddens, strategy, temperature,
            rngs_b, child_mode,
        )
        assert batch.rounds.min() >= 1
        for reference, flat in zip(
            map(flatten, legacy), trees_of(batch)
        ):
            assert np.array_equal(reference.tokens, flat.tokens)
            assert np.array_equal(reference.parents, flat.parents)
            assert np.array_equal(reference.depths, flat.depths)
            assert np.array_equal(reference.path_probs, flat.path_probs)
            assert np.array_equal(
                reference.cand_tokens, flat.cand_tokens
            )
            assert np.array_equal(reference.cand_child, flat.cand_child)
            assert np.array_equal(
                reference.cand_offsets, flat.cand_offsets
            )
            assert np.array_equal(reference.node_dists, flat.node_dists)
            assert np.array_equal(
                node_dist_row(reference), node_dist_row(flat)
            )
            assert reference.draft_steps == flat.draft_steps
            assert reference.draft_calls == flat.draft_calls
            assert reference.rounds == flat.rounds
        # The two builds consumed each rng stream identically.
        for ra, rb in zip(rngs_a, rngs_b):
            assert ra.random() == rb.random()
        verify_a = verify_trees(
            target, to_batch(list(map(flatten, legacy))), prefixes,
            temperature,
            [np.random.default_rng(seed + 50 + i) for i in range(4)],
        )
        verify_b = verify_trees(
            target, batch, prefixes, temperature,
            [np.random.default_rng(seed + 50 + i) for i in range(4)],
        )
        assert verify_a.accepted == verify_b.accepted
        assert verify_a.bonus == verify_b.bonus
        assert verify_a.attempted == verify_b.attempted
        for a, b in zip(verify_a.handoffs, verify_b.handoffs):
            assert np.array_equal(a, b)


class TestFlatLayoutInvariants:
    @pytest.fixture()
    def flat(self, target, trained_drafter):
        prefixes, hiddens = _prefixes_and_hiddens(target)
        batch = build_draft_trees(
            trained_drafter, prefixes, hiddens,
            SdStrategy(draft_depth=4, topk=3, tokens_to_verify=8),
            0.9,
            [np.random.default_rng(i) for i in range(len(prefixes))],
            "topk",
        )
        return trees_of(batch)[0]

    def test_level_order(self, flat):
        """Depths are non-decreasing, parents precede children, and
        level_offsets slices exactly the per-depth runs."""
        depths = flat.depths
        assert all(depths[i] <= depths[i + 1] for i in range(len(depths) - 1))
        for i in range(flat.num_nodes):
            assert int(flat.parents[i]) < i
        for depth in range(1, flat.max_depth + 1):
            rows = level_slice(flat, depth)
            assert all(int(d) == depth for d in flat.depths[rows])
        assert int(level_offsets(flat)[0]) == 0
        assert int(level_offsets(flat)[-1]) == flat.num_nodes

    def test_ancestor_matrix(self, flat):
        mask = ancestor_matrix(flat)
        assert mask.shape == (flat.num_nodes, flat.num_nodes)
        for i in range(flat.num_nodes):
            # Row i marks exactly the root-to-i path.
            path = {i}
            j = int(flat.parents[i])
            while j != -1:
                path.add(j)
                j = int(flat.parents[j])
            assert set(np.flatnonzero(mask[i]).tolist()) == path
        # Ancestor rows count matches each node's depth.
        assert np.array_equal(mask.sum(axis=1), flat.depths)

    def test_children_and_dist_rows(self, flat):
        for i in range(flat.num_nodes):
            for child in children_of(flat, i):
                assert int(flat.parents[child]) == i
            dist_row = int(node_dist_row(flat)[i])
            assert int(flat.cand_tokens[dist_row]) == int(flat.tokens[i])
            assert int(flat.cand_child[dist_row]) == i

    def test_level_slice_bounds(self, flat):
        from repro.errors import SpecDecodeError
        with pytest.raises(SpecDecodeError):
            level_slice(flat, 0)
        with pytest.raises(SpecDecodeError):
            level_slice(flat, flat.max_depth + 1)

    def test_build_draft_trees_validates_lengths(self, trained_drafter):
        from repro.errors import SpecDecodeError
        with pytest.raises(SpecDecodeError):
            build_draft_trees(
                trained_drafter, [[1, 2]], [None, None],
                SdStrategy(draft_depth=2, topk=2, tokens_to_verify=4),
                0.5, [np.random.default_rng(0)],
            )

    def test_empty_batch(self, trained_drafter):
        batch = build_draft_trees(
            trained_drafter, [], [],
            SdStrategy(draft_depth=2, topk=2, tokens_to_verify=4),
            0.5, [],
        )
        assert batch.starts.tolist() == [0] and trees_of(batch) == []
