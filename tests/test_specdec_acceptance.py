"""Tests for the lossless accept/reject rule.

The key properties verified statistically (against *analytic* target
distributions, never two-sample):

* chain rule (one candidate): committed token ~ target distribution
  regardless of drafter,
* multi-round rule: same, for any number of sibling candidates.

The per-trial rule lives in ``tests/_tree_oracle.py``; the production
walk over a draft batch (one draft distribution per row) is held to the
oracle's per-candidate walk draw for draw, on each sequence's own rows.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecDecodeError
from repro.llm.model import contexts_from_sequences
from repro.llm.sampler import temperature_probs, tokens_at_uniforms
from repro.specdec.tree import DraftBatch, _walk_acceptance, verify_trees

from _tree_oracle import (
    FlatDraftTree,
    flat_verify_rows,
    multi_round_accept,
    residual_distribution,
    sequential_residual_draws,
    to_batch,
    walk_acceptance,
)


def _random_dist(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.random(size) + 1e-3
    return raw / raw.sum()


class TestResidual:
    def test_identical_distributions_fall_back(self):
        p = np.array([0.5, 0.5])
        out = residual_distribution(p, p)
        assert np.allclose(out, p)

    def test_known_residual(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.2, 0.8])
        out = residual_distribution(p, q)
        assert np.allclose(out, [1.0, 0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(SpecDecodeError):
            residual_distribution(np.ones(2) / 2, np.ones(3) / 3)

    @given(st.integers(2, 10), st.integers(0, 1000))
    def test_property_valid_distribution(self, size, seed):
        rng = np.random.default_rng(seed)
        p = _random_dist(rng, size)
        q = _random_dist(rng, size)
        out = residual_distribution(p, q)
        assert out.sum() == pytest.approx(1.0)
        assert (out >= 0).all()


class TestOneCandidate:
    """The chain rule: :func:`multi_round_accept` with one candidate.

    (A zero-draft-mass candidate auto-rejects instead of raising:
    ``TestMultiRound.test_zero_mass_candidate_skipped``.)
    """

    def test_always_accept_when_target_dominates(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        rng = np.random.default_rng(0)
        for _ in range(50):
            chosen, _ = multi_round_accept(p, [0], [q], rng)
            assert chosen == 0

    def test_always_reject_zero_target(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        rng = np.random.default_rng(0)
        chosen, residual = multi_round_accept(p, [1], [q], rng)
        assert chosen is None
        assert np.allclose(residual, [1.0, 0.0])

    def test_chain_rule_lossless(self):
        """Draft from q, accept/resample: output must be ~ p (chi-square)."""
        rng = np.random.default_rng(42)
        p = np.array([0.5, 0.3, 0.15, 0.05])
        q = np.array([0.1, 0.2, 0.3, 0.4])  # deliberately mismatched
        n = 40000
        counts = np.zeros(4)
        for _ in range(n):
            token = int(rng.choice(4, p=q))
            chosen, residual = multi_round_accept(p, [token], [q], rng)
            if chosen is not None:
                counts[token] += 1
            else:
                counts[rng.choice(4, p=residual)] += 1
        chi2 = float(np.sum((counts - n * p) ** 2 / (n * p)))
        # 3 dof, 99.9th percentile ~ 16.27
        assert chi2 < 16.27


class TestMultiRound:
    def test_length_mismatch_raises(self):
        with pytest.raises(SpecDecodeError):
            multi_round_accept(
                np.ones(2) / 2, [0, 1], [np.ones(2) / 2],
                np.random.default_rng(0),
            )

    def test_zero_mass_candidate_skipped(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        chosen, residual = multi_round_accept(
            p, [1], [q], np.random.default_rng(0)
        )
        assert chosen is None
        assert np.allclose(residual, p)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_multi_round_lossless(self, k):
        """k i.i.d. draft candidates + residual fallback ~ target exactly."""
        rng = np.random.default_rng(7)
        p = np.array([0.45, 0.25, 0.2, 0.1])
        q = np.array([0.1, 0.5, 0.2, 0.2])
        n = 30000
        counts = np.zeros(4)
        for _ in range(n):
            tokens, dists = sequential_residual_draws(q, k, rng)
            chosen, residual = multi_round_accept(p, tokens, dists, rng)
            if chosen is not None:
                counts[tokens[chosen]] += 1
            else:
                counts[rng.choice(4, p=residual)] += 1
        chi2 = float(np.sum((counts - n * p) ** 2 / (n * p)))
        assert chi2 < 16.27, f"k={k}: chi2={chi2:.1f}"

    def test_first_match_preferred(self):
        """A candidate equal to the target argmax under greedy accepts."""
        p = np.array([0.0, 1.0, 0.0])
        q = np.array([1 / 3, 1 / 3, 1 / 3])
        chosen, _ = multi_round_accept(
            p, [1, 2], [q, q], np.random.default_rng(0)
        )
        assert chosen == 0


class TestSequentialDraws:
    def test_count_validation(self):
        with pytest.raises(SpecDecodeError):
            sequential_residual_draws(
                np.ones(2) / 2, 0, np.random.default_rng(0)
            )

    def test_draws_match_distribution(self):
        rng = np.random.default_rng(0)
        q = np.array([0.7, 0.2, 0.1])
        tokens, dists = sequential_residual_draws(q, 30000, rng)
        freqs = np.bincount(tokens, minlength=3) / 30000
        assert np.allclose(freqs, q, atol=0.02)
        assert all(d is q or np.shares_memory(d, q) for d in dists)


# -- the production walk against the per-candidate oracle ---------------------


def _ints(values):
    return np.array(values, dtype=np.int64)


def _random_tree(rng, vocab, max_depth=3, topk=3):
    """A level-ordered flat tree with duplicate draws, pruned (-1)
    candidates and empty slots.  Its ``node_dists`` are placeholders;
    :func:`_fit_dists` fills them (zero-``q`` candidates come from
    there)."""
    slot_depth = [0]
    tokens, parents, depths = [], [], []
    offsets, cand_tokens, cand_child = [0], [], []
    s = 0
    while s < len(slot_depth):
        depth = slot_depth[s]
        if depth < max_depth and rng.random() < 0.8:
            first = {}
            for token in rng.integers(0, vocab, size=topk).tolist():
                if token not in first:
                    first[token] = -1
                    if rng.random() < 0.75:
                        first[token] = len(tokens)
                        tokens.append(token)
                        parents.append(s - 1)
                        depths.append(depth + 1)
                        slot_depth.append(depth + 1)
                cand_tokens.append(token)
                cand_child.append(first[token])
        offsets.append(len(cand_tokens))
        s += 1
    return FlatDraftTree(
        tokens=_ints(tokens), parents=_ints(parents), depths=_ints(depths),
        path_probs=np.ones(len(tokens)), cand_offsets=_ints(offsets),
        cand_tokens=_ints(cand_tokens), cand_child=_ints(cand_child),
        node_dists=np.zeros((len(tokens) + 1, vocab)),
        draft_steps=len(tokens), draft_calls=0, rounds=0,
    )


def _fit_dists(tree, probs, rng):
    """Give every slot one draft distribution against the target rows.

    Most slots draw a random ``q`` with a few zero entries (candidates
    there carry no draft mass).  Some take ``q == p`` (accepted at once)
    and some ``q >= p`` with more mass on the slot's candidates, so a
    rejection leaves an all-zero residual: the ``p == q`` fallback.
    """
    vocab = probs.shape[1]
    for slot in range(tree.num_nodes + 1):
        kind = rng.random()
        if kind < 0.2:
            q = probs[slot].copy()
        elif kind < 0.45:
            q = probs[slot].copy()
            span = tree.cand_tokens[
                tree.cand_offsets[slot] : tree.cand_offsets[slot + 1]
            ]
            q[span] *= 2.0
        else:
            q = rng.dirichlet(np.ones(vocab))
            q[rng.random(vocab) < 0.2] = 0.0
        tree.node_dists[slot] = q


def _target_rows(rng, rows, vocab):
    p = rng.dirichlet(np.full(vocab, 0.7), size=rows)
    p[rng.random(p.shape) < 0.15] = 0.0
    p[:, 0] += 1e-3  # no all-zero row
    return p / p.sum(axis=1, keepdims=True)


def _walks(batch, probs, rngs):
    """The production walk over a batch, one namespace per sequence
    with its hand-off row renamed to the sequence's own rows."""
    accepted, rows, dists, uniforms, attempted = _walk_acceptance(
        batch, probs, rngs
    )
    return [
        SimpleNamespace(
            accepted=accepted[b], row=rows[b] - int(batch.starts[b]),
            bonus_dist=dists[b], bonus_uniform=uniforms[b],
            attempted=attempted[b],
        )
        for b in range(len(rngs))
    ]


def _walk(tree, probs, rng):
    """The production walk over one tree, as a batch of its own."""
    return _walks(to_batch([tree]), probs, [rng])[0]


def _assert_same_walk(walk, ref):
    accepted = len(ref.accepted)
    assert walk.accepted == ref.accepted
    assert walk.row == ref.row
    assert walk.bonus_dist.tobytes() == ref.bonus_dist.tobytes()
    assert walk.bonus_uniform == ref.bonus_uniform
    assert ref.depth_attempts == [1] * len(ref.depth_attempts)
    assert walk.attempted == len(ref.depth_attempts)
    assert ref.depth_accepts == [1] * accepted + [0] * (
        walk.attempted - accepted
    )


class TestAcceptanceWalk:
    @pytest.mark.parametrize("seed", range(6))
    def test_walk_equals_per_candidate_oracle(self, seed):
        """Randomised batches of three trees: each sequence's accepted
        tokens, hand-off row, bonus distribution and uniform, depth
        counts and RNG consumption equal the oracle walk's on its own
        target rows."""
        rng = np.random.default_rng(seed)
        vocab = 6  # small: duplicate draws and rejections are common
        seen = {"rejected": 0, "pruned": 0, "zero_q": 0, "duplicate": 0}
        for case in range(50):
            trees = [_random_tree(rng, vocab) for _ in range(3)]
            rows = []
            for tree in trees:
                probs = _target_rows(rng, tree.num_nodes + 1, vocab)
                _fit_dists(tree, probs, rng)
                rows.append(probs)
                seen["pruned"] += int((tree.cand_child < 0).sum())
                for a, b in zip(
                    tree.cand_offsets[:-1], tree.cand_offsets[1:]
                ):
                    span = tree.cand_tokens[a:b].tolist()
                    seen["duplicate"] += len(span) - len(set(span))
                owner = np.repeat(
                    np.arange(tree.num_nodes + 1), np.diff(tree.cand_offsets)
                )
                seen["zero_q"] += int(
                    (tree.node_dists[owner, tree.cand_tokens] == 0).sum()
                )
            streams = [
                [np.random.default_rng([seed, case, i]) for i in range(3)]
                for _ in range(2)
            ]
            walks = _walks(to_batch(trees), np.vstack(rows), streams[0])
            for tree, probs, walk, ours, theirs in zip(
                trees, rows, walks, *streams
            ):
                _assert_same_walk(walk, walk_acceptance(tree, probs, theirs))
                seen["rejected"] += walk.attempted - len(walk.accepted)
                assert ours.bit_generator.state == theirs.bit_generator.state
        assert min(seen.values()) > 0, seen

    def test_all_zero_residual_falls_back_to_the_target(self):
        """``q >= p`` everywhere: a rejection leaves nothing to
        renormalise, and both walks hand the bonus draw ``p`` itself."""
        p = np.array([0.5, 0.3, 0.2])
        q = p.copy()
        q[0] = 0.9  # accept probability 5/9
        probs = np.vstack([p, p])

        def one_candidate(child):
            nodes = [0] if child >= 0 else []
            return FlatDraftTree(
                tokens=_ints(nodes), parents=_ints([-1] * len(nodes)),
                depths=_ints([1] * len(nodes)),
                path_probs=np.ones(len(nodes)),
                cand_offsets=_ints([0, 1] + [1] * len(nodes)),
                cand_tokens=_ints([0]), cand_child=_ints([child]),
                node_dists=np.vstack([q, np.zeros((len(nodes), 3))]),
                draft_steps=len(nodes), draft_calls=0, rounds=0,
            )

        # A pruned candidate is skipped: only the bonus uniform is drawn.
        walk = _walk(one_candidate(-1), probs[:1], np.random.default_rng(0))
        assert (walk.attempted, walk.accepted) == (1, [])
        assert walk.bonus_dist.tobytes() == p.tobytes()
        tree = one_candidate(0)
        rejected = 0
        for seed in range(40):
            streams = [np.random.default_rng(seed) for _ in range(2)]
            walk = _walk(tree, probs, streams[0])
            _assert_same_walk(
                walk, walk_acceptance(tree, probs, streams[1])
            )
            if not walk.accepted:
                rejected += 1
                assert walk.bonus_dist.tobytes() == (p / p.sum()).tobytes()
        assert 0 < rejected < 40

    def test_empty_rows_mixed_with_sd_rows(self, target):
        """``verify_trees`` over vanilla rows (sequences with no nodes)
        joined with drafted trees equals each tree's oracle walk on its
        own target rows."""
        rng = np.random.default_rng(11)
        vocab = target.config.vocab_size
        window = target.config.context_window
        temperature = 0.9
        empty = FlatDraftTree(
            tokens=_ints([]), parents=_ints([]), depths=_ints([]),
            path_probs=np.ones(0), cand_offsets=_ints([0, 0]),
            cand_tokens=_ints([]), cand_child=_ints([]),
            node_dists=np.zeros((1, vocab)), draft_steps=0, draft_calls=0,
            rounds=0,
        )
        trees, prefixes, parts = [], [], []
        for i in range(12):
            prefixes.append([1] + rng.integers(3, vocab, size=i % 5).tolist())
            if i % 3 == 0:
                trees.append(empty)
                parts.append(DraftBatch.vanilla(1, vocab))
                continue
            tree = _random_tree(rng, vocab, topk=4)
            logits, _ = target.step(
                contexts_from_sequences(
                    flat_verify_rows(tree, prefixes[-1])[0], window
                )
            )
            _fit_dists(tree, temperature_probs(logits, temperature), rng)
            trees.append(tree)
            parts.append(to_batch([tree]))
        batch = DraftBatch.concat(parts)
        verdicts = verify_trees(
            target, batch, prefixes, temperature,
            [np.random.default_rng([11, i]) for i in range(12)],
        )
        sizes = np.diff(batch.starts).tolist()
        for i, (tree, prefix) in enumerate(zip(trees, prefixes)):
            logits, hiddens = target.step(
                contexts_from_sequences(
                    flat_verify_rows(tree, prefix)[0], window
                )
            )
            probs = temperature_probs(logits, temperature)
            ref = walk_acceptance(tree, probs, np.random.default_rng([11, i]))
            bonus = int(
                tokens_at_uniforms(
                    ref.bonus_dist[None], np.array([ref.bonus_uniform])
                )[0]
            )
            assert verdicts.accepted[i] == ref.accepted
            assert verdicts.bonus[i] == bonus
            assert verdicts.attempted[i] == len(ref.depth_attempts)
            assert sizes[i] == tree.num_nodes + 1
            assert np.array_equal(
                verdicts.handoffs[i],
                np.stack([h[ref.row] for h in hiddens], axis=0),
            )
