"""Draft-tree construction and parallel verification, one batch per tick.

Reproduces Figure 9 of the paper: starting from the committed prefix, the
drafter expands up to ``topk`` candidate children per node for up to
``draft_depth`` levels, spending a total node budget of
``tokens_to_verify``; the whole tree is then submitted to the target model
in one batched forward pass and accepted along a single root-to-leaf path
with the multi-round rule.

A tick's trees never exist one by one.  :func:`build_draft_trees` returns
them as one :class:`DraftBatch`: batch-wide, verification-ordered rows
(each sequence's prefix row, then its selected nodes by level), per-row
tokens and parent rows, a CSR candidate table and one draft distribution
per row, plus per-sequence launch counts.  ``tests/_tree_oracle.py``
keeps the per-tree views derived from it (levels, children, the
tree-attention mask, token paths).

The builder grows EVERY live sequence's tree in lock-step inside one set
of ``(batch, slots)`` tables (:class:`_LockStepTrees`): nodes, candidate
lists and drafter states are written in place, a round's decisions for
all live sequences are a handful of array operations, and the batch's
rows are cut out of the tables by one stable depth sort.  A node's
drafter state is only computed when the node is expanded, by the fused
:meth:`~repro.drafter.base.Drafter.extend_propose_batch` launch that also
yields its proposal, so the drafter launches per cycle are

* ``sample`` mode — ``1 + max(rounds)``: one ``begin_batch``, one root
  proposal, one fused launch per further best-first expansion round
  (a sequence's ``rounds`` counts its root proposal and each expansion,
  at most ``1 + tokens_to_verify``);
* ``topk`` mode — at most ``1 + draft_depth``: one ``begin_batch``, one
  root proposal, one fused launch per level below the first, laid out
  ahead of time by a :class:`GrowMap` (TriForce style).

Both modes commit tokens byte-identical to building each tree alone, node
by node, under the same seeds (``tests/_tree_oracle.py`` is that
reference).

:func:`verify_trees` verifies a whole batch in one target forward.  A
sequence with no nodes (:meth:`DraftBatch.vanilla`) is how vanilla
decoding rides the same launch: its walk samples one token at its
prefix row.

Expansion is *best-first* on cumulative draft confidence and
**all-or-nothing per node**: once a node's candidates are drawn, every one
of them is verified.  (Pruning an already-drawn candidate would condition
its participation on its drawn value, which breaks the ``c_i ~ q_i``
premise of the multi-round acceptance theorem and biases the output; the
budget therefore gates which nodes get *expanded*, never which drawn
candidates are kept.)

Two child-expansion modes are supported:

* ``"sample"`` (default) — children are i.i.d. draws from the drafter's
  distribution; combined with the multi-round acceptance rule
  (:mod:`repro.specdec.acceptance`) this is *provably lossless* for any
  temperature.
  Expansion is best-first and all-or-nothing under the verification
  budget (see above).
* ``"topk"`` — EAGLE-2-style deterministic build: level-wise beam
  expansion of the most confident nodes followed by top-``V`` reranking
  across the whole tree (so a confident drafter yields deep chains even
  at small verification budgets).  Exact under greedy decoding — which is
  how the paper runs its hyper-parameter grid (Figure 13, "we set
  temperature=0") — and a high-accept-length approximation otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    List,
    Literal,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.drafter.base import Drafter
from repro.errors import SpecDecodeError
from repro.llm.model import TinyLM
from repro.llm.sampler import temperature_probs, tokens_at_uniforms
from repro.llm.vocab import EOS_ID, PAD_ID
from repro.specdec.acceptance import (
    RESIDUAL_EPS,
    batched_inverse_cdf_draws,
)
from repro.specdec.strategy import SdStrategy

ChildMode = Literal["sample", "topk"]


@dataclass(frozen=True)
class GrowMap:
    """Precomputed level-order layout of a ``topk``-mode draft tree.

    TriForce-style: the deterministic beam build visits levels of known
    maximum width, so the table sizes (and the number of batched drafter
    launches — one per level) are fixed before drafting starts.

    Attributes:
        depth: number of tree levels (``strategy.draft_depth``).
        branch: beam width — parents expanded per level and candidates
            proposed per parent (``strategy.topk``).
        level_width: maximum nodes materialised per level below the root
            (the EAGLE-2 rerank cut).
        capacities: maximum nodes per level, root level first.
    """

    depth: int
    branch: int
    level_width: int
    capacities: Tuple[int, ...]

    @classmethod
    def from_strategy(cls, strategy: SdStrategy) -> "GrowMap":
        """Layout implied by ``(draft_depth, topk, tokens_to_verify)``."""
        level_width = max(
            strategy.topk, min(strategy.tokens_to_verify, 32)
        )
        capacities = (strategy.topk,) + (level_width,) * (
            strategy.draft_depth - 1
        )
        return cls(
            depth=strategy.draft_depth,
            branch=strategy.topk,
            level_width=level_width,
            capacities=capacities,
        )

    @property
    def max_nodes(self) -> int:
        """Upper bound on drafted nodes before top-N selection."""
        return int(sum(self.capacities))


@dataclass
class DraftBatch:
    """A tick's draft trees as batch-wide, verification-ordered arrays.

    Sequence ``b`` owns rows ``starts[b]:starts[b + 1]``: its prefix row
    (the committed prefix — the root distribution and the fallback
    hand-off), then one row per selected node sorted by ``(depth,
    creation index)``, so parents precede children.  A sequence with no
    nodes, a vanilla decode step, is its prefix row alone.  Rows are
    batch-wide: ``parents`` and ``cand_child`` name rows of this batch.

    Row ``r``'s candidates — the tokens drawn below it — span
    ``cand_offsets[r]:cand_offsets[r + 1]``.  They were all drawn from
    the one distribution ``node_dists[r]`` (i.i.d. draws in ``sample``
    mode, a top-k cut in ``topk`` mode).  A candidate whose child was
    pruned or never created has ``cand_child == -1``, which is exactly
    what the acceptance walk needs to skip it; duplicate draws share the
    first occurrence's child, as the multi-round rule requires.

    Attributes:
        tokens: ``(R,)`` drafted token per row (0 at a prefix row).
        parents: ``(R,)`` parent row (-1 at a prefix row).
        depths: ``(R,)`` node depth (0 at a prefix row, 1 = root
            children).
        path_probs: ``(R,)`` cumulative draft confidence (1 at a prefix
            row).
        cand_offsets: ``(R + 1,)`` CSR offsets of the candidate lists.
        cand_tokens: ``(C,)`` candidate token per candidate entry.
        cand_child: ``(C,)`` row of each candidate's selected child, or -1.
        node_dists: ``(R, V)``: the draft distribution row ``r``'s
            candidates were drawn from (zeros for a row with none).
        starts: ``(B + 1,)`` each sequence's prefix row, then ``R``.
        rounds: ``(B,)`` batched launches after ``begin_batch`` each
            sequence took part in: its root proposal plus one fused
            launch per round it grew (0 for a vanilla row).  They do not
            depend on what else shares the batch, and sequences drafted
            as a batch of their own cost ``1 + max(rounds)`` launches.
        draft_steps: ``(B,)`` nodes drafted per sequence before selection
            (one extension each on the per-node path).
        draft_calls: ``(B,)`` drafter launches the per-node path would
            have issued per sequence (begin + proposes + extends) — the
            baseline the engine's ``draft_launches_saved`` is measured
            against.
    """

    tokens: np.ndarray
    parents: np.ndarray
    depths: np.ndarray
    path_probs: np.ndarray
    cand_offsets: np.ndarray
    cand_tokens: np.ndarray
    cand_child: np.ndarray
    node_dists: np.ndarray
    starts: np.ndarray
    rounds: np.ndarray
    draft_steps: np.ndarray
    draft_calls: np.ndarray

    @classmethod
    def vanilla(cls, count: int, vocab: int) -> "DraftBatch":
        """``count`` sequences with no nodes: one vanilla decode step each.

        Verifying one draws one uniform at its prefix row, the same draw
        and inverse-CDF lookup as sampling that row alone, and hands off
        the prefix row — the hidden stack at the pre-commit last
        position, so a later switch to SD pays no re-prefill.
        """
        zeros = np.zeros(count, dtype=np.int64)
        return cls(
            tokens=zeros, parents=np.full(count, -1), depths=zeros,
            path_probs=np.ones(count),
            cand_offsets=np.zeros(count + 1, dtype=np.int64),
            cand_tokens=zeros[:0], cand_child=zeros[:0],
            node_dists=np.zeros((count, vocab)),
            starts=np.arange(count + 1), rounds=zeros, draft_steps=zeros,
            draft_calls=zeros,
        )

    @classmethod
    def concat(cls, parts: Sequence["DraftBatch"]) -> "DraftBatch":
        """The parts' sequences as one batch, in order (rows renamed)."""
        if len(parts) == 1:
            return parts[0]
        rows = np.cumsum([0] + [part.tokens.shape[0] for part in parts])
        cands = np.cumsum([0] + [part.cand_tokens.shape[0] for part in parts])
        renamed = {"parents": rows, "cand_child": rows}
        offsets = {"starts": rows, "cand_offsets": cands}
        joined = {}
        for name in (f.name for f in fields(cls)):
            arrays = [getattr(part, name) for part in parts]
            if name in offsets:
                shift = offsets[name]
                arrays = [a[:-1] + s for a, s in zip(arrays, shift)]
                arrays.append(shift[-1:])
            elif name in renamed:
                arrays = [
                    np.where(a >= 0, a + s, -1)
                    for a, s in zip(arrays, renamed[name])
                ]
            joined[name] = np.concatenate(arrays)
        return cls(**joined)


class Verdicts(NamedTuple):
    """What one :func:`verify_trees` launch decided, one entry per
    sequence of its batch.

    Attributes:
        accepted: accepted draft tokens, in order (bonus excluded).
        bonus: the token the target adds after them — sampled from the
            full target distribution at a leaf, or from the final
            residual after every candidate was rejected.
        handoffs: exact target hidden stack ``(num_layers, hidden_size)``
            at the position *before* the bonus token, the drafter
            hand-off for the next cycle; each an owned array.
        attempted: draft depths at which an acceptance round ran; the
            first ``len(accepted)`` of them succeeded.
    """

    accepted: List[List[int]]
    bonus: List[int]
    handoffs: List[np.ndarray]
    attempted: List[int]


class _LockStepTrees:
    """One cycle's draft trees, grown in place in ``(batch, slots)`` tables.

    Slot 0 of every sequence is its implicit root (depth 0, confidence
    1, its ``begin_batch`` row).  Each round of growth appends one *block* of
    slots — the same columns for every sequence — and ``made`` marks
    which of them hold a node, so a round is a handful of whole-table
    operations with no per-sequence compaction, and slot order is
    creation order.  A parent pointer, a candidate list and a drafter
    state are all addressed by ``(sequence, slot)``; the last slot is
    scratch, where a sequence that has stopped growing parks the writes
    of rounds it sits out.  The two child modes differ only in how they
    turn a round's proposals into a block and pick the next parents;
    adding blocks, recording candidates, launching the drafter and
    cutting out the :class:`DraftBatch` are shared.
    """

    def __init__(
        self,
        drafter: Drafter,
        prefixes: Sequence[Sequence[int]],
        last_hiddens: Sequence[Optional[np.ndarray]],
        temperature: float,
        capacity: int,
        width: int,
    ) -> None:
        self.drafter = drafter
        self.temperature = temperature
        self.batch = batch = len(prefixes)
        # Kept beside the table: a contiguous block for the root proposal.
        self._roots = drafter.begin_batch(prefixes, last_hiddens)
        #: Launches each sequence took part in (the root proposal first).
        self.rounds = np.ones(batch, dtype=np.int64)
        slots = capacity + 2
        self.scratch = capacity + 1
        self.next_slot = 1
        self.states = np.empty(
            (batch, slots) + self._roots.shape[1:], dtype=self._roots.dtype
        )
        self.states[:, 0] = self._roots
        self.tokens = np.zeros((batch, slots), dtype=np.int64)
        self.parents = np.zeros((batch, slots), dtype=np.int64)
        self.depths = np.zeros((batch, slots), dtype=np.int64)
        self.path_probs = np.ones((batch, slots), dtype=np.float64)
        self.made = np.zeros((batch, slots), dtype=bool)
        #: Proposals the per-node path would have spent per sequence.
        self.proposes = np.zeros(batch, dtype=np.int64)
        self.cand_tokens = np.zeros((batch, slots, width), dtype=np.int64)
        #: Slot of each candidate's materialised child; 0 (the root, never
        #: a child) marks a candidate without one.
        self.cand_child = np.zeros((batch, slots, width), dtype=np.int64)
        self.cand_count = np.zeros((batch, slots), dtype=np.int64)
        #: The distribution each slot's candidates were drawn from.
        self.node_dists: Optional[np.ndarray] = None

    def propose_roots(self) -> np.ndarray:
        """``(batch, V)`` proposals below every root (one launch)."""
        probs = self.drafter.propose_batch(self._roots, self.temperature)
        self.node_dists = np.empty(
            self.cand_count.shape + probs.shape[1:], dtype=np.float64
        )
        return probs

    def launch(self, seq: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Compute the states of ``slot`` nodes and propose below them.

        One fused drafter launch: each node's state is its parent's
        (already expanded, so already in the table) extended by the
        node's token.  Returns the ``(len(seq), V)`` proposals.
        """
        states, probs = self.drafter.extend_propose_batch(
            self.states[seq, self.parents[seq, slot]],
            self.tokens[seq, slot],
            self.temperature,
        )
        self.states[seq, slot] = states
        # Once per sequence: fancy ``+=`` does not accumulate repeats.
        self.rounds[seq] += 1
        return probs

    def add_block(
        self,
        tokens: np.ndarray,
        parents: np.ndarray,
        depths: np.ndarray,
        path_probs: np.ndarray,
        made: np.ndarray,
    ) -> int:
        """Append one ``(batch, width)`` block of slots; return its first.

        Entries outside ``made`` are placeholders no later step reads.
        """
        first = self.next_slot
        block = slice(first, first + tokens.shape[1])
        self.tokens[:, block] = tokens
        self.parents[:, block] = parents
        self.depths[:, block] = depths
        self.path_probs[:, block] = path_probs
        self.made[:, block] = made
        self.next_slot = block.stop
        return first

    def record_candidates(
        self,
        seq: np.ndarray,
        slot: np.ndarray,
        tokens: np.ndarray,
        children: np.ndarray,
        counts: np.ndarray,
        dists: np.ndarray,
    ) -> None:
        """Store the candidate lists drawn below ``(seq, slot)`` pairs."""
        self.cand_tokens[seq, slot] = tokens
        self.cand_child[seq, slot] = children
        self.cand_count[seq, slot] = counts
        self.node_dists[seq, slot] = dists

    def emit(self, keep: np.ndarray, max_depth: int) -> DraftBatch:
        """Cut the kept nodes out of the tables as one :class:`DraftBatch`.

        One stable sort by ``(sequence, depth)`` over the kept slots plus
        every root puts the rows in verification order, each sequence's
        root first; one ``(batch, slots)`` lookup then maps slots to rows
        and reads -1 for every dropped node.
        """
        keep = keep.copy()
        keep[:, 0] = True
        seq, slot = keep.nonzero()
        depth = self.depths[seq, slot]
        order = (seq * (max_depth + 1) + depth).argsort(kind="stable")
        seq, slot, depth = seq[order], slot[order], depth[order]
        starts = np.zeros(self.batch + 1, dtype=np.int64)
        keep.sum(axis=1).cumsum(out=starts[1:])
        row_of = np.full(keep.shape, -1, dtype=np.int64)
        row_of[seq, slot] = np.arange(seq.shape[0])
        parents = row_of[seq, self.parents[seq, slot]]
        parents[starts[:-1]] = -1
        row_of[:, 0] = -1  # a candidate naming the root has no child

        counts = self.cand_count[seq, slot]
        offsets = np.zeros(seq.shape[0] + 1, dtype=np.int64)
        counts.cumsum(out=offsets[1:])
        of_slot = np.arange(seq.shape[0]).repeat(counts)
        row_seq, row_slot = seq[of_slot], slot[of_slot]
        column = np.arange(offsets[-1]) - offsets[of_slot]
        # One row per kept slot; a slot that drew nothing reads zeros.
        node_dists = self.node_dists[seq, slot]
        node_dists[counts == 0] = 0.0
        draft_steps = self.made.sum(axis=1)
        return DraftBatch(
            tokens=self.tokens[seq, slot],
            parents=parents,
            depths=depth,
            path_probs=self.path_probs[seq, slot],
            cand_offsets=offsets,
            cand_tokens=self.cand_tokens[row_seq, row_slot, column],
            cand_child=row_of[
                row_seq, self.cand_child[row_seq, row_slot, column]
            ],
            node_dists=node_dists,
            starts=starts,
            rounds=self.rounds,
            draft_steps=draft_steps,
            draft_calls=1 + self.proposes + draft_steps,
        )


def _grow_sampled(
    trees: _LockStepTrees,
    strategy: SdStrategy,
    rngs: Sequence[np.random.Generator],
) -> None:
    """Lossless best-first growth, one expansion per sequence per round.

    Each round every growing sequence draws ``topk`` i.i.d. candidates
    below its pending parent from its private ``rng`` — before the
    budget check, and in sequence order, exactly as the per-node path
    consumes the streams — then either materialises ALL unique draws or
    discards the whole draw when they would exceed the budget (the
    decision never selects among drawn values, see the module
    docstring).  The next parent is the open node of highest confidence;
    ``argmax`` returns the first maximum, i.e. the earliest-created of
    equally confident nodes, which is the order a ``(-confidence,
    creation counter)`` heap pops them in.

    Round ``r``'s draws fill block ``r`` (``topk`` slots, duplicates and
    discarded draws left unmade).  Sequences that have stopped growing
    stay in the arrays: their rows compute placeholders, are masked out
    of ``made`` and record into the scratch slot.
    """
    budget, topk = strategy.tokens_to_verify, strategy.topk
    batch = trees.batch
    rows = np.arange(batch)
    draw_index = np.arange(topk)
    # Confidence of each made, expandable, not yet expanded node.
    frontier = np.full(trees.made.shape, -1.0)
    uniforms = np.zeros((batch, topk))
    counts = np.zeros(batch, dtype=np.int64)
    growing = np.ones(batch, dtype=bool)
    live = rows
    pending = np.zeros(batch, dtype=np.int64)
    depth = np.ones(batch, dtype=np.int64)
    parent_prob = np.ones(batch)
    probs = trees.propose_roots()
    while True:
        for b in live.tolist():
            rngs[b].random(out=uniforms[b])
        draws = batched_inverse_cdf_draws(probs, uniforms)
        # Duplicate draws share the first occurrence's child.
        first = (draws[:, :, None] == draws[:, None, :]).argmax(axis=2)
        fresh = (first == draw_index) & growing[:, None]
        grown = counts + fresh.sum(axis=1)
        fits = grown <= budget
        np.copyto(counts, grown, where=fits)
        made = fresh & fits[:, None]
        path_prob = parent_prob[:, None] * probs[rows[:, None], draws]
        block = trees.add_block(
            draws, pending[:, None], depth[:, None], path_prob, made
        )
        frontier[:, block : block + topk] = np.where(
            made
            & (draws != EOS_ID)
            & (depth < strategy.draft_depth)[:, None],
            path_prob,
            -1.0,
        )
        trees.record_candidates(
            rows,
            np.where(growing, pending, trees.scratch),
            draws,
            first + block,
            fits * topk,
            probs,
        )
        trees.proposes += growing

        pending = frontier.argmax(axis=1)
        parent_prob = frontier[rows, pending]
        growing = (parent_prob >= 0.0) & (counts < budget)
        live = growing.nonzero()[0]
        if not live.size:
            return
        frontier[rows, pending] = -1.0
        depth = trees.depths[rows, pending] + 1
        probs[live] = trees.launch(live, pending[live])


def _grow_topk(trees: _LockStepTrees, grow_map: GrowMap) -> None:
    """EAGLE-2-style beam growth, one level of every sequence per round.

    Per level the ``branch`` most confident nodes of the previous level
    are expanded, every proposed token enters its parent's candidate
    list, and the most confident ``level_width`` candidates (stable
    order: parent-major, then token rank) become the level's block.  A
    block is filled in descending confidence, so its beam is simply its
    first ``branch`` nodes; EOS nodes in the beam are skipped, not
    replaced (their board columns stay empty).
    """
    batch, branch = trees.batch, grow_map.branch
    rank = np.arange(branch)
    rows = np.arange(batch)[:, None]
    # Proposal row -> sequence, expanded slot, position in the beam.
    seq, parent = np.arange(batch), np.zeros(batch, dtype=np.int64)
    place = np.zeros(batch, dtype=np.int64)
    probs = trees.propose_roots()
    for depth in range(1, grow_map.depth + 1):
        proposals = seq.shape[0]
        proposal = np.arange(proposals)
        trees.proposes += np.bincount(seq, minlength=batch)
        order = (-probs).argsort(axis=1, kind="stable")[:, :branch]
        cand_prob = probs[proposal[:, None], order]
        valid = cand_prob > 0.0
        # Rerank each sequence's candidates on one board row and cut.
        beam = 1 if depth == 1 else branch
        board = np.full((batch, beam * branch), -np.inf)
        board[seq[:, None], place[:, None] * branch + rank] = np.where(
            valid,
            trees.path_probs[seq, parent][:, None] * cand_prob,
            -np.inf,
        )
        top = (-board).argsort(axis=1, kind="stable")[
            :, : grow_map.capacities[depth - 1]
        ]
        top_prob = board[rows, top]
        made = top_prob > -np.inf
        row_of = np.zeros((batch, beam), dtype=np.int64)
        row_of[seq, place] = proposal
        from_row, from_col = row_of[rows, top // branch], top % branch
        tokens = order[from_row, from_col]
        block = trees.add_block(
            tokens, parent[from_row], depth, top_prob, made
        )
        # Unmade board entries write their child into a scratch row.
        children = np.zeros((proposals + 1, branch), dtype=np.int64)
        children[np.where(made, from_row, proposals), from_col] = (
            block + np.arange(top.shape[1])
        )
        trees.record_candidates(
            seq, parent, order, children[:proposals], valid.sum(axis=1),
            probs,
        )
        if depth == grow_map.depth:
            return
        expand = made[:, :branch] & (tokens[:, :branch] != EOS_ID)
        seq, place = expand.nonzero()
        if not seq.size:
            return
        parent = block + place
        probs = trees.launch(seq, parent)


def _select_top_connected(trees: _LockStepTrees, budget: int) -> np.ndarray:
    """``(batch, slots)`` mask of each tree's ``budget`` best nodes.

    Nodes rank by ``(-confidence, depth, creation index)``.  A child's
    confidence is its parent's times a probability, so it never exceeds
    the parent's, and on a tie the shallower parent ranks first: every
    prefix of the ranking is a connected subtree.
    """
    if trees.made.sum(axis=1).max() <= budget:
        return trees.made  # nothing to cut
    ranking = np.lexsort(
        (trees.depths, np.where(trees.made, -trees.path_probs, np.inf)),
        axis=1,
    )
    keep = np.zeros(trees.made.shape, dtype=bool)
    np.put_along_axis(keep, ranking[:, :budget], True, axis=1)
    return keep & trees.made


def build_draft_trees(
    drafter: Drafter,
    prefixes: Sequence[Sequence[int]],
    last_hiddens: Sequence[Optional[np.ndarray]],
    strategy: SdStrategy,
    temperature: float,
    rngs: Sequence[np.random.Generator],
    child_mode: ChildMode = "sample",
) -> DraftBatch:
    """Draft every live sequence's candidate tree in lock-step.

    All trees grow together in shared tables through batched drafter
    calls — ``1 + max(rounds)`` launches in ``sample`` mode, at most
    ``1 + draft_depth`` in ``topk`` mode (see the module docstring) —
    and each sequence's private ``rng`` is consumed in exactly the
    per-node order, so committed tokens are byte-identical to building
    each tree alone under the same seeds.

    Args:
        drafter: the draft model.
        prefixes: committed sequence per live slot.
        last_hiddens: target hidden hand-off per live slot.
        strategy: ``(draft_depth, topk, tokens_to_verify)``.
        temperature: sampling temperature shared with the target.
        rngs: per-sequence random streams (used in ``sample`` mode).
        child_mode: ``"sample"`` (lossless) or ``"topk"`` (EAGLE-2 style).

    Returns:
        One :class:`DraftBatch` holding every sequence, in order.  A
        sequence's rows are bitwise what any sub-batch holding it builds,
        and the build issued ``1 + max(rounds)`` drafter launches (the
        per-node baseline is ``draft_calls.sum()``).
    """
    if not (len(prefixes) == len(last_hiddens) == len(rngs)):
        raise SpecDecodeError(
            "prefixes, last_hiddens and rngs must have equal lengths, "
            f"got {len(prefixes)}/{len(last_hiddens)}/{len(rngs)}"
        )
    if not prefixes:
        return DraftBatch.vanilla(0, 0)
    if child_mode == "sample":
        # At most one expansion per node plus the root's, ``topk`` slots each.
        trees = _LockStepTrees(
            drafter, prefixes, last_hiddens, temperature,
            capacity=(strategy.tokens_to_verify + 1) * strategy.topk,
            width=strategy.topk,
        )
        _grow_sampled(trees, strategy, rngs)
        keep = trees.made
    elif child_mode == "topk":
        grow_map = GrowMap.from_strategy(strategy)
        trees = _LockStepTrees(
            drafter, prefixes, last_hiddens, temperature,
            capacity=grow_map.max_nodes, width=grow_map.branch,
        )
        _grow_topk(trees, grow_map)
        keep = _select_top_connected(trees, strategy.tokens_to_verify)
    else:
        raise SpecDecodeError(f"unknown child mode {child_mode!r}")
    return trees.emit(keep, strategy.draft_depth)


def _verify_contexts(
    batch: DraftBatch, prefixes: Sequence[Sequence[int]], window: int
) -> np.ndarray:
    """``(rows, window)`` context block of a batch's verification rows.

    A prefix row holds the tail of its committed prefix.  A node's
    context is its parent's shifted left by one token with the node's
    token appended, so the block is filled straight from
    ``parents``/``tokens`` — no token paths are materialised: every pass
    copies all parents' contexts at once, and after ``d`` passes the
    rows of depth ``<= d`` are final.
    """
    contexts = np.full(
        (batch.tokens.shape[0], window), PAD_ID, dtype=np.int64
    )
    for first, prefix in zip(batch.starts[:-1].tolist(), prefixes):
        tail = prefix[-window:]
        if not len(tail):
            raise SpecDecodeError("prefix must be non-empty")
        contexts[first, window - len(tail) :] = tail
    nodes = np.flatnonzero(batch.parents >= 0)
    parents = batch.parents[nodes]
    contexts[nodes, -1] = batch.tokens[nodes]
    for _ in range(int(batch.depths.max())):
        contexts[nodes, :-1] = contexts[parents, 1:]
    return contexts


def verify_trees(
    target: TinyLM,
    batch: DraftBatch,
    prefixes: Sequence[Sequence[int]],
    temperature: float,
    rngs: Sequence[np.random.Generator],
) -> Verdicts:
    """Verify a batch's draft trees in ONE target forward pass.

    This is the continuous-batching amortisation: every row of the batch
    — each sequence's prefix row plus one per selected node — goes
    through a single batched :meth:`~repro.llm.model.TinyLM.step`
    launch, then each sequence walks its own acceptance path with its
    own random stream.  Row results are identical to verifying each
    sequence alone, so committed tokens do not depend on the batch.  A
    sequence with no nodes is a vanilla decode step.

    Args:
        target: the target model.
        batch: the draft trees, one sequence per live slot.
        prefixes: committed prefix per sequence.
        temperature: shared sampling temperature.
        rngs: per-sequence random streams (acceptance + bonus sampling).

    Returns:
        The :class:`Verdicts`, one entry per sequence in order; every
        sequence commits its accepted tokens and then its bonus token,
        which preserves the target distribution exactly in ``sample``
        child mode.
    """
    if not (len(batch.rounds) == len(prefixes) == len(rngs)):
        raise SpecDecodeError(
            "the batch, prefixes and rngs must have equal lengths, got "
            f"{len(batch.rounds)}/{len(prefixes)}/{len(rngs)}"
        )
    if not prefixes:
        return Verdicts([], [], [], [])
    contexts = _verify_contexts(
        batch, prefixes, target.config.context_window
    )
    logits, hiddens = target.step(contexts)
    probs = temperature_probs(logits, temperature)
    accepted, rows, dists, uniforms, attempted = _walk_acceptance(
        batch, probs, rngs
    )
    # Only each sequence's hand-off row is kept: gather those, not every row.
    handoffs = np.stack([h[rows] for h in hiddens], axis=1)
    # Every walk drew its own bonus uniform; the lookups share one pass.
    bonus = tokens_at_uniforms(np.array(dists), np.array(uniforms)).tolist()
    # Each slot owns its (L, d) row, never a view of the batch's block.
    return Verdicts(accepted, bonus, [h.copy() for h in handoffs], attempted)


def _walk_acceptance(
    batch: DraftBatch, probs: np.ndarray, rngs: Sequence[np.random.Generator]
) -> Tuple[list, ...]:
    """Run every sequence's multi-round acceptance walk over its rows.

    ``probs`` holds the target's distribution at every row of the batch.
    A walk starts at its sequence's prefix row, and a row's candidate
    list is also where its children are found, so the walk needs no row
    map.  At each level the row's candidates are tried in order against
    the one draft distribution ``q`` they were drawn from
    (:mod:`repro.specdec.acceptance` states the rule): candidate ``x`` is
    accepted with probability ``min(1, p(x) / q(x))``, and only a
    rejection forms the residual ``norm(max(p - q, 0))`` that the next
    candidate is tried against.  Candidates with ``cand_child == -1``
    (pruned or never materialised) and candidates with ``q(x) = 0`` are
    skipped without a draw; duplicate draws stay in (sharing the first
    occurrence's child), as the multi-round rule requires.  Each walk
    ends by drawing the uniform that picks the bonus token from the full
    target distribution (at a leaf) or from the final residual (after
    every candidate was rejected); a sequence with no nodes draws that
    uniform and nothing else.

    Returns, per sequence: the accepted tokens, the row the walk ended
    on (its hand-off row), the distribution and the uniform of its bonus
    draw, and the number of acceptance rounds it ran.  The candidate
    table is read through lists made once per batch.
    """
    offsets = batch.cand_offsets.tolist()
    children = batch.cand_child.tolist()
    cand_tokens = batch.cand_tokens.tolist()
    walks = []
    for row, rng in zip(batch.starts[:-1].tolist(), rngs):
        accepted: List[int] = []
        attempted = 0
        while True:
            current = probs[row]
            start, end = offsets[row], offsets[row + 1]
            if start == end:
                break
            attempted += 1
            q = batch.node_dists[row]
            chosen = -1
            for c in range(start, end):
                if children[c] < 0:
                    continue
                token = cand_tokens[c]
                q_tok = float(q[token])
                if q_tok <= 0.0:
                    continue  # no draft mass: nothing to test or subtract
                if rng.random() < min(1.0, float(current[token]) / q_tok):
                    chosen = c
                    break
                residual = current - q
                np.maximum(residual, 0.0, out=residual)
                total = residual.sum()
                if total <= RESIDUAL_EPS:
                    # Only p == q empties the residual, and then a rejection
                    # has probability zero; under rounding keep the target.
                    current = current / current.sum()
                else:
                    residual /= total
                    current = residual
            if chosen < 0:
                break
            accepted.append(cand_tokens[chosen])
            row = children[chosen]
        walks.append((accepted, row, current, rng.random(), attempted))
    return tuple(map(list, zip(*walks)))
