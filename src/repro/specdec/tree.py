"""Draft-tree construction and parallel verification, array-resident.

Reproduces Figure 9 of the paper: starting from the committed prefix, the
drafter expands up to ``topk`` candidate children per node for up to
``draft_depth`` levels, spending a total node budget of
``tokens_to_verify``; the whole tree is then submitted to the target model
in one batched forward pass and accepted along a single root-to-leaf path
with the multi-round rule.

A finished tree is a :class:`FlatDraftTree`: contiguous, level-ordered
per-node arrays (tokens, parent indices, depths, cumulative draft
confidences) plus a CSR candidate table and an ancestor/tree-attention
mask helper.  Node ``i``'s verification row is simply row ``i + 1``.

:func:`build_draft_trees` grows EVERY live sequence's tree in lock-step
inside one set of ``(batch, slots)`` tables (:class:`_LockStepTrees`):
nodes, candidate lists and drafter states are written in place, a round's
decisions for all live sequences are a handful of array operations, and
the flat trees are cut out of the tables by one stable depth sort.  A
node's drafter state is only computed when the node is expanded, by the
fused :meth:`~repro.drafter.base.Drafter.extend_propose_batch` launch that
also yields its proposal, so the drafter launches per cycle are

* ``sample`` mode — ``1 + rounds``: one ``begin_batch``, one root
  proposal, one fused launch per further best-first expansion round
  (``rounds`` is the largest number of expansions any live sequence
  makes, at most ``1 + tokens_to_verify``);
* ``topk`` mode — at most ``1 + draft_depth``: one ``begin_batch``, one
  root proposal, one fused launch per level below the first, laid out
  ahead of time by a :class:`GrowMap` (TriForce style).

Both modes commit tokens byte-identical to building each tree alone, node
by node, under the same seeds (``tests/_tree_oracle.py`` is that
reference).

:func:`verify_trees` verifies any number of trees in one target
forward.  The zero-node :data:`EMPTY_TREE` is how vanilla decoding rides
the same launch: its walk samples one token at the prefix row.

Expansion is *best-first* on cumulative draft confidence and
**all-or-nothing per node**: once a node's candidates are drawn, every one
of them is verified.  (Pruning an already-drawn candidate would condition
its participation on its drawn value, which breaks the ``c_i ~ q_i``
premise of the multi-round acceptance theorem and biases the output; the
budget therefore gates which nodes get *expanded*, never which drawn
candidates are kept.)

Two child-expansion modes are supported:

* ``"sample"`` (default) — children are i.i.d. draws from the drafter's
  distribution; combined with :func:`~repro.specdec.acceptance.
  multi_round_accept` this is *provably lossless* for any temperature.
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

from dataclasses import dataclass
from typing import (
    Dict,
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
    batched_inverse_cdf_draws,
    multi_round_accept,
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
class FlatDraftTree:
    """Flat, level-ordered tensor layout of a selected draft tree.

    Nodes are stored in verification order — sorted by ``(depth, creation
    index)`` — so node ``i``'s verification row is row ``i + 1`` (row 0 is
    the committed prefix) and parents always precede children.  Only nodes
    that survived top-N selection are materialised; candidates whose child
    was pruned (or never created) keep their row in the candidate table
    with ``cand_child == -1``, which is exactly what the lossless
    acceptance walk needs to skip them without re-deriving tree structure.

    Candidate slots are CSR-packed: slot 0 holds the root's candidate
    list and slot ``i + 1`` holds node ``i``'s, so slot ``s`` spans rows
    ``cand_offsets[s]:cand_offsets[s + 1]``.

    Attributes:
        tokens: ``(N,)`` drafted token per node.
        parents: ``(N,)`` flat parent index per node (-1 = root).
        depths: ``(N,)`` node depth (1 = root children), non-decreasing.
        path_probs: ``(N,)`` cumulative draft confidence per node.
        cand_offsets: ``(N + 2,)`` CSR offsets of the candidate slots.
        cand_tokens: ``(C,)`` candidate token per candidate row.
        cand_child: ``(C,)`` flat index of the materialised selected child
            for each candidate row, or -1 (duplicate draws share the first
            occurrence's child, as the multi-round rule requires).
        cand_dists: ``(C, V)`` draft distribution per candidate row.
        draft_steps: nodes drafted for this tree before selection (one
            ``extend`` each on the per-node path).
        draft_calls: drafter launches the per-node path would have issued
            for this tree (begin + proposes + extends) — the baseline the
            engine's ``draft_launches_saved`` counter is measured against.
        rounds: batched launches after ``begin`` this tree took part in:
            its root proposal plus one fused launch per round it grew.
            It does not depend on what else shares the batch, and trees
            built as a batch of their own cost ``1 + max(rounds)``.
    """

    tokens: np.ndarray
    parents: np.ndarray
    depths: np.ndarray
    path_probs: np.ndarray
    cand_offsets: np.ndarray
    cand_tokens: np.ndarray
    cand_child: np.ndarray
    cand_dists: np.ndarray
    draft_steps: int
    draft_calls: int
    rounds: int

    @property
    def num_nodes(self) -> int:
        """Number of materialised (selected) nodes."""
        return int(self.tokens.shape[0])

    @property
    def max_depth(self) -> int:
        """Deepest materialised level (0 for an empty tree)."""
        return int(self.depths[-1]) if self.num_nodes else 0

    @property
    def node_dist_row(self) -> np.ndarray:
        """``(N,)`` candidate row each node's token was first drawn from.

        Node ``i``'s draft distribution is ``cand_dists[node_dist_row[i]]``.
        """
        # Assign in reverse so the earliest row naming a node sticks.
        named = np.flatnonzero(self.cand_child >= 0)[::-1]
        rows = np.full(self.num_nodes, -1, dtype=np.int64)
        rows[self.cand_child[named]] = named
        return rows

    @property
    def level_offsets(self) -> np.ndarray:
        """``(max_depth + 1,)`` cumulative node counts per level.

        Depth-``d`` nodes occupy ``level_offsets[d - 1]:level_offsets[d]``.
        """
        return np.searchsorted(
            self.depths, np.arange(self.max_depth + 1), side="right"
        )

    def level_slice(self, depth: int) -> slice:
        """Contiguous flat-index range of the nodes at ``depth``."""
        if not 1 <= depth <= self.max_depth:
            raise SpecDecodeError(
                f"depth must be in [1, {self.max_depth}], got {depth}"
            )
        offsets = self.level_offsets
        return slice(int(offsets[depth - 1]), int(offsets[depth]))

    def children_of(self, index: int) -> List[int]:
        """Flat indices of ``index``'s materialised children (-1 = root)."""
        slot = index + 1
        start = int(self.cand_offsets[slot])
        end = int(self.cand_offsets[slot + 1])
        children: List[int] = []
        for row in range(start, end):
            child = int(self.cand_child[row])
            if child >= 0 and child not in children:
                children.append(child)
        return children

    def ancestor_matrix(self) -> np.ndarray:
        """Self-inclusive ancestor mask ``A[i, j] = j is an ancestor of i``.

        This is the tree-attention mask of the flat layout: row ``i`` marks
        exactly the nodes on ``i``'s root-to-node path.  One forward pass
        suffices because parents precede children in flat order.
        """
        n = self.num_nodes
        mask = np.zeros((n, n), dtype=bool)
        for i in range(n):
            parent = int(self.parents[i])
            if parent >= 0:
                mask[i] = mask[parent]
            mask[i, i] = True
        return mask


_NO_NODES = np.zeros(0, dtype=np.int64)

#: The zero-node tree: a vanilla decode step.  Its acceptance walk stops
#: at the prefix row and draws one uniform, the same draw and inverse-CDF
#: lookup as sampling that row alone, and its hand-off is the prefix
#: row — the hidden stack at the pre-commit last position, so a later
#: switch to SD pays no re-prefill.
EMPTY_TREE = FlatDraftTree(
    tokens=_NO_NODES,
    parents=_NO_NODES,
    depths=_NO_NODES,
    path_probs=np.zeros(0),
    cand_offsets=np.zeros(2, dtype=np.int64),
    cand_tokens=_NO_NODES,
    cand_child=_NO_NODES,
    cand_dists=np.zeros((0, 0)),
    draft_steps=0,
    draft_calls=0,
    rounds=0,
)


class _LockStepTrees:
    """One cycle's draft trees, grown in place in ``(batch, slots)`` tables.

    Slot 0 of every sequence is its implicit root (depth 0, confidence
    1, the ``begin`` state).  Each round of growth appends one *block* of
    slots — the same columns for every sequence — and ``made`` marks
    which of them hold a node, so a round is a handful of whole-table
    operations with no per-sequence compaction, and slot order is
    creation order.  A parent pointer, a candidate list and a drafter
    state are all addressed by ``(sequence, slot)``; the last slot is
    scratch, where a sequence that has stopped growing parks the writes
    of rounds it sits out.  The two child modes differ only in how they
    turn a round's proposals into a block and pick the next parents;
    adding blocks, recording candidates, launching the drafter and
    cutting out the :class:`FlatDraftTree` arrays are shared.
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
        self._roots = drafter.pack_states(
            drafter.begin_batch(prefixes, last_hiddens)
        )
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
        self.cand_dists: Optional[np.ndarray] = None

    def propose_roots(self) -> np.ndarray:
        """``(batch, V)`` proposals below every root (one launch)."""
        probs = np.array(
            self.drafter.propose_batch(self._roots, self.temperature)
        )
        self.cand_dists = np.empty(
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
        self.cand_dists[seq, slot] = dists

    def emit(self, keep: np.ndarray, max_depth: int) -> List[FlatDraftTree]:
        """Cut the kept nodes out of the tables as flat trees.

        One stable sort by ``(sequence, depth)`` over the kept slots plus
        every root puts each tree's candidate slots in verification order
        (root first); a slot's position behind its tree's root is its flat
        index, which makes the root -1.  All per-tree arrays are then
        slices of batch-wide gathers, with slots remapped to flat indices
        through one ``(batch, slots)`` lookup that also reads -1 for every
        dropped node.
        """
        keep = keep.copy()
        keep[:, 0] = True
        seq, slot = keep.nonzero()
        depth = self.depths[seq, slot]
        order = (seq * (max_depth + 1) + depth).argsort(kind="stable")
        seq, slot, depth = seq[order], slot[order], depth[order]
        ends = keep.sum(axis=1).cumsum()
        roots = np.concatenate(([0], ends[:-1]))
        flat_of = np.full(keep.shape, -1, dtype=np.int64)
        flat_of[seq, slot] = np.arange(seq.shape[0]) - (roots + 1)[seq]
        tokens = self.tokens[seq, slot]
        parents = flat_of[seq, self.parents[seq, slot]]
        path_probs = self.path_probs[seq, slot]

        counts = self.cand_count[seq, slot]
        offsets = np.zeros(seq.shape[0] + 1, dtype=np.int64)
        counts.cumsum(out=offsets[1:])
        of_slot = np.arange(seq.shape[0]).repeat(counts)
        row_seq, row_slot = seq[of_slot], slot[of_slot]
        column = np.arange(offsets[-1]) - offsets[of_slot]
        cand_tokens = self.cand_tokens[row_seq, row_slot, column]
        cand_child = flat_of[
            row_seq, self.cand_child[row_seq, row_slot, column]
        ]
        cand_dists = self.cand_dists[row_seq, row_slot]

        draft_steps = self.made.sum(axis=1).tolist()
        proposes = self.proposes.tolist()
        rounds = self.rounds.tolist()
        row_ends = offsets[ends].tolist()
        roots, ends = roots.tolist(), ends.tolist()
        trees: List[FlatDraftTree] = []
        for b, (root, end) in enumerate(zip(roots, ends)):
            nodes = slice(root + 1, end)
            row_start = row_ends[b - 1] if b else 0
            cand_rows = slice(row_start, row_ends[b])
            trees.append(
                FlatDraftTree(
                    tokens=tokens[nodes],
                    parents=parents[nodes],
                    depths=depth[nodes],
                    path_probs=path_probs[nodes],
                    cand_offsets=offsets[root : end + 1] - row_start,
                    cand_tokens=cand_tokens[cand_rows],
                    cand_child=cand_child[cand_rows],
                    cand_dists=cand_dists[cand_rows],
                    draft_steps=draft_steps[b],
                    draft_calls=1 + proposes[b] + draft_steps[b],
                    rounds=rounds[b],
                )
            )
        return trees


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
) -> Tuple[List[FlatDraftTree], int]:
    """Draft every live sequence's candidate tree in lock-step.

    All trees grow together in shared tables through batched drafter
    calls — ``1 + rounds`` launches in ``sample`` mode, at most
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
        ``(trees, launches)``: one :class:`FlatDraftTree` per sequence
        and the number of batched drafter launches issued, ``1 +
        max(tree.rounds)`` (the per-node baseline is ``sum(tree.draft_calls
        for tree in trees)``).  Each tree is bitwise what any sub-batch
        holding its sequence builds.
    """
    if not (len(prefixes) == len(last_hiddens) == len(rngs)):
        raise SpecDecodeError(
            "prefixes, last_hiddens and rngs must have equal lengths, "
            f"got {len(prefixes)}/{len(last_hiddens)}/{len(rngs)}"
        )
    if not prefixes:
        return [], 0
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
    flat = trees.emit(keep, strategy.draft_depth)
    return flat, 1 + max(tree.rounds for tree in flat)


@dataclass
class TreeVerifyResult:
    """Outcome of verifying one draft tree against the target model.

    Attributes:
        accepted_tokens: committed tokens in order (accepted draft nodes
            followed by the bonus/correction token).
        accepted_node_count: accepted draft nodes (bonus excluded).
        bonus_token: the final token sampled from the target (or residual).
        next_hidden: exact target hidden stack (num_layers, hidden_size) at
            the position *before* the bonus token — the drafter hand-off
            for the next cycle.
        verify_batch: rows in the batched verification forward.
        depth_attempts: per-depth count of acceptance rounds attempted.
        depth_accepts: per-depth count of successful acceptances.
    """

    accepted_tokens: List[int]
    accepted_node_count: int
    bonus_token: int
    next_hidden: np.ndarray
    verify_batch: int
    depth_attempts: List[int]
    depth_accepts: List[int]


def plan_verify_rows(
    tree: FlatDraftTree, prefix_tokens: Sequence[int]
) -> Tuple[List[List[int]], Dict[int, int]]:
    """Lay out the verification rows for one tree as token paths.

    Row 0 is the committed prefix (providing the root distribution and the
    fallback hand-off hidden); each node contributes one row holding its
    root-to-node path appended to the prefix.  Node ``i`` verifies on row
    ``i + 1`` because flat order IS verification order.
    :func:`verify_trees` builds the same rows directly as context windows
    (this per-tree layout is the reference its tests hold it to).

    Returns:
        ``(paths, row_of_node)`` where ``row_of_node`` maps a node index
        to its row in ``paths``.
    """
    prefix = [int(t) for t in prefix_tokens]
    if not prefix:
        raise SpecDecodeError("prefix must be non-empty")
    paths: List[List[int]] = [prefix]
    for parent, token in zip(tree.parents.tolist(), tree.tokens.tolist()):
        paths.append(paths[parent + 1] + [token])
    return paths, {index: index + 1 for index in range(tree.num_nodes)}


def _verify_contexts(
    trees: Sequence[FlatDraftTree],
    prefixes: Sequence[Sequence[int]],
    window: int,
) -> Tuple[np.ndarray, List[int]]:
    """``(rows, window)`` context block of every tree's verification rows.

    Each tree contributes its prefix row followed by one row per node.  A
    node's context is its parent's shifted left by one token with the
    node's token appended, so the block is filled straight from
    ``parents``/``tokens`` — no token paths are materialised: every
    pass copies all parents' contexts at once, and after ``d`` passes
    the rows of depth ``<= d`` are final.

    Returns the block and each tree's first row.
    """
    sizes = np.array([tree.num_nodes + 1 for tree in trees])
    first_rows = sizes.cumsum() - sizes
    contexts = np.full((sizes.sum(), window), PAD_ID, dtype=np.int64)
    for first, prefix in zip(first_rows.tolist(), prefixes):
        tail = prefix[-window:]
        if not len(tail):
            raise SpecDecodeError("prefix must be non-empty")
        contexts[first, window - len(tail) :] = tail
    # Global rows: a node sits one row further down than its flat index
    # for every root before it, its own included.
    owner = np.arange(len(trees)).repeat(sizes - 1)
    node_rows = np.arange(owner.shape[0]) + owner + 1
    parent_rows = (
        np.concatenate([tree.parents for tree in trees])
        + first_rows[owner]
        + 1
    )
    contexts[node_rows, -1] = np.concatenate([tree.tokens for tree in trees])
    for _ in range(max(tree.max_depth for tree in trees)):
        contexts[node_rows, :-1] = contexts[parent_rows, 1:]
    return contexts, first_rows.tolist()


def verify_trees(
    target: TinyLM,
    trees: Sequence[FlatDraftTree],
    prefixes: Sequence[Sequence[int]],
    temperature: float,
    rngs: Sequence[np.random.Generator],
) -> List[TreeVerifyResult]:
    """Verify several sequences' draft trees in ONE target forward pass.

    This is the continuous-batching amortisation: every live sequence's
    verification rows — one for the committed prefix (the root
    distribution and the fallback hand-off) plus one per selected node —
    are concatenated into a single batched
    :meth:`~repro.llm.model.TinyLM.step` launch, then each sequence walks
    its own acceptance path with its own random stream.  Row results are
    identical to verifying each tree alone, so committed tokens do not
    depend on the batch.  A :data:`EMPTY_TREE` row is a vanilla decode
    step.

    Args:
        target: the target model.
        trees: one draft tree per live sequence.
        prefixes: committed prefix per live sequence.
        temperature: shared sampling temperature.
        rngs: per-sequence random streams (acceptance + bonus sampling).

    Returns:
        One :class:`TreeVerifyResult` per input tree, in order;
        ``accepted_tokens`` always holds at least the bonus token, which
        preserves the target distribution exactly in ``sample`` child
        mode.
    """
    if not (len(trees) == len(prefixes) == len(rngs)):
        raise SpecDecodeError(
            "trees, prefixes and rngs must have equal lengths, got "
            f"{len(trees)}/{len(prefixes)}/{len(rngs)}"
        )
    if not trees:
        return []
    contexts, first_rows = _verify_contexts(
        trees, prefixes, target.config.context_window
    )
    logits, hiddens = target.step(contexts)
    probs = temperature_probs(logits, temperature)
    walks = [
        _walk_acceptance(tree, probs[first : first + tree.num_nodes + 1], rng)
        for tree, first, rng in zip(trees, first_rows, rngs)
    ]
    # Only each tree's hand-off row is kept: gather those, not every row.
    handoff_rows = [first + walk.row for first, walk in zip(first_rows, walks)]
    handoffs = np.stack([h[handoff_rows] for h in hiddens], axis=1)
    # Every walk drew its own bonus uniform; the lookups share one pass.
    bonus_tokens = tokens_at_uniforms(
        np.array([walk.bonus_dist for walk in walks]),
        np.array([walk.bonus_uniform for walk in walks]),
    ).tolist()
    return [
        TreeVerifyResult(
            accepted_tokens=walk.accepted + [bonus],
            accepted_node_count=len(walk.accepted),
            bonus_token=bonus,
            next_hidden=handoff.copy(),  # (L, d), owned by the slot
            verify_batch=tree.num_nodes + 1,
            depth_attempts=walk.depth_attempts,
            depth_accepts=walk.depth_accepts,
        )
        for tree, handoff, walk, bonus in zip(
            trees, handoffs, walks, bonus_tokens
        )
    ]


class _Walk(NamedTuple):
    """Where one tree's acceptance walk ended, bonus token still to pick."""

    accepted: List[int]
    row: int
    bonus_dist: np.ndarray
    bonus_uniform: float
    depth_attempts: List[int]
    depth_accepts: List[int]


def _walk_acceptance(
    tree: FlatDraftTree, probs: np.ndarray, rng: np.random.Generator
) -> _Walk:
    """Run the multi-round acceptance walk over one flat tree's rows.

    ``probs`` is this tree's slice of the batched target forward; row 0
    is the prefix row and node ``i`` sits on row ``i + 1`` by
    construction, so the walk needs no row map and a node's row is also
    its candidate slot.  Candidate rows with ``cand_child == -1`` (pruned
    or never-materialised children) are skipped; duplicate draws stay in
    (sharing the first occurrence's child), as the multi-round rule
    requires.  The walk ends by drawing the uniform that picks the bonus
    token from the full target distribution (at a leaf) or from the
    final residual (after a rejection).
    """
    offsets = tree.cand_offsets.tolist()
    children = tree.cand_child.tolist()
    cand_tokens = tree.cand_tokens.tolist()
    depth_attempts: List[int] = []
    depth_accepts: List[int] = []
    accepted: List[int] = []

    row = 0
    while True:
        bonus_dist = probs[row]
        start, end = offsets[row], offsets[row + 1]
        if start == end:
            break
        depth_attempts.append(1)
        depth_accepts.append(0)
        live = [c for c in range(start, end) if children[c] >= 0]
        if not live:
            break
        chosen, residual = multi_round_accept(
            bonus_dist,
            [cand_tokens[c] for c in live],
            tree.cand_dists[live],
            rng,
        )
        if chosen is None:
            bonus_dist = residual
            break
        depth_accepts[-1] = 1
        accepted.append(cand_tokens[live[chosen]])
        row = children[live[chosen]] + 1
    return _Walk(
        accepted, row, bonus_dist, rng.random(), depth_attempts,
        depth_accepts,
    )
