"""Per-node reference for the draft-tree builders (test oracle).

The production builder (:func:`repro.specdec.tree.build_draft_trees`)
grows every live sequence's tree in lock-step inside shared arrays and
returns them as one :class:`~repro.specdec.tree.DraftBatch`.  This
module is the definition it is held to: one sequence at a time, one
Python object per node, one-row drafter calls — the form in which the
best-first / beam policies and the losslessness argument are easiest to
read.  The byte-identity suites build trees both ways under equal seeds
and require identical arrays, identical RNG consumption and identical
committed tokens.

A tree of its own is a :class:`FlatDraftTree`: one sequence's slice of a
batch in per-tree indices (node ``i`` on row ``i + 1``).
:func:`trees_of` cuts a batch into them and :func:`to_batch` packs them
back.  The module also keeps the per-node object view
(:class:`DraftTree`) and its round trip to the flat layout
(:func:`flatten`, :func:`to_node_view`), the views a reader derives from
a flat tree (levels, children, the tree-attention mask, verification
token paths), the one-distribution draw primitives the builder's batched
draws match, and the per-trial acceptance rule
(:func:`multi_round_accept`, :func:`residual_distribution`) with the
per-candidate walk (:func:`walk_acceptance`) the production walk is held
to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.drafter.base import Drafter
from repro.errors import SpecDecodeError
from repro.llm.vocab import EOS_ID
from repro.specdec.acceptance import RESIDUAL_EPS
from repro.specdec.strategy import SdStrategy
from repro.specdec.tree import ChildMode, DraftBatch, GrowMap


@dataclass
class FlatDraftTree:
    """One sequence's draft tree in per-tree indices.

    It is that sequence's slice of a :class:`~repro.specdec.tree.
    DraftBatch` with the batch's rows renamed: node ``i`` sits on row
    ``i + 1`` and row 0 is the prefix row, so ``parents`` and
    ``cand_child`` hold node indices (-1 = the root, or no child).  Slot
    ``s`` of the candidate table is row ``s``'s list, drawn from
    ``node_dists[s]``; node ``i``'s own token was drawn from row
    ``parents[i] + 1``.
    """

    tokens: np.ndarray
    parents: np.ndarray
    depths: np.ndarray
    path_probs: np.ndarray
    cand_offsets: np.ndarray
    cand_tokens: np.ndarray
    cand_child: np.ndarray
    node_dists: np.ndarray
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


def to_batch(trees: Sequence[FlatDraftTree]) -> DraftBatch:
    """Pack flat trees into one batch, one sequence each, in order.

    Each tree becomes a one-sequence batch (a prefix row holds token 0,
    parent -1, depth 0 and confidence 1), and
    :meth:`~repro.specdec.tree.DraftBatch.concat` renames the rows.
    """
    if not trees:
        return DraftBatch.vanilla(0, 0)
    parts = []
    for tree in trees:
        child = tree.cand_child
        parts.append(
            DraftBatch(
                tokens=np.concatenate(([0], tree.tokens)),
                parents=np.concatenate(([-1], tree.parents + 1)),
                depths=np.concatenate(([0], tree.depths)),
                path_probs=np.concatenate(([1.0], tree.path_probs)),
                cand_offsets=tree.cand_offsets,
                cand_tokens=tree.cand_tokens,
                cand_child=np.where(child >= 0, child + 1, -1),
                node_dists=tree.node_dists,
                starts=np.array([0, tree.num_nodes + 1]),
                rounds=np.array([tree.rounds]),
                draft_steps=np.array([tree.draft_steps]),
                draft_calls=np.array([tree.draft_calls]),
            )
        )
    return DraftBatch.concat(parts)


def trees_of(batch: DraftBatch) -> List[FlatDraftTree]:
    """Cut a batch into its sequences' flat trees.

    Asserts the batch layout on the way: each sequence's first row is a
    prefix row, and every parent and candidate child is a node row of
    the same sequence.
    """
    trees = []
    starts = batch.starts.tolist()
    assert starts[0] == 0 and starts[-1] == batch.tokens.shape[0]
    for b, (first, end) in enumerate(zip(starts[:-1], starts[1:])):
        assert batch.parents[first] == -1 and batch.depths[first] == 0
        nodes = slice(first + 1, end)
        parents = batch.parents[nodes]
        assert ((parents >= first) & (parents < end)).all()
        lo, hi = int(batch.cand_offsets[first]), int(batch.cand_offsets[end])
        child = batch.cand_child[lo:hi]
        assert ((child == -1) | ((child > first) & (child < end))).all()
        trees.append(
            FlatDraftTree(
                tokens=batch.tokens[nodes],
                parents=parents - first - 1,
                depths=batch.depths[nodes],
                path_probs=batch.path_probs[nodes],
                cand_offsets=batch.cand_offsets[first : end + 1] - lo,
                cand_tokens=batch.cand_tokens[lo:hi],
                cand_child=np.where(child >= 0, child - first - 1, -1),
                node_dists=batch.node_dists[first:end],
                draft_steps=int(batch.draft_steps[b]),
                draft_calls=int(batch.draft_calls[b]),
                rounds=int(batch.rounds[b]),
            )
        )
    return trees


@dataclass
class TreeNode:
    """One drafted token in the candidate tree (per-node view).

    Attributes:
        token: drafted token id.
        parent: index of the parent node in ``DraftTree.nodes`` (-1 = root).
        depth: 1 for root children, increasing down the tree.
        path_prob: product of draft probabilities along the path (the
            "confidence score" used for top-N selection).
        draft_dist: the draft distribution this node's token was drawn
            from (needed by the acceptance rule).
        state: drafter state *after* consuming this node's token (``None``
            in views reconstructed from a :class:`FlatDraftTree`).
        child_candidates: sibling-ordered child tokens drafted below this
            node (may contain duplicates in ``sample`` mode).
        child_dists: the draft distribution for each child candidate.
        child_nodes: candidate token -> node index (first occurrence).
        selected: whether this node survived top-N selection.
    """

    token: int
    parent: int
    depth: int
    path_prob: float
    draft_dist: np.ndarray
    state: np.ndarray
    child_candidates: List[int] = field(default_factory=list)
    child_dists: List[np.ndarray] = field(default_factory=list)
    child_nodes: Dict[int, int] = field(default_factory=dict)
    selected: bool = False


@dataclass
class DraftTree:
    """A drafted candidate tree plus root-level bookkeeping (per-node view).

    Attributes:
        nodes: all drafted nodes (root excluded; root is implicit).
        root_candidates: sibling-ordered root-level candidate tokens.
        root_dists: draft distribution per root candidate.
        root_children: token -> node index for root-level nodes.
        selected_indices: indices of nodes that survived top-N selection,
            in breadth-first order.
        draft_steps: number of node extensions performed.
        draft_proposes: number of proposals performed
            (including expansions then discarded for lack of budget).
        rounds: growth rounds with a proposal from this tree — what
            the lock-step builder's launch count is made of.
    """

    nodes: List[TreeNode]
    root_candidates: List[int]
    root_dists: List[np.ndarray]
    root_children: Dict[int, int]
    selected_indices: List[int]
    draft_steps: int
    draft_proposes: int
    rounds: int

    @property
    def num_selected(self) -> int:
        """Number of nodes submitted for verification."""
        return len(self.selected_indices)



def _extend(
    drafter: Drafter, state: np.ndarray, token: int, temperature: float
) -> np.ndarray:
    """One node's state: its parent's, extended by a one-row fused call
    (the proposal below it is drawn again when the node is expanded)."""
    successors, _ = drafter.extend_propose_batch(
        state[None], [token], temperature
    )
    return successors[0]


def build_draft_tree(
    drafter: Drafter,
    prefix_tokens: Sequence[int],
    last_hidden: Optional[np.ndarray],
    strategy: SdStrategy,
    temperature: float,
    rng: np.random.Generator,
    child_mode: ChildMode = "sample",
) -> DraftTree:
    """Draft a candidate tree below the committed prefix, node by node.

    Args:
        drafter: the draft model.
        prefix_tokens: committed sequence (prompt + accepted tokens).
        last_hidden: exact target hidden state handed off by the engine.
        strategy: ``(draft_depth, topk, tokens_to_verify)``.
        temperature: sampling temperature shared with the target.
        rng: random generator (used in ``sample`` mode).
        child_mode: ``"sample"`` (lossless) or ``"topk"`` (EAGLE-2 style).

    Returns:
        A :class:`DraftTree` with selection already applied.
    """
    if child_mode == "sample":
        return _build_tree_sampled(
            drafter, prefix_tokens, last_hidden, strategy, temperature, rng
        )
    if child_mode == "topk":
        return _build_tree_topk(
            drafter, prefix_tokens, last_hidden, strategy, temperature
        )
    raise SpecDecodeError(f"unknown child mode {child_mode!r}")


def _build_tree_sampled(
    drafter: Drafter,
    prefix_tokens: Sequence[int],
    last_hidden: Optional[np.ndarray],
    strategy: SdStrategy,
    temperature: float,
    rng: np.random.Generator,
) -> DraftTree:
    """Lossless best-first build (see the module docstring)."""
    root_state = drafter.begin_batch([prefix_tokens], [last_hidden])[0]
    nodes: List[TreeNode] = []
    draft_steps = 0
    draft_proposes = 0

    def draw_candidates(
        state: np.ndarray,
    ) -> Tuple[List[int], List[np.ndarray]]:
        """Draw i.i.d. candidate children for one node."""
        nonlocal draft_proposes
        draft_proposes += 1
        probs = drafter.propose_batch(state[None], temperature)[0]
        tokens = inverse_cdf_draws(probs, rng.random(strategy.topk))
        dists = [probs] * len(tokens)
        return tokens, dists

    root_candidates: List[int] = []
    root_dists: List[np.ndarray] = []
    root_children: Dict[int, int] = {}
    budget = strategy.tokens_to_verify

    def expand(parent_index: int) -> Optional[List[int]]:
        """Draw candidates below one node; materialise ALL of them.

        Losslessness requires all-or-nothing bookkeeping: either every
        drawn candidate is recorded for verification, or (when the unique
        children would exceed the node budget) the entire draw is
        discarded and the node stays an unexpanded leaf — the discard
        decision never selects among the drawn values, so the committed-
        token distribution at the node is unaffected.

        Returns the created child-node indices, or ``None`` when the
        expansion was discarded for lack of budget.
        """
        nonlocal draft_steps
        if parent_index == -1:
            parent_state = root_state
            parent_prob = 1.0
            parent_depth = 0
        else:
            parent_node = nodes[parent_index]
            parent_state = parent_node.state
            parent_prob = parent_node.path_prob
            parent_depth = parent_node.depth
        candidates, dists = draw_candidates(parent_state)
        unique = list(dict.fromkeys(candidates))
        if len(nodes) + len(unique) > budget:
            return None
        if parent_index == -1:
            root_candidates.extend(candidates)
            root_dists.extend(dists)
            child_map = root_children
        else:
            parent_node.child_candidates.extend(candidates)
            parent_node.child_dists.extend(dists)
            child_map = parent_node.child_nodes
        created: List[int] = []
        for token, dist in zip(candidates, dists):
            if token in child_map:
                continue
            state = _extend(drafter, parent_state, token, temperature)
            draft_steps += 1
            node = TreeNode(
                token=token,
                parent=parent_index,
                depth=parent_depth + 1,
                path_prob=parent_prob * float(dist[token]),
                draft_dist=dist,
                state=state,
                selected=True,
            )
            nodes.append(node)
            index = len(nodes) - 1
            child_map[token] = index
            created.append(index)
        return created

    # Best-first expansion under the node budget.  The frontier holds
    # expandable nodes keyed by (-path_prob, creation index).
    counter = 0
    frontier: List[Tuple[float, int, int]] = []

    def push(node_index: int) -> None:
        nonlocal counter
        node = nodes[node_index]
        if node.depth >= strategy.draft_depth or node.token == EOS_ID:
            return
        heapq.heappush(frontier, (-node.path_prob, counter, node_index))
        counter += 1

    created = expand(-1)
    if created is not None:
        for index in created:
            push(index)
    while frontier and len(nodes) < budget:
        _, _, parent_index = heapq.heappop(frontier)
        created = expand(parent_index)
        if created is not None:
            for index in created:
                push(index)

    selected = sorted(
        range(len(nodes)), key=lambda i: (nodes[i].depth, i)
    )
    return DraftTree(
        nodes=nodes,
        root_candidates=root_candidates,
        root_dists=root_dists,
        root_children=root_children,
        selected_indices=selected,
        draft_steps=draft_steps,
        draft_proposes=draft_proposes,
        rounds=draft_proposes,  # best-first: one expansion per round
    )


def _build_tree_topk(
    drafter: Drafter,
    prefix_tokens: Sequence[int],
    last_hidden: Optional[np.ndarray],
    strategy: SdStrategy,
    temperature: float,
) -> DraftTree:
    """EAGLE-2-style deterministic build: beam expansion + top-V rerank.

    Per level the ``topk`` most confident frontier nodes are expanded and
    the most confident ``GrowMap.level_width`` drafted candidates are
    materialised; afterwards the ``tokens_to_verify`` highest-confidence
    nodes across the whole tree form the verified (connected) subtree.
    """
    root_state = drafter.begin_batch([prefix_tokens], [last_hidden])[0]
    nodes: List[TreeNode] = []
    draft_steps = 0
    draft_proposes = 0
    level_width = GrowMap.from_strategy(strategy).level_width

    def top_children(
        state: np.ndarray,
    ) -> Tuple[List[int], np.ndarray]:
        nonlocal draft_proposes
        draft_proposes += 1
        probs = drafter.propose_batch(state[None], temperature)[0]
        order = np.argsort(-probs, kind="stable")[: strategy.topk]
        return [int(t) for t in order if probs[t] > 0.0], probs

    # Root level.
    root_tokens, root_probs = top_children(root_state)
    root_candidates: List[int] = list(root_tokens)
    root_dists: List[np.ndarray] = [root_probs] * len(root_tokens)
    root_children: Dict[int, int] = {}
    frontier: List[int] = []
    for token in root_tokens:
        state = _extend(drafter, root_state, token, temperature)
        draft_steps += 1
        nodes.append(
            TreeNode(
                token=token,
                parent=-1,
                depth=1,
                path_prob=float(root_probs[token]),
                draft_dist=root_probs,
                state=state,
            )
        )
        index = len(nodes) - 1
        root_children[token] = index
        frontier.append(index)

    rounds = 1  # the root proposal
    for _ in range(1, strategy.draft_depth):
        frontier.sort(key=lambda i: -nodes[i].path_prob)
        expanded = frontier[: strategy.topk]
        # A level is one round when any of its beam is proposed below.
        rounds += any(nodes[i].token != EOS_ID for i in expanded)
        candidates: List[Tuple[float, int, int, np.ndarray]] = []
        for parent_index in expanded:
            parent = nodes[parent_index]
            if parent.token == EOS_ID:
                continue
            tokens, probs = top_children(parent.state)
            parent.child_candidates.extend(tokens)
            parent.child_dists.extend([probs] * len(tokens))
            for token in tokens:
                candidates.append(
                    (
                        parent.path_prob * float(probs[token]),
                        parent_index,
                        token,
                        probs,
                    )
                )
        if not candidates:
            break
        candidates.sort(key=lambda item: -item[0])
        next_frontier: List[int] = []
        for path_prob, parent_index, token, probs in (
            candidates[:level_width]
        ):
            parent = nodes[parent_index]
            state = _extend(drafter, parent.state, token, temperature)
            draft_steps += 1
            nodes.append(
                TreeNode(
                    token=token,
                    parent=parent_index,
                    depth=parent.depth + 1,
                    path_prob=path_prob,
                    draft_dist=probs,
                    state=state,
                )
            )
            index = len(nodes) - 1
            parent.child_nodes[token] = index
            next_frontier.append(index)
        frontier = next_frontier

    selected = _select_top_connected(nodes, strategy.tokens_to_verify)
    return DraftTree(
        nodes=nodes,
        root_candidates=root_candidates,
        root_dists=root_dists,
        root_children=root_children,
        selected_indices=selected,
        draft_steps=draft_steps,
        draft_proposes=draft_proposes,
        rounds=rounds,
    )


def _select_top_connected(nodes: List[TreeNode], budget: int) -> List[int]:
    """Mark the ``budget`` most confident nodes (connected subtree).

    Path confidence is monotone non-increasing, and ties break toward
    shallower nodes, so ancestors always rank ahead of descendants; a
    parent check guards the invariant regardless.
    """
    order = sorted(
        range(len(nodes)),
        key=lambda i: (-nodes[i].path_prob, nodes[i].depth, i),
    )
    kept: List[int] = []
    kept_set: set = set()
    for index in order:
        if len(kept) >= budget:
            break
        parent = nodes[index].parent
        if parent != -1 and parent not in kept_set:
            continue
        kept.append(index)
        kept_set.add(index)
    for index in range(len(nodes)):
        nodes[index].selected = index in kept_set
    kept.sort(key=lambda i: (nodes[i].depth, i))
    return kept


def flatten(tree: DraftTree) -> FlatDraftTree:
    """Flatten a per-node tree (selected subtree only).

    ``draft_calls`` is ``begin + proposes + extends``, the launches this
    per-node build spent.
    """
    nodes = tree.nodes
    order = list(tree.selected_indices)
    slot_tokens = [list(tree.root_candidates)] + [
        list(node.child_candidates) for node in nodes
    ]
    slot_dists = [list(tree.root_dists)] + [
        list(node.child_dists) for node in nodes
    ]
    slot_child = [dict(tree.root_children)] + [
        dict(node.child_nodes) for node in nodes
    ]
    return _assemble_flat(
        order=order,
        selected_set=set(order),
        tokens=[node.token for node in nodes],
        parents=[node.parent for node in nodes],
        depths=[node.depth for node in nodes],
        path_probs=[node.path_prob for node in nodes],
        slot_tokens=slot_tokens,
        slot_dists=slot_dists,
        slot_child=slot_child,
        draft_steps=tree.draft_steps,
        draft_calls=1 + tree.draft_proposes + tree.draft_steps,
        rounds=tree.rounds,
    )


def _assemble_flat(
    order: List[int],
    selected_set: set,
    tokens: List[int],
    parents: List[int],
    depths: List[int],
    path_probs: List[float],
    slot_tokens: List[List[int]],
    slot_dists: List[List[np.ndarray]],
    slot_child: List[Dict[int, int]],
    draft_steps: int,
    draft_calls: int,
    rounds: int,
) -> FlatDraftTree:
    """Pack per-node build state into a :class:`FlatDraftTree`.

    ``order`` lists the selected node indices in flat (verification)
    order; slot ``j + 1`` of the ``slot_*`` arrays describes node ``j``'s
    candidates (slot 0 = root).  Candidate child pointers are remapped to
    flat indices, nulling children that were pruned by selection.
    """
    n = len(order)
    flat_of = {created: flat for flat, created in enumerate(order)}
    f_tokens = np.array([tokens[j] for j in order], dtype=np.int64)
    f_parents = np.array(
        [
            flat_of[parents[j]] if parents[j] != -1 else -1
            for j in order
        ],
        dtype=np.int64,
    )
    f_depths = np.array([depths[j] for j in order], dtype=np.int64)
    f_path_probs = np.array(
        [path_probs[j] for j in order], dtype=np.float64
    )
    cand_offsets = np.zeros(n + 2, dtype=np.int64)
    cand_tokens_list: List[int] = []
    cand_child_list: List[int] = []
    slot_dist: List[Optional[np.ndarray]] = []
    dist_rows = np.full(n, -1, dtype=np.int64)
    row = 0
    flat_slots = [0] + [j + 1 for j in order]
    for s, created_slot in enumerate(flat_slots):
        cand_offsets[s] = row
        child_map = slot_child[created_slot]
        dists = slot_dists[created_slot]
        # Every candidate of a slot was drawn from its node's one
        # proposal, which is what lets the flat layout keep one row.
        for dist in dists[1:]:
            assert np.array_equal(dist, dists[0]), "two dists in a slot"
        slot_dist.append(dists[0] if dists else None)
        for token in slot_tokens[created_slot]:
            child = child_map.get(token)
            if child is not None and child in selected_set:
                flat_child = flat_of[child]
                if dist_rows[flat_child] < 0:
                    dist_rows[flat_child] = row
            else:
                flat_child = -1
            cand_tokens_list.append(int(token))
            cand_child_list.append(flat_child)
            row += 1
    cand_offsets[n + 1] = row

    vocab = next((d.shape[0] for d in slot_dist if d is not None), 0)
    node_dists = np.array(
        [np.zeros(vocab) if d is None else d for d in slot_dist],
        dtype=np.float64,
    ).reshape(n + 1, vocab)
    flat = FlatDraftTree(
        tokens=f_tokens,
        parents=f_parents,
        depths=f_depths,
        path_probs=f_path_probs,
        cand_offsets=cand_offsets,
        cand_tokens=np.array(cand_tokens_list, dtype=np.int64),
        cand_child=np.array(cand_child_list, dtype=np.int64),
        node_dists=node_dists,
        draft_steps=draft_steps,
        draft_calls=draft_calls,
        rounds=rounds,
    )
    # The flat layout derives this table from ``cand_child``; hold the
    # derivation to the row-by-row definition above.
    assert np.array_equal(node_dist_row(flat), dist_rows)
    return flat


def to_node_view(flat: FlatDraftTree) -> DraftTree:
    """Rebuild the per-node view of a flat tree.

    Drafter states are not retained by the flat layout, so the
    reconstructed nodes carry ``state=None``; candidates whose child
    was pruned reappear as never-materialised candidates (the
    acceptance walk treats both identically).
    """
    nodes: List[TreeNode] = []
    for i in range(flat.num_nodes):
        nodes.append(
            TreeNode(
                token=int(flat.tokens[i]),
                parent=int(flat.parents[i]),
                depth=int(flat.depths[i]),
                path_prob=float(flat.path_probs[i]),
                draft_dist=flat.node_dists[int(flat.parents[i]) + 1],
                state=None,
                selected=True,
            )
        )
    root_candidates: List[int] = []
    root_dists: List[np.ndarray] = []
    root_children: Dict[int, int] = {}
    for slot in range(flat.num_nodes + 1):
        start = int(flat.cand_offsets[slot])
        end = int(flat.cand_offsets[slot + 1])
        if slot == 0:
            cand_list, dist_list, child_map = (
                root_candidates, root_dists, root_children
            )
        else:
            node = nodes[slot - 1]
            cand_list, dist_list, child_map = (
                node.child_candidates,
                node.child_dists,
                node.child_nodes,
            )
        for row in range(start, end):
            token = int(flat.cand_tokens[row])
            cand_list.append(token)
            dist_list.append(flat.node_dists[slot])
            child = int(flat.cand_child[row])
            if child >= 0 and token not in child_map:
                child_map[token] = child
    return DraftTree(
        nodes=nodes,
        root_candidates=root_candidates,
        root_dists=root_dists,
        root_children=root_children,
        selected_indices=list(range(flat.num_nodes)),
        draft_steps=flat.draft_steps,
        draft_proposes=flat.draft_calls - 1 - flat.draft_steps,
        rounds=flat.rounds,
    )


def build_draft_trees(
    drafter: Drafter,
    prefixes: Sequence[Sequence[int]],
    last_hiddens: Sequence[Optional[np.ndarray]],
    strategy: SdStrategy,
    temperature: float,
    rngs: Sequence[np.random.Generator],
    child_mode: ChildMode = "sample",
) -> DraftBatch:
    """Drop-in twin of the production entry point: one tree at a time.

    Every per-node drafter call is its own launch, so the launch count is
    the per-node baseline ``draft_calls.sum()``.
    """
    return to_batch([
        flatten(
            build_draft_tree(
                drafter, prefix, hidden, strategy, temperature, rng,
                child_mode,
            )
        )
        for prefix, hidden, rng in zip(prefixes, last_hiddens, rngs)
    ])


def plan_verify_rows(
    tree: DraftTree, prefix_tokens: Sequence[int]
) -> Tuple[List[List[int]], Dict[int, int]]:
    """Verification rows of a per-node tree as token paths.

    Row 0 is the committed prefix; each selected node contributes one row
    holding its root-to-node path appended to the prefix.
    """
    prefix = [int(t) for t in prefix_tokens]
    if not prefix:
        raise SpecDecodeError("prefix must be non-empty")
    paths: List[List[int]] = [prefix]
    row_of_node: Dict[int, int] = {}
    node_paths: Dict[int, List[int]] = {}
    for index in tree.selected_indices:
        node = tree.nodes[index]
        parent_path = (
            prefix if node.parent == -1 else node_paths[node.parent]
        )
        path = parent_path + [node.token]
        node_paths[index] = path
        row_of_node[index] = len(paths)
        paths.append(path)
    return paths, row_of_node


# -- views of the flat layout -------------------------------------------------
# Production indexes the DraftBatch arrays directly; these derived views
# of one sequence's flat tree are how tests read a tree.


def node_dist_row(flat: FlatDraftTree) -> np.ndarray:
    """``(N,)`` candidate row that first names each node.

    That row lies in the parent's slot, so node ``i``'s draft
    distribution is ``flat.node_dists[flat.parents[i] + 1]``.
    """
    # Assign in reverse so the earliest row naming a node sticks.
    named = np.flatnonzero(flat.cand_child >= 0)[::-1]
    rows = np.full(flat.num_nodes, -1, dtype=np.int64)
    rows[flat.cand_child[named]] = named
    return rows


def level_offsets(flat: FlatDraftTree) -> np.ndarray:
    """``(max_depth + 1,)`` cumulative node counts per level.

    Depth-``d`` nodes occupy ``level_offsets[d - 1]:level_offsets[d]``.
    """
    return np.searchsorted(
        flat.depths, np.arange(flat.max_depth + 1), side="right"
    )


def level_slice(flat: FlatDraftTree, depth: int) -> slice:
    """Contiguous flat-index range of the nodes at ``depth``."""
    if not 1 <= depth <= flat.max_depth:
        raise SpecDecodeError(
            f"depth must be in [1, {flat.max_depth}], got {depth}"
        )
    offsets = level_offsets(flat)
    return slice(int(offsets[depth - 1]), int(offsets[depth]))


def children_of(flat: FlatDraftTree, index: int) -> List[int]:
    """Flat indices of ``index``'s materialised children (-1 = root)."""
    slot = index + 1
    start = int(flat.cand_offsets[slot])
    end = int(flat.cand_offsets[slot + 1])
    children: List[int] = []
    for row in range(start, end):
        child = int(flat.cand_child[row])
        if child >= 0 and child not in children:
            children.append(child)
    return children


def ancestor_matrix(flat: FlatDraftTree) -> np.ndarray:
    """Self-inclusive ancestor mask ``A[i, j] = j is an ancestor of i``.

    This is the tree-attention mask of the flat layout: row ``i`` marks
    exactly the nodes on ``i``'s root-to-node path.  One forward pass
    suffices because parents precede children in flat order.
    """
    n = flat.num_nodes
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        parent = int(flat.parents[i])
        if parent >= 0:
            mask[i] = mask[parent]
        mask[i, i] = True
    return mask


def flat_verify_rows(
    flat: FlatDraftTree, prefix_tokens: Sequence[int]
) -> Tuple[List[List[int]], Dict[int, int]]:
    """Verification rows of a flat tree as token paths.

    Row 0 is the committed prefix; node ``i`` verifies on row ``i + 1``
    (flat order IS verification order), holding its root-to-node path
    appended to the prefix.  ``repro.specdec.tree.verify_trees`` builds
    the same rows, batch-wide, directly as context windows.
    """
    prefix = [int(t) for t in prefix_tokens]
    if not prefix:
        raise SpecDecodeError("prefix must be non-empty")
    paths: List[List[int]] = [prefix]
    for parent, token in zip(flat.parents.tolist(), flat.tokens.tolist()):
        paths.append(paths[parent + 1] + [token])
    return paths, {index: index + 1 for index in range(flat.num_nodes)}


# -- one-distribution draws ---------------------------------------------------


def inverse_cdf_draws(
    probs: np.ndarray, uniforms: Sequence[float]
) -> List[int]:
    """Map uniform draws through the inverse CDF of ``probs``.

    ``repro.specdec.acceptance.batched_inverse_cdf_draws`` (the tree
    builder's form) matches it row by row.  The cumulative distribution
    is clamped to end exactly at 1.0 (guarding cumulative rounding) and
    each draw is clamped into the support, so a uniform of exactly 1.0
    can never index past the last token.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(draws, probs.shape[0] - 1).tolist()


def sequential_residual_draws(
    probs: np.ndarray, count: int, rng: np.random.Generator
) -> Tuple[List[int], List[np.ndarray]]:
    """Draw ``count`` candidates i.i.d. from ``probs``.

    Returns the tokens and, for each, the distribution it was drawn from
    (all equal to ``probs``), in the format :func:`multi_round_accept`
    expects.
    Duplicate tokens are allowed — the multi-round rule handles them (a
    duplicate of a rejected token auto-rejects because its residual mass
    is zero).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if count < 1:
        raise SpecDecodeError(f"count must be >= 1, got {count}")
    tokens = inverse_cdf_draws(probs, rng.random(count))
    return tokens, [probs for _ in tokens]


# -- the per-trial acceptance rule ---------------------------------------------


def residual_distribution(
    target_probs: np.ndarray, draft_probs: np.ndarray
) -> np.ndarray:
    """``norm(max(p - q, 0))`` with a numeric fallback.

    Mathematically the residual can only be all-zero when ``p == q``, in
    which case rejection has probability zero; under floating point we fall
    back to the target distribution itself rather than raising.
    """
    target_probs = np.asarray(target_probs, dtype=np.float64)
    draft_probs = np.asarray(draft_probs, dtype=np.float64)
    if target_probs.shape != draft_probs.shape:
        raise SpecDecodeError(
            "target/draft distribution shape mismatch: "
            f"{target_probs.shape} vs {draft_probs.shape}"
        )
    residual = np.maximum(target_probs - draft_probs, 0.0)
    total = residual.sum()
    if total <= RESIDUAL_EPS:
        return target_probs / target_probs.sum()
    return residual / total


def multi_round_accept(
    target_probs: np.ndarray,
    candidates: Sequence[int],
    draft_prob_dists: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> Tuple[Optional[int], np.ndarray]:
    """SpecInfer multi-round speculative sampling over sibling candidates.

    Args:
        target_probs: target distribution ``p`` at the parent position.
        candidates: sibling token ids, tried in order.
        draft_prob_dists: the draft distribution each candidate was sampled
            from (one per candidate).
        rng: random generator (one uniform per rejection trial).

    Returns:
        ``(index, residual)`` where ``index`` is the position of the first
        accepted candidate in ``candidates`` (or ``None`` if all rejected)
        and ``residual`` is the distribution to sample a correction token
        from when nothing was accepted.
    """
    if len(candidates) != len(draft_prob_dists):
        raise SpecDecodeError(
            "candidates and draft distributions length mismatch: "
            f"{len(candidates)} vs {len(draft_prob_dists)}"
        )
    current = np.asarray(target_probs, dtype=np.float64)
    for index, (token, q) in enumerate(zip(candidates, draft_prob_dists)):
        q_tok = q[token]
        if q_tok <= 0.0:
            # The candidate has zero draft mass under its recorded
            # distribution — treat as an automatic rejection with no
            # residual update (it carried no probability to subtract).
            continue
        if rng.random() < min(1.0, current[token] / q_tok):
            return index, current
        current = residual_distribution(current, q)
    return None, current


@dataclass
class OracleWalk:
    """Where the per-candidate walk ended (bonus token still to pick)."""

    accepted: List[int]
    row: int
    bonus_dist: np.ndarray
    bonus_uniform: float
    depth_attempts: List[int]
    depth_accepts: List[int]


def walk_acceptance(
    flat: FlatDraftTree, probs: np.ndarray, rng: np.random.Generator
) -> OracleWalk:
    """The acceptance walk with one distribution per candidate row.

    Each level hands :func:`multi_round_accept` the slot's live
    candidates (``cand_child >= 0``) and one copy of the slot's draft
    distribution per candidate, and records the level as a per-depth
    attempt / accept pair — the layout the production walk replaced.
    ``probs`` is the tree's ``(N + 1, V)`` slice of the verify forward.
    """
    depth_attempts: List[int] = []
    depth_accepts: List[int] = []
    accepted: List[int] = []
    row = 0
    while True:
        bonus_dist = probs[row]
        start = int(flat.cand_offsets[row])
        end = int(flat.cand_offsets[row + 1])
        if start == end:
            break
        depth_attempts.append(1)
        depth_accepts.append(0)
        live = [c for c in range(start, end) if flat.cand_child[c] >= 0]
        if not live:
            break
        chosen, residual = multi_round_accept(
            bonus_dist,
            [int(flat.cand_tokens[c]) for c in live],
            [flat.node_dists[row].copy() for _ in live],
            rng,
        )
        if chosen is None:
            bonus_dist = residual
            break
        depth_accepts[-1] = 1
        accepted.append(int(flat.cand_tokens[live[chosen]]))
        row = int(flat.cand_child[live[chosen]]) + 1
    return OracleWalk(
        accepted, row, bonus_dist, rng.random(), depth_attempts,
        depth_accepts,
    )
