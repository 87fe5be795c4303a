"""Per-node reference for the draft-tree builders (test oracle).

The production builder (:func:`repro.specdec.tree.build_draft_trees`)
grows every live sequence's tree in lock-step inside shared arrays.
This module is the definition it is held to: one sequence at a time, one
Python object per node, one drafter call per node — the form in which the
best-first / beam policies and the losslessness argument are easiest to
read.  The byte-identity suites build trees both ways under equal seeds
and require identical flat arrays, identical RNG consumption and
identical committed tokens.

It also keeps the per-node object view (:class:`DraftTree`) and its
round trip to the flat layout (:func:`flatten`, :func:`to_node_view`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.drafter.base import Drafter, DrafterState
from repro.errors import SpecDecodeError
from repro.llm.vocab import EOS_ID
from repro.specdec.acceptance import inverse_cdf_draws
from repro.specdec.strategy import SdStrategy
from repro.specdec.tree import ChildMode, FlatDraftTree, GrowMap


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
    state: DrafterState
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
        draft_steps: number of drafter ``extend`` calls performed.
        draft_proposes: number of drafter ``propose`` calls performed
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
    root_state = drafter.begin(prefix_tokens, last_hidden)
    nodes: List[TreeNode] = []
    draft_steps = 0
    draft_proposes = 0

    def draw_candidates(
        state: DrafterState,
    ) -> Tuple[List[int], List[np.ndarray]]:
        """Draw i.i.d. candidate children for one node."""
        nonlocal draft_proposes
        draft_proposes += 1
        probs = drafter.propose(state, temperature)
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
            state = drafter.extend(parent_state, token)
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
    root_state = drafter.begin(prefix_tokens, last_hidden)
    nodes: List[TreeNode] = []
    draft_steps = 0
    draft_proposes = 0
    level_width = GrowMap.from_strategy(strategy).level_width

    def top_children(
        state: DrafterState,
    ) -> Tuple[List[int], np.ndarray]:
        nonlocal draft_proposes
        draft_proposes += 1
        probs = drafter.propose(state, temperature)
        order = np.argsort(-probs, kind="stable")[: strategy.topk]
        return [int(t) for t in order if probs[t] > 0.0], probs

    # Root level.
    root_tokens, root_probs = top_children(root_state)
    root_candidates: List[int] = list(root_tokens)
    root_dists: List[np.ndarray] = [root_probs] * len(root_tokens)
    root_children: Dict[int, int] = {}
    frontier: List[int] = []
    for token in root_tokens:
        state = drafter.extend(root_state, token)
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
            state = drafter.extend(parent.state, token)
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
    cand_dist_rows: List[np.ndarray] = []
    node_dist_row = np.full(n, -1, dtype=np.int64)
    row = 0
    flat_slots = [0] + [j + 1 for j in order]
    for s, created_slot in enumerate(flat_slots):
        cand_offsets[s] = row
        child_map = slot_child[created_slot]
        for token, dist in zip(
            slot_tokens[created_slot], slot_dists[created_slot]
        ):
            child = child_map.get(token)
            if child is not None and child in selected_set:
                flat_child = flat_of[child]
                if node_dist_row[flat_child] < 0:
                    node_dist_row[flat_child] = row
            else:
                flat_child = -1
            cand_tokens_list.append(int(token))
            cand_child_list.append(flat_child)
            cand_dist_rows.append(dist)
            row += 1
    cand_offsets[n + 1] = row

    cand_dists = (
        np.array(cand_dist_rows, dtype=np.float64)
        if cand_dist_rows
        else np.zeros((0, 0))
    )
    flat = FlatDraftTree(
        tokens=f_tokens,
        parents=f_parents,
        depths=f_depths,
        path_probs=f_path_probs,
        cand_offsets=cand_offsets,
        cand_tokens=np.array(cand_tokens_list, dtype=np.int64),
        cand_child=np.array(cand_child_list, dtype=np.int64),
        cand_dists=cand_dists,
        draft_steps=draft_steps,
        draft_calls=draft_calls,
        rounds=rounds,
    )
    # The flat layout derives this table from ``cand_child``; hold the
    # derivation to the row-by-row definition above.
    assert np.array_equal(flat.node_dist_row, node_dist_row)
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
                draft_dist=flat.cand_dists[int(flat.node_dist_row[i])],
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
            dist_list.append(flat.cand_dists[row])
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
) -> Tuple[List[FlatDraftTree], int]:
    """Drop-in twin of the production entry point: one tree at a time.

    Every per-node drafter call is its own launch, so the launch count is
    the per-node baseline ``sum(tree.draft_calls)``.
    """
    trees = [
        flatten(
            build_draft_tree(
                drafter, prefix, hidden, strategy, temperature, rng,
                child_mode,
            )
        )
        for prefix, hidden, rng in zip(prefixes, last_hiddens, rngs)
    ]
    return trees, sum(tree.draft_calls for tree in trees)


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
