"""Radix tree over token sequences (the prefix-matching core).

A :class:`PrefixIndex` answers the question the prefix-cache subsystem
keeps asking — how many leading tokens does this sequence share with
ANY cached sequence? (:meth:`PrefixIndex.longest_prefix`), which is
what cache-affinity dispatch, prefix-aware admission and the admission
plan's block walk rank by — in time proportional to the query length
rather than the number of cached sequences.  Exact membership is the
block store's dict, not the tree's.

The tree is path-compressed: each edge carries a run of tokens, and an
insert splits an edge only at the first divergence, so N cached
sequences of length L cost O(N) nodes rather than O(N·L).  Sequences
are stored as immutable tuples of token ids; a tuple is taken as the
canonical key as it is (:func:`as_key`), so callers cut a key once.

This module is deliberately dependency-free (no numpy, no engine
imports): the :class:`~repro.cache.manager.KVCacheManager` builds on it,
and the admission/dispatch policies consult it through the manager.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import CacheError

TokenSeq = Tuple[int, ...]


class _Node:
    """One radix node: a compressed edge plus children by first token."""

    __slots__ = ("edge", "children", "terminal")

    def __init__(self, edge: TokenSeq = ()) -> None:
        self.edge: TokenSeq = edge
        self.children: Dict[int, "_Node"] = {}
        self.terminal: bool = False  # a full cached sequence ends here


def common_prefix_len(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the common prefix of two token runs.

    The one prefix comparison the whole subsystem shares — the radix
    walk and the serving workers' affinity probes must agree on it.
    Runs of one type compare their shared span as one slice (in C)
    first; only a mismatch falls back to searching for the divergence.
    """
    bound = min(len(a), len(b))
    if a[:bound] == b[:bound]:
        return bound
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return bound


def as_key(tokens: Sequence[int]) -> TokenSeq:
    """A tuple passes through; anything else becomes a tuple of ints."""
    if type(tokens) is tuple:
        return tokens
    return tuple(map(int, tokens))


class PrefixIndex:
    """Path-compressed radix tree of token sequences.

    Empty sequences are rejected: a zero-length prefix matches
    everything and would make :meth:`longest_prefix` vacuous.
    """

    def __init__(self) -> None:
        self._root = _Node()
        self._count = 0

    def __len__(self) -> int:
        """Number of distinct sequences stored."""
        return self._count

    # -- mutation ----------------------------------------------------------

    def insert(self, tokens: Sequence[int]) -> bool:
        """Add a sequence; returns False when it was already present."""
        key = as_key(tokens)
        if not key:
            raise CacheError("cannot index an empty token sequence")
        node = self._root
        position = 0
        while position < len(key):
            child = node.children.get(key[position])
            if child is None:
                leaf = _Node(key[position:])
                leaf.terminal = True
                node.children[key[position]] = leaf
                self._count += 1
                return True
            shared = common_prefix_len(child.edge, key[position:])
            if shared < len(child.edge):
                # Split the edge at the divergence (or at key end).
                stub = _Node(child.edge[:shared])
                child.edge = child.edge[shared:]
                stub.children[child.edge[0]] = child
                node.children[key[position]] = stub
                child = stub
            position += shared
            node = child
        if node.terminal:
            return False
        node.terminal = True
        self._count += 1
        return True

    def remove(self, tokens: Sequence[int]) -> bool:
        """Drop a sequence; returns False when it was not present.

        The walk keeps the path so the vacated node can be pruned and a
        single-child pass-through node re-merged with its child —
        removal therefore never leaves degenerate chains behind.
        """
        key = as_key(tokens)
        if not key:
            raise CacheError("cannot remove an empty token sequence")
        path: List[Tuple[_Node, int]] = []  # (parent, first token of edge)
        node = self._root
        position = 0
        while position < len(key):
            child = node.children.get(key[position])
            if child is None:
                return False
            shared = common_prefix_len(child.edge, key[position:])
            if shared < len(child.edge):
                return False
            path.append((node, key[position]))
            position += shared
            node = child
        if not node.terminal:
            return False
        node.terminal = False
        self._count -= 1
        # Prune upward: drop childless non-terminal nodes, merge
        # single-child pass-throughs back into their child.
        while path:
            parent, first = path.pop()
            child = parent.children[first]
            if child.terminal:
                break
            if not child.children:
                del parent.children[first]
            elif len(child.children) == 1:
                (grand,) = child.children.values()
                grand.edge = child.edge + grand.edge
                parent.children[first] = grand
                break
            else:
                break
        return True

    # -- queries -----------------------------------------------------------

    def longest_prefix(self, tokens: Sequence[int]) -> int:
        """Leading tokens shared with any stored sequence.

        This is the longest common prefix between ``tokens`` and the
        union of all cached sequences — partial edge matches count, so
        a query can score higher than any cached sequence it diverges
        from mid-edge.
        """
        key = as_key(tokens)
        node = self._root
        position = 0
        while position < len(key):
            child = node.children.get(key[position])
            if child is None:
                return position
            shared = common_prefix_len(child.edge, key[position:])
            position += shared
            if shared < len(child.edge):
                return position
            node = child
        return position
