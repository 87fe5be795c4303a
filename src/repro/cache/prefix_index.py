"""Radix tree over token sequences (the prefix-matching core).

A :class:`PrefixIndex` answers the two questions the prefix-cache
subsystem keeps asking, in time proportional to the query length rather
than the number of cached sequences:

* *exact membership* — is this full token sequence cached?
  (:meth:`PrefixIndex.contains`), and
* *longest shared prefix* — how many leading tokens does this sequence
  share with ANY cached sequence? (:meth:`PrefixIndex.longest_prefix`),
  which is what cache-affinity dispatch and prefix-aware admission rank
  candidates by.

The tree is path-compressed: each edge carries a run of tokens, and an
insert splits an edge only at the first divergence, so N cached
sequences of length L cost O(N) nodes rather than O(N·L).  Sequences
are stored as immutable tuples; the index never interprets token
values, so any hashable token alphabet works.

This module is deliberately dependency-free (no numpy, no engine
imports): the :class:`~repro.cache.manager.KVCacheManager` builds on it,
and the admission/dispatch policies consult it through the manager.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    """
    bound = min(len(a), len(b))
    for i in range(bound):
        if a[i] != b[i]:
            return i
    return bound


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

    def __contains__(self, tokens: Sequence[int]) -> bool:
        return self.contains(tokens)

    # -- mutation ----------------------------------------------------------

    def insert(self, tokens: Sequence[int]) -> bool:
        """Add a sequence; returns False when it was already present."""
        key = tuple(int(t) for t in tokens)
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
        key = tuple(int(t) for t in tokens)
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

    def contains(self, tokens: Sequence[int]) -> bool:
        """Whether the exact sequence is stored."""
        key = tuple(int(t) for t in tokens)
        node = self._walk_exact(key)
        return node is not None and node.terminal

    def longest_prefix(self, tokens: Sequence[int]) -> int:
        """Leading tokens shared with any stored sequence.

        This is the longest common prefix between ``tokens`` and the
        union of all cached sequences — partial edge matches count, so
        a query can score higher than any cached sequence it diverges
        from mid-edge.
        """
        key = tuple(int(t) for t in tokens)
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

    def longest_member(self, tokens: Sequence[int]) -> int:
        """Length of the longest STORED sequence that prefixes ``tokens``.

        Unlike :meth:`longest_prefix` — which credits partial edge
        matches that correspond to no stored sequence — this only
        counts terminal nodes, so the answer is always the length of an
        actual member.  The block-granular cache uses it to bound the
        boundary walk: every cached block's prefix is a member, so no
        block deeper than this can exist for the query.  Returns 0 when
        no member is a prefix of the query.
        """
        key = tuple(int(t) for t in tokens)
        best = 0
        node = self._root
        position = 0
        while position < len(key):
            child = node.children.get(key[position])
            if child is None:
                return best
            shared = common_prefix_len(child.edge, key[position:])
            if shared < len(child.edge):
                return best
            position += shared
            node = child
            if node.terminal:
                best = position
        return best

    def iter_sequences(self) -> Iterator[TokenSeq]:
        """Yield every stored sequence (depth-first, token order)."""
        stack: List[Tuple[_Node, TokenSeq]] = [(self._root, ())]
        while stack:
            node, prefix = stack.pop()
            full = prefix + node.edge
            if node.terminal:
                yield full
            for first in sorted(node.children, reverse=True):
                stack.append((node.children[first], full))

    # -- internals ---------------------------------------------------------

    def _walk_exact(self, key: TokenSeq) -> Optional[_Node]:
        """The node at exactly ``key``, or None."""
        if not key:
            return None
        node = self._root
        position = 0
        while position < len(key):
            child = node.children.get(key[position])
            if child is None:
                return None
            shared = common_prefix_len(child.edge, key[position:])
            if shared < len(child.edge):
                return None
            position += shared
            node = child
        return node
