"""Property/fuzz tests: PrefixIndex vs a naive set-of-tuples reference.

The radix tree's split/merge/prune paths are the foundation the
block-granular cache walks on every admission; these tests pin them
against a reference implementation so obvious that it cannot be wrong —
a plain set of tuples with brute-force prefix scans.  Random
insert/remove/query interleavings under fixed seeds keep every run
reproducible.
"""

import numpy as np
import pytest

from repro.cache.prefix_index import PrefixIndex, common_prefix_len

from _cache_oracle import stored_sequences


class _NaiveIndex:
    """Reference semantics: a set of tuples plus linear scans."""

    def __init__(self):
        self.members = set()

    def insert(self, key):
        if key in self.members:
            return False
        self.members.add(key)
        return True

    def remove(self, key):
        if key not in self.members:
            return False
        self.members.discard(key)
        return True

    def contains(self, key):
        return key in self.members

    def longest_prefix(self, key):
        best = 0
        for member in self.members:
            best = max(best, common_prefix_len(key, member))
        return best


def _random_key(rng, alphabet, max_len):
    length = int(rng.integers(1, max_len + 1))
    return tuple(int(t) for t in rng.integers(0, alphabet, size=length))


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
def test_fuzz_against_naive_reference(seed):
    # A small alphabet and short keys force heavy prefix overlap, which
    # is what exercises edge splits, merges, and prune chains.
    rng = np.random.default_rng(seed)
    index = PrefixIndex()
    naive = _NaiveIndex()
    for _ in range(600):
        op = rng.integers(0, 10)
        key = _random_key(rng, alphabet=4, max_len=8)
        if op < 4:
            assert index.insert(key) == naive.insert(key)
        elif op < 7:
            if op == 5 and naive.members:
                # Bias half the removals toward actual members so the
                # prune/merge paths run, not just the miss path.
                members = sorted(naive.members)
                key = members[int(rng.integers(0, len(members)))]
            assert index.remove(key) == naive.remove(key)
        else:
            assert (key in stored_sequences(index)) == naive.contains(key)
            assert index.longest_prefix(key) == naive.longest_prefix(key)
        assert len(index) == len(naive.members)
    assert stored_sequences(index) == naive.members


@pytest.mark.parametrize("seed", [3, 11])
def test_fuzz_drain_to_empty(seed):
    # Insert a batch, then remove every member in random order; the
    # tree must prune back to exactly the surviving set at every step.
    rng = np.random.default_rng(seed)
    index = PrefixIndex()
    keys = {_random_key(rng, alphabet=3, max_len=6) for _ in range(80)}
    for key in sorted(keys):
        assert index.insert(key)
    order = sorted(keys)
    rng.shuffle(order)
    remaining = set(keys)
    for key in order:
        assert index.remove(key)
        remaining.discard(key)
        assert len(index) == len(remaining)
        probe = _random_key(rng, alphabet=3, max_len=6)
        naive = _NaiveIndex()
        naive.members = remaining
        assert index.longest_prefix(probe) == naive.longest_prefix(probe)
    assert len(index) == 0
    assert stored_sequences(index) == set()

