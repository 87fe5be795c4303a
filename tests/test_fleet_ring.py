"""Property-style tests for the consistent-hash ring (repro.fleet)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.blocks import effective_prefill_context
from repro.errors import ConfigError, FleetError
from repro.fleet import ConsistentHashRing, PrefixHashRouting, prefix_key


def _ring(members=()):
    ring = ConsistentHashRing()
    for replica_id in members:
        ring.add(replica_id)
    return ring


def _keys(rng: np.random.Generator, count: int, length: int = 4):
    return [
        tuple(int(t) for t in rng.integers(0, 1000, size=length))
        for _ in range(count)
    ]


class TestRingBasics:
    def test_membership(self):
        ring = _ring([0, 1, 2])
        assert len(ring) == 3
        assert ring.members == [0, 1, 2]
        assert 1 in ring and 7 not in ring
        ring.remove(1)
        assert ring.members == [0, 2]
        ring.add(7)
        assert 7 in ring

    def test_validation(self):
        ring = _ring([0])
        with pytest.raises(FleetError):
            ring.add(0)  # duplicate member
        with pytest.raises(FleetError):
            ring.remove(3)  # never joined
        with pytest.raises(FleetError):
            ConsistentHashRing().owner((1, 2, 3))  # empty ring

    def test_prefix_key(self):
        assert prefix_key([5, 6, 7, 8, 9], 4) == (5, 6, 7, 8)
        assert prefix_key([5, 6], 4) == (5, 6)  # short prompt: whole
        assert prefix_key(np.array([5, 6, 7]), 2) == (5, 6)


class TestDeterminism:
    def test_identical_across_instances(self):
        """Same members => same owner for every key, across fresh
        rings and insertion orders (no process-salted hashing)."""
        keys = _keys(np.random.default_rng(0), 500)
        a = _ring([0, 1, 2, 3])
        b = _ring([3, 1, 0, 2])  # order must not matter
        assert a.placement(keys) == b.placement(keys)

    def test_owner_is_stable(self):
        ring = _ring([0, 1, 2])
        key = (4, 5, 6, 7)
        assert all(ring.owner(key) == ring.owner(key) for _ in range(5))


class TestBalance:
    def test_vnodes_spread_load(self):
        """With virtual nodes every replica owns a non-trivial share."""
        replicas = [0, 1, 2, 3]
        ring = _ring(replicas)
        keys = _keys(np.random.default_rng(1), 2000)
        owners = list(ring.placement(keys).values())
        for replica in replicas:
            share = owners.count(replica) / len(keys)
            assert 0.05 < share < 0.60, (replica, share)


class TestMinimalMovement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_join_moves_about_one_over_m(self, seed):
        """Adding one replica to M remaps ~K/(M+1) keys, and every
        moved key lands on the newcomer."""
        members = [0, 1, 2]
        keys = _keys(np.random.default_rng(seed), 1500)
        ring = _ring(members)
        before = ring.placement(keys)
        ring.add(3)
        after = ring.placement(keys)
        moved = [k for k in after if after[k] != before[k]]
        expected = len(keys) / (len(members) + 1)
        assert 0 < len(moved) < 2.5 * expected
        assert all(after[k] == 3 for k in moved)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drain_moves_only_the_leavers_keys(self, seed):
        """Removing a replica moves exactly the keys it owned; every
        other placement is untouched (the drain-time cache guarantee)."""
        keys = _keys(np.random.default_rng(seed + 10), 1500)
        ring = _ring([0, 1, 2, 3])
        before = ring.placement(keys)
        ring.remove(2)
        after = ring.placement(keys)
        for key, owner in before.items():
            if owner != 2:
                assert after[key] == owner
            else:
                assert after[key] != 2

    def test_join_then_leave_roundtrips(self):
        keys = _keys(np.random.default_rng(3), 800)
        ring = _ring([0, 1, 2])
        before = ring.placement(keys)
        ring.add(9)
        ring.remove(9)
        assert ring.placement(keys) == before


class _StubReplica:
    def __init__(self, replica_id, backlog=0):
        self.replica_id = replica_id
        self.backlog_tokens = backlog


class TestRoutingStabilityUnderFailure:
    def test_survivor_placements_do_not_move(self):
        """When a replica fails (on_leave), requests previously hashed
        to survivors keep their owners — only the victim's keys move."""
        routing = PrefixHashRouting(
            prefix_len=4, spill_factor=None
        )
        for replica_id in range(4):
            routing.on_join(replica_id)
        replicas = [_StubReplica(i) for i in range(4)]

        class _Req:
            def __init__(self, prompt, request_id=0):
                self.prompt = prompt
                self.request_id = request_id

        rng = np.random.default_rng(4)
        prompts = {
            tuple(int(t) for t in rng.integers(0, 100, size=4))
            for _ in range(300)
        }
        before = {
            p: replicas[routing.choose(_Req(list(p)), replicas)].replica_id
            for p in prompts
        }
        victim = 2
        routing.on_leave(victim)
        survivors = [r for r in replicas if r.replica_id != victim]
        moved = 0
        for p in prompts:
            owner = survivors[
                routing.choose(_Req(list(p)), survivors)
            ].replica_id
            if before[p] != victim:
                assert owner == before[p]
            else:
                moved += 1
                assert owner != victim
        assert moved > 0
        # The audit counter saw exactly the victim's keys move.
        assert routing.ring_moves == moved


class _Req:
    def __init__(self, prompt, request_id=0):
        self.prompt = prompt
        self.request_id = request_id


class TestWindowedRoutingKey:
    """Regression: with a windowed model the ring must key on the
    effective prefill context, not the raw prompt head — raw-head
    hashing scatters window-equivalent prompts across replicas."""

    WINDOW = 4

    def _routing(self, **kwargs):
        routing = PrefixHashRouting(
            prefix_len=4, spill_factor=None, **kwargs
        )
        for replica_id in range(4):
            routing.on_join(replica_id)
        return routing

    def test_key_is_the_effective_context_head(self):
        routing = self._routing(context_window=self.WINDOW)
        prompt = [1, 2, 3, 10, 11, 12, 13, 99]
        assert routing.routing_key(prompt) == prefix_key(
            effective_prefill_context(prompt, self.WINDOW), 4
        )
        # Default (no window) preserves raw-head keying.
        assert self._routing().routing_key(prompt) == (1, 2, 3, 10)

    def test_window_equivalent_prompts_colocate(self):
        """Prompts identical in the effective window but with
        different early tokens must land on the same replica."""
        routing = self._routing(context_window=self.WINDOW)
        replicas = [_StubReplica(i) for i in range(4)]
        rng = np.random.default_rng(11)
        scattered = 0
        for _ in range(100):
            tail = [int(t) for t in rng.integers(3, 200, size=5)]
            head_a = [int(t) for t in rng.integers(3, 200, size=3)]
            head_b = [int(t) for t in rng.integers(3, 200, size=6)]
            a, b = head_a + tail, head_b + tail
            assert effective_prefill_context(
                a, self.WINDOW
            ) == effective_prefill_context(b, self.WINDOW)
            if routing.choose(_Req(a), replicas) != routing.choose(
                _Req(b), replicas
            ):
                scattered += 1
        assert scattered == 0

    def test_raw_head_keying_scatters_the_same_pairs(self):
        """The bug being fixed: without the window the same pairs
        hash apart (sanity that the fix changes behaviour)."""
        routing = self._routing()
        replicas = [_StubReplica(i) for i in range(4)]
        rng = np.random.default_rng(11)
        scattered = 0
        for _ in range(100):
            tail = [int(t) for t in rng.integers(3, 200, size=5)]
            head_a = [int(t) for t in rng.integers(3, 200, size=3)]
            head_b = [int(t) for t in rng.integers(3, 200, size=6)]
            if routing.choose(
                _Req(head_a + tail), replicas
            ) != routing.choose(_Req(head_b + tail), replicas):
                scattered += 1
        assert scattered > 25

    def test_stale_shared_head_prompts_split(self):
        """Prompts sharing only a head the window has slid past are
        keyed by their (distinct) windows, not glued together."""
        routing = self._routing(context_window=self.WINDOW)
        head = [50, 51, 52, 53]
        a = head + [60, 61, 62, 63, 64]
        b = head + [70, 71, 72, 73, 74]
        assert routing.routing_key(a) != routing.routing_key(b)
        # Raw-head keying would have fused them.
        raw = self._routing()
        assert raw.routing_key(a) == raw.routing_key(b)

    def test_context_window_validation(self):
        with pytest.raises(ConfigError):
            PrefixHashRouting(context_window=0)
