"""One placement step: the shared policies against the rankings they
replaced, and the one checked pick of both engines.

A fleet routes its routable replicas with the pool's dispatch policies
(:class:`repro.fleet.router.RoutingPolicy`), and prefix affinity and
the fleet's spill path share :func:`repro.serving.dispatch.warmest`.
``tests/_placement_oracle.py`` keeps the per-tier rankings; over random
id-ordered views with forced backlog and match ties, the shared code
must make the same pick with the same number of ``prefix_match``
probes.
"""

from __future__ import annotations

import numpy as np
import pytest

import _placement_oracle as oracle
from repro.errors import FleetError, ServingError
from repro.fleet import FleetEngine, PrefixHashRouting, RoutingPolicy
from repro.serving import (
    DispatchPolicy,
    PrefixAffinityDispatch,
    RoundRobinDispatch,
    ServingEngine,
    ServingRequest,
)
from repro.specdec import SdStrategy

TRIALS = 400
#: Few distinct values, so backlogs and matches tie often.
BACKLOGS = (0, 4, 4, 8, 16)
MATCHES = (0, 1, 2, 2, 3)


class _View:
    """A dispatch view (worker or replica) that counts its probes."""

    def __init__(self, view_id: int, backlog: int, match: int) -> None:
        self.replica_id = self.worker_id = view_id
        self.backlog_tokens = backlog
        self.match = match
        self.probes = 0

    def prefix_match(self, prompt) -> int:
        self.probes += 1
        return self.match


def _views(rng, max_views=6):
    count = int(rng.integers(1, max_views + 1))
    ids = sorted(rng.choice(10, size=count, replace=False).tolist())
    return [
        _View(view_id, int(rng.choice(BACKLOGS)), int(rng.choice(MATCHES)))
        for view_id in ids
    ]


def _request(rng, request_id=0):
    prompt = rng.integers(0, 3, size=int(rng.integers(2, 6))).tolist()
    return ServingRequest(request_id, prompt, 4, arrival_time=0.0)


def _probed(views):
    """The probes since the last call, then reset them."""
    counts = [view.probes for view in views]
    for view in views:
        view.probes = 0
    return counts


def test_round_robin_matches_the_fleet_round_robin():
    rng = np.random.default_rng(0)
    shared = RoutingPolicy(RoundRobinDispatch())
    parent = oracle.FleetRoundRobin()
    for i in range(TRIALS):
        views, request = _views(rng), _request(rng, i)
        assert shared.choose(request, views) == parent.choose(request, views)
    assert shared.name == "fleet-round-robin"


def test_least_loaded_matches_the_fleet_least_loaded():
    rng = np.random.default_rng(1)
    shared, parent = RoutingPolicy(), oracle.FleetLeastLoaded()
    for i in range(TRIALS):
        views, request = _views(rng), _request(rng, i)
        assert shared.choose(request, views) == parent.choose(request, views)
    assert shared.name == "fleet-least-loaded"


def test_prefix_affinity_ranks_and_probes_as_before():
    rng = np.random.default_rng(2)
    for i in range(TRIALS):
        views, request = _views(rng), _request(rng, i)
        min_match = int(rng.integers(1, 4))
        index = PrefixAffinityDispatch(min_match=min_match).choose(
            request, views
        )
        probes = _probed(views)
        assert index == oracle.prefix_affinity_choose(
            request, views, min_match
        )
        assert probes == _probed(views)


def test_prefix_hash_spill_ranks_and_probes_as_before():
    """Owner, fallbacks (empty ring, unroutable owner) and the spill to
    the warmest strictly cooler replica."""
    rng = np.random.default_rng(3)
    spilled_total = 0
    for i in range(TRIALS):
        views, request = _views(rng), _request(rng, i)
        routing = PrefixHashRouting(
            prefix_len=2,
            spill_factor=[None, 1.0, 1.5][int(rng.integers(3))],
            spill_margin=int(rng.choice([0, 4])),
        )
        members = [view.replica_id for view in views]
        if rng.random() < 0.2:
            members.append(10)  # on the ring, not routable
        if rng.random() < 0.1:
            members = []  # empty ring
        for replica_id in members:
            routing.on_join(replica_id)
        index = routing.choose(request, views)
        probes = _probed(views)
        expected, spilled = oracle.prefix_hash_choose(
            routing, request, views
        )
        assert index == expected
        assert routing.spills == int(spilled)
        assert probes == _probed(views)
        spilled_total += spilled
    assert spilled_total > TRIALS // 10  # the spill path was exercised


class _OutOfRange(DispatchPolicy):
    """Picks a position just outside the views it is given."""

    name = "out-of-range"

    def __init__(self, low: bool) -> None:
        self.low = low

    def choose(self, request, views) -> int:
        return -1 if self.low else len(views)


def _pool(target, drafter, **kwargs):
    return ServingEngine(
        target, drafter, num_workers=2,
        strategy=SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6),
        temperature=0.9, max_batch_size=2, **kwargs,
    )


@pytest.mark.parametrize("low", [True, False], ids=["minus-one", "len"])
def test_pool_tick_rejects_an_out_of_range_pick(
    target, untrained_drafter, low
):
    pool = _pool(target, untrained_drafter, dispatch=_OutOfRange(low))
    pool.submit(ServingRequest(0, [5, 6, 7], 4, arrival_time=0.0))
    with pytest.raises(ServingError, match="out-of-range"):
        pool.tick()


@pytest.mark.parametrize("low", [True, False], ids=["minus-one", "len"])
def test_fleet_tick_rejects_an_out_of_range_pick(
    target, untrained_drafter, low
):
    fleet = FleetEngine(
        [_pool(target, untrained_drafter) for _ in range(2)],
        routing=RoutingPolicy(_OutOfRange(low)),
    )
    fleet.submit(ServingRequest(0, [5, 6, 7], 4, arrival_time=0.0))
    with pytest.raises(FleetError, match="out-of-range"):
        fleet.tick()
