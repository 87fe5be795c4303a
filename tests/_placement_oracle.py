"""The per-tier rankings that one placement protocol replaced (oracle).

A pool's dispatch and a fleet's routing once ranked their views apart:
the fleet had its own round-robin and least-loaded policies (ties by
``replica_id``), and the fleet's hot-spot spill ranked the replicas
cooler than the hashed owner with a warmest-first ``max`` of its own,
next to the pool's prefix-affinity ranking.  This module keeps those
rankings verbatim so ``tests/test_placement_oracle.py`` can hold the
shared policies and :func:`repro.serving.dispatch.warmest` to them:
same pick, same number of ``prefix_match`` probes (the probe count is
what the traced ``cache.probe`` span count reads).
"""

from __future__ import annotations

from typing import Optional, Sequence


class FleetRoundRobin:
    """Cyclic placement over active replicas."""

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request, replicas: Sequence) -> int:
        index = self._next % len(replicas)
        self._next += 1
        return index


class FleetLeastLoaded:
    """The replica with the least backlog, ties to the lowest id."""

    def choose(self, request, replicas: Sequence) -> int:
        return min(
            range(len(replicas)),
            key=lambda i: (
                replicas[i].backlog_tokens,
                replicas[i].replica_id,
            ),
        )


def least_loaded(workers: Sequence) -> int:
    """The pool's least-loaded pick (ties to the lowest position)."""
    return min(
        range(len(workers)),
        key=lambda i: (workers[i].backlog_tokens, i),
    )


def prefix_affinity_choose(request, workers: Sequence, min_match: int) -> int:
    """``PrefixAffinityDispatch.choose`` with a least-loaded fallback."""
    matches = [worker.prefix_match(request.prompt) for worker in workers]
    best = max(matches)
    if best < min_match:
        return least_loaded(workers)
    return min(
        (i for i, match in enumerate(matches) if match == best),
        key=lambda i: (workers[i].backlog_tokens, i),
    )


def spill_target(
    request,
    replicas: Sequence,
    loads: Sequence[int],
    owner_index: int,
) -> Optional[int]:
    """Where an arrival shed off its hot owner lands (None: nowhere)."""
    candidates = [
        i
        for i in range(len(replicas))
        if i != owner_index and loads[i] < loads[owner_index]
    ]
    if not candidates:
        return None
    return max(
        candidates,
        key=lambda i: (
            replicas[i].prefix_match(request.prompt),
            -loads[i],
            -replicas[i].replica_id,
        ),
    )


def prefix_hash_choose(routing, request, replicas: Sequence):
    """``PrefixHashRouting.choose`` over ``routing``'s ring, without
    touching it: returns ``(index, spilled)``."""
    fallback = FleetLeastLoaded()
    if not len(routing.ring):
        return fallback.choose(request, replicas), False
    owner = routing.ring.owner(routing.routing_key(request.prompt))
    by_id = {replica.replica_id: i for i, replica in enumerate(replicas)}
    if owner not in by_id:
        return fallback.choose(request, replicas), False
    index = by_id[owner]
    if routing.spill_factor is not None and len(replicas) > 1:
        loads = [replica.backlog_tokens for replica in replicas]
        if loads[index] > (
            routing.spill_factor * min(loads) + routing.spill_margin
        ):
            spilled = spill_target(request, replicas, loads, index)
            if spilled is not None:
                return spilled, True
    return index, False
