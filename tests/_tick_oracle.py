"""Per-worker stepping: the order the lock-step tick is held to (oracle).

:meth:`repro.serving.frontend.ServingEngine.tick` runs every worker's
cycle as one lock-step batch, and :meth:`repro.fleet.engine.FleetEngine.
tick` runs every replica's workers as one batch.  This module keeps the
order they replaced, in which each engine is stepped alone, worker by
worker, and a fleet ticks its replicas one after another, each running
its whole pool tick before the next starts.  The equivalence suite runs
the same traces both ways and requires equal outputs, random streams,
tick stamps, counters and cycle reports.

:func:`per_worker` and :func:`replica_by_replica` install these ticks
on one pool or fleet object (an instance attribute shadows the method,
so ``run()`` and a :class:`~repro.longtail.RolloutScheduler` driving
the pool pick them up).
"""

from __future__ import annotations

import types

from repro.fleet import FleetEngine, ReplicaState
from repro.serving import ServingEngine


def pool_tick(pool: ServingEngine) -> None:
    """One pool tick with every worker's engine stepped alone, in order."""
    workers = pool.open_tick()
    pool.close_tick(workers, [worker.engine.step() for worker in workers])


def fleet_tick(fleet: FleetEngine) -> None:
    """One fleet tick in which each replica runs its whole pool tick in
    turn (the retire / roll bookkeeping is the fleet's own)."""
    now = fleet.clock.now
    fleet._promote_joining(now)
    fleet._roll_swap()
    fleet._dispatch_arrivals(now)
    for replica in fleet.replicas:
        if replica.state is not ReplicaState.RETIRED:
            fleet.worker_cycles += len(replica.frontend.workers)
            pool_tick(replica.frontend)
    for replica in fleet.replicas:
        if (
            replica.state is ReplicaState.DRAINING
            and replica.frontend.drained
            and not replica.frontend.swap_in_progress
        ):
            replica.lifecycle.to(ReplicaState.RETIRED, now + 1.0)
    fleet._finalize_swap()
    fleet.clock.advance(1.0)


def per_worker(pool: ServingEngine) -> ServingEngine:
    """Make ``pool.tick()`` step its workers one at a time."""
    pool.tick = types.MethodType(pool_tick, pool)
    return pool


def replica_by_replica(fleet: FleetEngine) -> FleetEngine:
    """Make ``fleet.tick()`` tick its replicas one after another."""
    fleet.tick = types.MethodType(fleet_tick, fleet)
    return fleet
