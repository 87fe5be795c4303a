"""The fleet tier: M serving replicas behind one routing policy.

One :class:`~repro.serving.frontend.ServingEngine` is a pool of N
workers; a production tier is M such pools behind a router.
:class:`FleetEngine` owns that layer:

* **Routing** — arrivals are handed to a replica by a pluggable
  :class:`~repro.fleet.router.RoutingPolicy` (prefix-aware consistent
  hashing by default, or any pool dispatch policy), then the replica's
  own dispatch policy picks a worker, both through the one checked
  pick, :meth:`~repro.serving.clock.TickDriver._choose`.  Requests
  carry private seeded streams, so routing moves latency and cache
  locality, never committed tokens.
* **Lifecycle** — every replica walks JOINING → ACTIVE → DRAINING →
  RETIRED (:mod:`repro.fleet.lifecycle`).  :meth:`FleetEngine.drain`
  takes a replica off the ring, migrates its queued and pending
  requests to survivors (:meth:`~repro.serving.frontend.ServingEngine.
  withdraw_queued` — nothing has consumed its random stream, so
  migration is byte-exact), lets live work finish in place, and
  retires the replica with **zero dropped or duplicated requests**.
* **Fleet-wide hot swap** — :meth:`FleetEngine.swap_drafter` rolls a
  refreshed drafter across replicas **one replica at a time**, each
  replica rolling its own workers one per tick, so at most one worker
  in the whole fleet is mid-swap on any tick: zero downtime, stacked
  two levels deep.  It is the pool's roll: one
  :class:`~repro.serving.clock.TickDriver` queue whose children are
  replicas, each done when its pool's roll is.  A re-publication
  mid-roll drops every pending swap of the older drafter, the rolling
  pool's included, so no worker swaps to a superseded drafter.  A
  published snapshot reaches a fleet the way it reaches a pool:
  ``fleet.swap_drafter(snapshot)``.
* **One id namespace** — all replicas share one
  :class:`~repro.serving.request.RequestIdAllocator`, so concurrent
  replicas can never mint colliding request ids.
* **Determinism** — :meth:`snapshot_routing` freezes the run's
  placement as a :class:`~repro.fleet.router.StaticRouting`; under a
  static snapshot (and a static SD strategy) every request's output is
  byte-identical to the same request run on a single-pool reference.

The fleet is a :class:`~repro.serving.clock.TickDriver`, like each of
its pools: there is ONE clock, the fleet's, which every attached pool
is re-pointed at.  One :meth:`FleetEngine.tick` is one discrete-event
step across the whole fleet: :meth:`FleetEngine.open_tick` promotes
JOINING replicas, advances the fleet-level drafter roll and routes and
submits due arrivals; every non-retired replica opens its tick
(:meth:`~repro.serving.frontend.ServingEngine.open_tick`), the workers
of ALL of them run their cycle as one lock-step batch
(:func:`~repro.specdec.batch_engine.step_engines`: one drafter build
per shared drafter/target/strategy group, and one target verify per
shared target and temperature that vanilla rows ride too), every
replica closes its tick in order, :meth:`FleetEngine.close_tick`
retires drained DRAINING replicas, and the clock advances once.
No replica runs its own ``tick()`` inside a fleet tick.  Replicas share
no state a cycle writes, so outputs, tick metrics and every per-worker
counter equal those of ticking the replicas one after another; only the
order of events within a tick differs — every replica's pre-cycle and
admission events, then every replica's FINISHED events.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.drafter.base import Drafter
from repro.errors import ConfigError, FleetError
from repro.fleet.lifecycle import ReplicaLifecycle, ReplicaState
from repro.fleet.report import FleetReport
from repro.fleet.router import (
    PrefixHashRouting,
    RoutingPolicy,
    StaticRouting,
)
from repro.serving.clock import TickDriver
from repro.serving.frontend import ServingEngine
from repro.serving.request import ServingRequest
from repro.specdec.batch_engine import step_engines
from repro.specdec.control import RequestEvent
from repro.specdec.scheduler import RequestState


class FleetReplica:
    """One replica: a full serving pool plus fleet-side metadata.

    Args:
        replica_id: stable id of this replica in the fleet (ring
            membership and routing snapshots key on it).
        frontend: the replica's pool (it reads the fleet's clock).
        now: fleet virtual time of attachment.
    """

    def __init__(
        self,
        replica_id: int,
        frontend: ServingEngine,
        now: float = 0.0,
    ) -> None:
        self.replica_id = replica_id
        self.frontend = frontend
        self.lifecycle = ReplicaLifecycle(now)
        self.joined_at = now
        #: Arrivals the router handed this replica (migrations included).
        self.routed = 0

    @property
    def state(self) -> ReplicaState:
        """Current lifecycle state."""
        return self.lifecycle.state

    @property
    def backlog_tokens(self) -> int:
        """Predicted outstanding decode work across this replica."""
        return sum(
            worker.backlog_tokens for worker in self.frontend.workers
        )

    @property
    def queued_requests(self) -> int:
        """Requests queued on this replica's workers (not yet live)."""
        return sum(
            worker.num_waiting for worker in self.frontend.workers
        )

    @property
    def live_requests(self) -> int:
        """Requests decoding in live slots across this replica."""
        return sum(
            worker.engine.scheduler.num_live
            for worker in self.frontend.workers
        )

    @property
    def slot_capacity(self) -> int:
        """Total live slots this replica offers (workers when unbounded)."""
        total = 0
        for worker in self.frontend.workers:
            capacity = worker.engine.max_batch_size
            total += 1 if capacity is None else capacity
        return total

    @property
    def cache_warmth(self) -> int:
        """Prefix-cache tokens this replica holds across its workers.

        The scale-in victim signal: the replica with the least cached
        prefix state is the cheapest to drain — retiring it forfeits
        the fewest warm prefills (0 when no caches are attached).
        """
        total = 0
        for worker in self.frontend.workers:
            cache = worker.engine.kv_cache
            if cache is not None:
                total += cache.cached_tokens
        return total

    def prefix_match(self, prompt: Sequence[int]) -> int:
        """Longest prefix of ``prompt`` this replica already holds.

        The best match across the replica's workers (each probing its
        prefix cache and in-flight requests) — the warmth signal the
        router's spill path consults before shedding an arrival here.
        Non-accounting: probes never skew hit rates.
        """
        workers = self.frontend.workers  # a pool has at least one
        return max(worker.prefix_match(prompt) for worker in workers)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"FleetReplica(id={self.replica_id}, "
            f"state={self.state.value})"
        )


class FleetEngine(TickDriver):
    """M serving replicas behind a pluggable routing policy.

    Args:
        replicas: freshly built pools, one per replica (ids are their
            positions).  Build them with identical model/strategy
            configuration when you want the determinism contract.
        routing: fleet routing policy
            (:class:`~repro.fleet.router.PrefixHashRouting` with
            least-loaded spill when omitted).
        warmup_ticks: fleet ticks a JOINING replica waits before
            promotion to ACTIVE (0 = promoted on its first tick).
    """

    error = FleetError

    def __init__(
        self,
        replicas: Sequence[ServingEngine],
        routing: Optional[RoutingPolicy] = None,
        warmup_ticks: int = 0,
    ) -> None:
        if not replicas:
            raise ConfigError("a fleet needs at least one replica")
        if warmup_ticks < 0:
            raise ConfigError(
                f"warmup_ticks must be >= 0, got {warmup_ticks}"
            )
        super().__init__()
        self.routing = routing or PrefixHashRouting()
        self.warmup_ticks = warmup_ticks
        #: Worker-ticks provisioned: each non-retired replica charges
        #: one cycle per worker per fleet tick, whether busy or idle —
        #: the COST side of the autoscaling scoreboard (an idle
        #: over-provisioned fleet burns worker-cycles; a drained
        #: replica stops charging).
        self.worker_cycles = 0
        #: The latest drafter :meth:`swap_drafter` published; a replica
        #: attached later starts on it instead of its factory's.
        self._published: Optional[Drafter] = None
        self.replicas: List[FleetReplica] = []
        for frontend in replicas:
            self.add_replica(frontend)
        self._requests: Dict[int, ServingRequest] = {}
        #: request_id -> replica_id, the run's placement decisions
        #: (latest placement wins for migrated requests).
        self.placement: Dict[int, int] = {}
        self.migrations = 0
        self.drains = 0

    # -- membership --------------------------------------------------------

    def add_replica(self, frontend: ServingEngine) -> int:
        """Attach a freshly built pool as a JOINING replica.

        The replica starts receiving arrivals once promoted to ACTIVE
        (after ``warmup_ticks``); promotion joins it to the routing
        ring, moving only the minimal key arc.  When a drafter was ever
        published (:meth:`swap_drafter`, mid-roll included), every
        worker of the pool starts on the latest one.

        Returns:
            The new replica's id.
        """
        replica_id = len(self.replicas)
        if frontend.clock.now != 0.0:
            raise FleetError(
                f"replica {replica_id} frontend has already been "
                f"ticked; fleets need freshly built pools"
            )
        replica = FleetReplica(replica_id, frontend, now=self.clock.now)
        # One clock and one id namespace for the whole fleet.
        frontend.clock = self.clock
        frontend.id_allocator = self.id_allocator

        def forward(event: RequestEvent) -> None:
            # Re-publish onto the fleet's bus, stamped with the
            # emitting replica (worker/cycle/time stamps kept): one
            # subscription covers every replica, present and future.
            self.events.publish(
                dataclasses.replace(event, replica_id=replica_id)
            )

        frontend.subscribe(forward)
        if self._published is not None:
            # A joining pool holds no work and has never ticked, so it
            # takes the latest publication outright — no roll needed.
            for worker in frontend.workers:
                worker.engine.swap_drafter(self._published)
        self.replicas.append(replica)
        return replica_id

    def drain(self, replica_id: int) -> int:
        """Drain a replica: stop arrivals, migrate queued work, retire.

        The replica leaves the routing ring immediately (its prefix
        keys fall to ring successors), every PENDING/QUEUED request it
        held is withdrawn and re-routed through the fleet policy to
        surviving replicas, and its live/parked requests finish in
        place.  The replica retires on the tick its last request
        resolves — zero requests dropped, zero decoded twice.  A
        JOINING replica was never on the ring nor routed to, so it
        retires at once (its pool must hold nothing).

        Raises (changing nothing) if no other replica is ACTIVE or
        JOINING to place the replica's queued work or the fleet's arrivals.

        Returns:
            The number of requests migrated off the replica.
        """
        replica = self._replica(replica_id)
        unplaced = self._arrivals or replica.queued_requests or any(
            record.state is RequestState.PENDING
            for record in replica.frontend.records.values()
        )
        if unplaced and not any(
            other is not replica
            and other.state in (ReplicaState.ACTIVE, ReplicaState.JOINING)
            for other in self.replicas
        ):
            raise FleetError(
                f"draining replica {replica_id} would strand requests: "
                f"no other replica is ACTIVE or JOINING"
            )
        if replica.state is ReplicaState.JOINING:
            if not replica.frontend.drained:
                raise FleetError(
                    f"replica {replica_id} is JOINING but its pool "
                    f"holds unresolved requests"
                )
            replica.lifecycle.to(ReplicaState.RETIRED, self.clock.now)
            self.drains += 1
            return 0
        self.routing.on_leave(replica_id)
        replica.lifecycle.to(ReplicaState.DRAINING, self.clock.now)
        withdrawn = replica.frontend.withdraw_queued()
        for request in withdrawn:
            # Already known to the fleet — requeue for re-routing at
            # the next dispatch pass (original arrival time kept, so
            # latency metrics charge the migration honestly).
            self._requeue(request)
        self.migrations += len(withdrawn)
        self.drains += 1
        if replica.frontend.drained and not (
            replica.frontend.swap_in_progress
        ):
            replica.lifecycle.to(ReplicaState.RETIRED, self.clock.now)
        return len(withdrawn)

    def _replica(self, replica_id: int) -> FleetReplica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise FleetError(f"no replica with id {replica_id}")

    # -- request API -------------------------------------------------------

    def submit(self, request: ServingRequest) -> None:
        """Register an online request (routed once its time comes)."""
        self._enqueue(request, self._requests)
        self._requests[request.request_id] = request

    def swap_drafter(self, drafter: Drafter) -> None:
        """Roll a new drafter across the fleet, one replica at a time
        (see :meth:`~repro.serving.clock.TickDriver.swap_drafter`);
        replicas already swapped to an older drafter swap again."""
        super().swap_drafter(drafter)
        self._published = drafter

    def snapshot_routing(self) -> StaticRouting:
        """Freeze the placements made so far as a replayable policy.

        Replaying the snapshot on a fresh fleet of the same shape pins
        every request to the same replica — the *static routing
        snapshot* of the determinism contract.
        """
        return StaticRouting(self.placement)

    # -- event loop --------------------------------------------------------

    def tick(self) -> None:
        """Run one discrete-event step (see module docstring)."""
        pools = self.open_tick()
        stepping = [pool.open_tick() for pool in pools]
        outcomes = iter(step_engines(
            [worker.engine for workers in stepping for worker in workers]
        ))
        for pool, workers in zip(pools, stepping):
            pool.close_tick(workers, [next(outcomes) for _ in workers])
        self.close_tick()
        self.clock.advance()

    def open_tick(self) -> List[ServingEngine]:
        """Promote warmed-up JOINING replicas, advance the drafter
        roll, route due arrivals; returns the non-retired pools, each
        of which opens and closes its own tick inside this one."""
        now = self.clock.now
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.JOINING
                and now >= replica.joined_at + self.warmup_ticks
            ):
                replica.lifecycle.to(ReplicaState.ACTIVE, now)
                self.routing.on_join(replica.replica_id)
        self._roll_step()
        self._place_arrivals()
        pools = self._subdrivers()
        self.worker_cycles += sum(len(pool.workers) for pool in pools)
        return pools

    def close_tick(self) -> None:
        """Retire drained DRAINING replicas and settle the swap roll
        (the clock is the caller's to advance)."""
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.DRAINING
                and replica.frontend.drained
                and not replica.frontend.swap_in_progress
            ):
                replica.lifecycle.to(
                    ReplicaState.RETIRED, self.clock.now + 1.0
                )
        self._settle_roll()

    def report(self) -> FleetReport:
        """Aggregate the fleet's current state into a report."""
        return FleetReport(
            replica_ids=[r.replica_id for r in self.replicas],
            replica_states=[r.state.value for r in self.replicas],
            replica_reports=[
                r.frontend.report() for r in self.replicas
            ],
            ticks=self.clock.now,
            policy=self.routing.name,
            routed=[r.routed for r in self.replicas],
            spills=self.routing.spills,
            migrations=self.migrations,
            ring_moves=self.routing.ring_moves,
            drains=self.drains,
            drafter_rolls=self.drafter_rolls,
            worker_cycles=self.worker_cycles,
        )

    # -- internals ---------------------------------------------------------

    def _subdrivers(self) -> List[ServingEngine]:
        return [
            replica.frontend for replica in self.replicas
            if replica.state is not ReplicaState.RETIRED
        ]

    def _place(self, request_id: int) -> bool:
        """Route one due arrival to an ACTIVE replica."""
        routable = [
            replica for replica in self.replicas
            if replica.state is ReplicaState.ACTIVE
        ]
        if not routable:
            if any(
                replica.state is ReplicaState.JOINING
                for replica in self.replicas
            ):
                # Replicas are warming up: arrivals wait their turn
                # (arrival stamps are kept, so latency is charged).
                return False
            raise FleetError(
                "an arrival is due but no replica is ACTIVE or JOINING"
            )
        request = self._requests[request_id]
        replica = self._choose(self.routing, request, routable)
        replica.routed += 1
        self.placement[request_id] = replica.replica_id
        replica.frontend.submit(request)
        return True
