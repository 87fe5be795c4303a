"""The fleet tier: M serving replicas behind one routing policy.

One :class:`~repro.serving.frontend.ServingEngine` is a pool of N
workers; a production tier is M such pools behind a router.
:class:`FleetEngine` owns that layer:

* **Routing** — arrivals are handed to a replica by a pluggable
  :class:`~repro.fleet.router.RoutingPolicy` (prefix-aware consistent
  hashing by default), then the replica's own dispatch policy picks a
  worker.  Requests carry private seeded streams, so routing moves
  latency and cache locality, never committed tokens.
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
  two levels deep.  A published snapshot reaches a fleet the way it
  reaches a pool: ``fleet.swap_drafter(snapshot)``.
* **One id namespace** — all replicas share one
  :class:`~repro.serving.request.RequestIdAllocator`, so concurrent
  replicas can never mint colliding request ids.
* **Determinism** — :meth:`snapshot_routing` freezes the run's
  placement as a :class:`~repro.fleet.router.StaticRouting`; under a
  static snapshot (and a static SD strategy) every request's output is
  byte-identical to the same request run on a single-pool reference.

One :meth:`FleetEngine.tick` is one discrete-event step across the
whole fleet: JOINING replicas are promoted, the fleet-level drafter
roll advances, due arrivals are routed and submitted, every non-retired
replica opens its tick
(:meth:`~repro.serving.frontend.ServingEngine.open_tick`), the workers
of ALL of them run their cycle as one lock-step batch
(:func:`~repro.specdec.batch_engine.step_engines`: one drafter build
per shared drafter/target/strategy group, and one target verify per
shared target and temperature that vanilla rows ride too), every
replica closes its tick in order (all replica clocks advance in
lock-step with the fleet clock), and drained DRAINING replicas retire.
No replica runs its own ``tick()`` inside a fleet tick.  Replicas share
no state a cycle writes, so outputs, tick metrics and every per-worker
counter equal those of ticking the replicas one after another; only the
order of events within a tick differs — every replica's pre-cycle and
admission events, then every replica's FINISHED events.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.drafter.base import Drafter
from repro.errors import ConfigError, FleetError
from repro.fleet.lifecycle import ReplicaLifecycle, ReplicaState
from repro.fleet.report import FleetReport
from repro.fleet.router import (
    PrefixHashRouting,
    RoutingPolicy,
    StaticRouting,
)
from repro.serving.clock import VirtualClock
from repro.serving.frontend import ServingEngine
from repro.serving.request import RequestIdAllocator, ServingRequest
from repro.specdec.batch_engine import step_engines
from repro.specdec.control import EventBus, RequestEvent


class FleetReplica:
    """One replica: a full serving pool plus fleet-side metadata.

    Args:
        replica_id: stable id of this replica in the fleet (ring
            membership and routing snapshots key on it).
        frontend: the replica's pool.  Must be freshly built — the
            fleet syncs its clock to fleet time on attach.
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
        if frontend.clock.now != 0.0:
            raise FleetError(
                f"replica {replica_id} frontend has already been "
                f"ticked; fleets need freshly built pools"
            )
        if now > 0:
            # Late joiners fast-forward to fleet time so latency and
            # TTFT stamps stay in the fleet's frame.
            frontend.clock.advance(now)

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
            worker.num_live for worker in self.frontend.workers
        )

    @property
    def slot_capacity(self) -> int:
        """Total live slots this replica offers (workers when unbounded)."""
        total = 0
        for worker in self.frontend.workers:
            total += (
                1 if worker.capacity is None else worker.capacity
            )
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
        return max(
            (
                worker.prefix_match(prompt)
                for worker in self.frontend.workers
            ),
            default=0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"FleetReplica(id={self.replica_id}, "
            f"state={self.state.value})"
        )


class FleetEngine:
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
        self.clock = VirtualClock()
        self.routing = routing or PrefixHashRouting()
        #: The fleet's one request-id namespace: every replica's
        #: ``allocate_request_ids`` is re-pointed at it, so no two
        #: replicas can mint the same id.
        self.id_allocator = RequestIdAllocator()
        self.warmup_ticks = warmup_ticks
        #: Fleet-wide merged lifecycle stream: every replica's events
        #: re-published with their ``replica_id`` stamped, so consumers
        #: (the autoscaler's signal aggregator) subscribe ONCE instead
        #: of chasing per-replica buses across membership changes.
        self.events = EventBus()
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
            self._attach(frontend)
        self._requests: Dict[int, ServingRequest] = {}
        self._arrivals: List = []  # heap of (arrival_time, request_id)
        #: request_id -> replica_id, the run's placement decisions
        #: (latest placement wins for migrated requests).
        self.placement: Dict[int, int] = {}
        self.migrations = 0
        self.drains = 0
        self.drafter_rolls = 0
        self._swap_drafter: Optional[Drafter] = None
        self._swap_queue: Deque[int] = deque()
        self._swap_active: Optional[int] = None

    # -- membership --------------------------------------------------------

    def _attach(self, frontend: ServingEngine) -> FleetReplica:
        replica = FleetReplica(
            len(self.replicas), frontend, now=self.clock.now
        )
        frontend.id_allocator = self.id_allocator
        replica_id = replica.replica_id

        def forward(event: RequestEvent) -> None:
            # Re-publish onto the fleet's merged stream, stamped with
            # the emitting replica (worker/cycle/time stamps kept).
            self.events.publish(
                dataclasses.replace(event, replica_id=replica_id)
            )

        frontend.subscribe(forward)
        if self._published is not None:
            # A joining pool holds no work and has never ticked, so it
            # takes the latest publication outright — no roll needed.
            for worker in frontend.workers:
                worker.swap_drafter(self._published)
        self.replicas.append(replica)
        return replica

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
        return self._attach(frontend).replica_id

    def drain(self, replica_id: int) -> int:
        """Drain a replica: stop arrivals, migrate queued work, retire.

        The replica leaves the routing ring immediately (its prefix
        keys fall to ring successors), every PENDING/QUEUED request it
        held is withdrawn and re-routed through the fleet policy to
        surviving replicas, and its live/parked requests finish in
        place.  The replica retires on the tick its last request
        resolves — zero requests dropped, zero decoded twice.

        Returns:
            The number of requests migrated off the replica.
        """
        replica = self._replica(replica_id)
        self.routing.on_leave(replica_id)
        replica.lifecycle.to(ReplicaState.DRAINING, self.clock.now)
        withdrawn = replica.frontend.withdraw_queued()
        for request in withdrawn:
            # Already known to the fleet — requeue for re-routing at
            # the next dispatch pass (original arrival time kept, so
            # latency metrics charge the migration honestly).
            heapq.heappush(
                self._arrivals,
                (request.arrival_time, request.request_id),
            )
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

    def _routable(self) -> List[FleetReplica]:
        """Replicas the router may choose (ACTIVE only)."""
        return [
            replica
            for replica in self.replicas
            if replica.state is ReplicaState.ACTIVE
        ]

    # -- request API -------------------------------------------------------

    def allocate_request_ids(self, count: int) -> range:
        """Reserve fresh fleet-unique request ids."""
        return self.id_allocator.allocate(count)

    def submit(self, request: ServingRequest) -> None:
        """Register an online request (routed once its time comes)."""
        if request.request_id in self._requests:
            raise FleetError(
                f"duplicate request_id {request.request_id}"
            )
        self._requests[request.request_id] = request
        self.id_allocator.observe(request.request_id)
        heapq.heappush(
            self._arrivals, (request.arrival_time, request.request_id)
        )

    def swap_drafter(self, drafter: Drafter) -> None:
        """Roll a new drafter across the fleet, one replica at a time.

        Each replica rolls its own workers one per tick
        (:meth:`~repro.serving.frontend.ServingEngine.swap_drafter`);
        the fleet walks replicas serially, so at most one worker
        fleet-wide is mid-swap on any tick.  Calling
        again mid-roll restarts the walk with the newest drafter
        (latest publication wins) — replicas already swapped simply
        swap again.
        """
        if not isinstance(drafter, Drafter):
            raise FleetError(
                f"swap_drafter() needs a Drafter, got {type(drafter)!r}"
            )
        self._swap_drafter = self._published = drafter
        self._swap_queue = deque(
            replica.replica_id
            for replica in self.replicas
            if replica.state is not ReplicaState.RETIRED
        )
        self._swap_active = None

    @property
    def swap_in_progress(self) -> bool:
        """Whether the fleet-wide drafter roll has work left."""
        return self._swap_drafter is not None

    def subscribe(
        self, callback: Callable[[RequestEvent], None]
    ) -> None:
        """Observe every lifecycle event fleet-wide as it is emitted.

        One subscription covers every replica — present AND future:
        events are forwarded onto the fleet's merged bus stamped with
        their ``replica_id``, and replicas attached later
        (:meth:`add_replica`) forward onto the same bus.  Consumers
        therefore never need per-replica subscriptions that would go
        stale across membership changes.
        """
        self.events.subscribe(callback)

    def lifecycle_events(self) -> List[RequestEvent]:
        """Fleet-wide merged lifecycle trail (emission order).

        Every event carries its ``replica_id`` in addition to the
        worker/cycle/time stamps the pool-level trail already had.
        """
        return self.events.events

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
        now = self.clock.now
        self._promote_joining(now)
        self._roll_swap()
        self._dispatch_arrivals(now)
        pools = [
            replica.frontend for replica in self.replicas
            if replica.state is not ReplicaState.RETIRED
        ]
        self.worker_cycles += sum(len(pool.workers) for pool in pools)
        stepping = [pool.open_tick() for pool in pools]
        outcomes = iter(step_engines(
            [worker.engine for workers in stepping for worker in workers]
        ))
        for pool, workers in zip(pools, stepping):
            pool.close_tick(workers, [next(outcomes) for _ in workers])
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.DRAINING
                and replica.frontend.drained
                and not replica.frontend.swap_in_progress
            ):
                replica.lifecycle.to(ReplicaState.RETIRED, now + 1.0)
        self._finalize_swap()
        self.clock.advance(1.0)

    def run(
        self,
        requests: Sequence[ServingRequest] = (),
        max_ticks: int = 1_000_000,
        on_tick: Optional[Callable[["FleetEngine"], None]] = None,
    ) -> FleetReport:
        """Serve ``requests`` (plus earlier submissions) to completion.

        Args:
            requests: trace to submit before starting.
            max_ticks: safety bound on fleet virtual time.
            on_tick: called after every tick with the fleet — the hook
                mid-run drains and hot swaps are driven from.

        Returns:
            The run's :class:`~repro.fleet.report.FleetReport`.
        """
        for request in requests:
            self.submit(request)
        ticks = 0
        while (
            self._unresolved() or self.swap_in_progress
        ) and ticks < max_ticks:
            self.tick()
            if on_tick is not None:
                on_tick(self)
            ticks += 1
        if self._unresolved():
            raise FleetError(
                f"fleet run did not drain within {max_ticks} ticks"
            )
        return self.report()

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

    def _unresolved(self) -> bool:
        if self._arrivals:
            return True
        return any(
            replica.state is not ReplicaState.RETIRED
            and not replica.frontend.drained
            for replica in self.replicas
        )

    def _promote_joining(self, now: float) -> None:
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.JOINING
                and now >= replica.joined_at + self.warmup_ticks
            ):
                replica.lifecycle.to(ReplicaState.ACTIVE, now)
                self.routing.on_join(replica.replica_id)

    def _roll_swap(self) -> None:
        """Advance the fleet-wide drafter roll by at most one replica.

        The next replica's pool roll starts only once the previous
        replica's roll has fully completed (its own one-worker-per-tick
        walk), so the fleet never has two replicas mid-swap.
        """
        if self._swap_active is not None:
            replica = self._replica(self._swap_active)
            if (
                replica.state is not ReplicaState.RETIRED
                and replica.frontend.swap_in_progress
            ):
                return  # still rolling inside the current replica
            self._swap_active = None
        while self._swap_queue:
            replica_id = self._swap_queue.popleft()
            replica = self._replica(replica_id)
            if replica.state is ReplicaState.RETIRED:
                continue  # retired mid-roll: nothing to swap
            replica.frontend.swap_drafter(self._swap_drafter)
            self._swap_active = replica_id
            return

    def _finalize_swap(self) -> None:
        """Mark the fleet roll done on the tick its last pool finishes
        (the replica ticks above may have completed the final pool's
        one-worker-per-tick walk)."""
        if self._swap_drafter is None or self._swap_queue:
            return
        if self._swap_active is not None:
            replica = self._replica(self._swap_active)
            if (
                replica.state is not ReplicaState.RETIRED
                and replica.frontend.swap_in_progress
            ):
                return
            self._swap_active = None
        self._swap_drafter = None
        self.drafter_rolls += 1

    def _dispatch_arrivals(self, now: float) -> None:
        while self._arrivals and self._arrivals[0][0] <= now:
            routable = self._routable()
            if not routable:
                if any(
                    replica.state is ReplicaState.JOINING
                    for replica in self.replicas
                ):
                    # Replicas are warming up: arrivals wait their turn
                    # (arrival stamps are kept, so latency is charged).
                    return
                raise FleetError(
                    "an arrival is due but no replica is ACTIVE or "
                    "JOINING"
                )
            _, request_id = heapq.heappop(self._arrivals)
            request = self._requests[request_id]
            index = self.routing.choose(request, routable)
            if not 0 <= index < len(routable):
                raise FleetError(
                    f"routing policy {self.routing.name!r} chose "
                    f"replica index {index} of {len(routable)}"
                )
            replica = routable[index]
            replica.routed += 1
            self.placement[request_id] = replica.replica_id
            replica.frontend.submit(request)
