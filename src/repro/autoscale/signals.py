"""Fleet pressure signals: the autoscaler's sensor layer.

Scaling decisions must be driven by what the fleet is *experiencing*,
not by post-hoc reports: a flash crowd shows up as queued arrivals,
preemption events, and router spills minutes before it shows up in a
latency percentile.  :class:`SignalAggregator` folds three live sources
into one windowed :class:`PressureSnapshot` per fleet tick:

* the fleet's merged lifecycle stream
  (:meth:`~repro.fleet.engine.FleetEngine.subscribe`) — PREEMPTED
  events are counted per tick into a preemption rate;
* the router's spill counter
  (:attr:`~repro.fleet.router.RoutingPolicy.spills`) — hot-spot
  shedding is the earliest sign the hashed placement is saturating;
* the replicas' scheduler surfaces — queued requests, live slots, and
  predicted backlog tokens, summed over non-retired replicas.

Instantaneous readings are noisy (one admission wave can empty a
queue), so the aggregator keeps exponentially-weighted moving averages
(queue depth, preemption rate, spill rate) and a finite-difference
**backlog slope** over a sliding window — the signal that separates "a
burst that is already draining" from "a backlog that is still
growing".  The derived :attr:`PressureSnapshot.pressure` ratio
(demand over provisioned slots) is what the default
:class:`~repro.autoscale.policy.HysteresisPolicy` thresholds on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.errors import ConfigError
from repro.fleet.engine import FleetEngine
from repro.fleet.lifecycle import ReplicaState
from repro.specdec.control import RequestEvent, RequestEventKind


@dataclass(frozen=True)
class PressureSnapshot:
    """One tick's windowed view of fleet pressure.

    Attributes:
        time: fleet virtual time of the sample.
        queue_depth: requests queued on workers right now (fleet-wide).
        queue_ewma: exponentially-smoothed queue depth.
        live_slots: requests decoding in live slots right now.
        slot_capacity: live slots provisioned across ACTIVE + JOINING
            replicas (JOINING counts — that capacity is imminent, and
            ignoring it would re-trigger scale-out during warm-up).
        backlog_tokens: predicted outstanding decode tokens fleet-wide.
        backlog_slope: backlog-token change per tick over the sliding
            window (positive = demand still outrunning capacity).
        preemption_rate: smoothed PREEMPTED events per tick.
        spill_rate: smoothed router spills per tick.
        active_replicas: replicas currently ACTIVE.
        joining_replicas: replicas warming up (JOINING).
        draining_replicas: replicas draining toward retirement.
    """

    time: float
    queue_depth: int
    queue_ewma: float
    live_slots: int
    slot_capacity: int
    backlog_tokens: int
    backlog_slope: float
    preemption_rate: float
    spill_rate: float
    active_replicas: int
    joining_replicas: int
    draining_replicas: int

    @property
    def pressure(self) -> float:
        """Demand over provisioned capacity (the default policy metric).

        Occupied live slots plus the smoothed queue, per provisioned
        slot: ~1.0 means the fleet is exactly full, well above 1.0
        means arrivals are stacking up behind full workers, and well
        below 1.0 means slots are idling.
        """
        return (self.live_slots + self.queue_ewma) / max(
            self.slot_capacity, 1
        )


class SignalAggregator:
    """Folds fleet event streams and load surfaces into snapshots.

    Attach once (:meth:`attach`); the single fleet-level subscription
    covers replicas added later, so membership changes never leave the
    sensor blind.  Call :meth:`observe` once per fleet tick (the
    autoscaler's ``on_tick`` does) to fold that tick's event counts
    and load readings into a new :class:`PressureSnapshot`.
    """

    #: EWMA smoothing factor: the weight of the newest sample.
    ALPHA = 0.5
    #: Sliding-window length in ticks for the backlog slope.
    WINDOW = 8

    def __init__(self) -> None:
        self._fleet: Optional[FleetEngine] = None
        self._preemptions_pending = 0
        self._spills_seen = 0
        self._queue_ewma = 0.0
        self._preemption_ewma = 0.0
        self._spill_ewma = 0.0
        self._backlog_window: Deque[int] = deque(maxlen=self.WINDOW)
        #: Snapshot history in observation order (the audit trail
        #: scale events reference by value).
        self.snapshots: list = []

    # -- wiring ------------------------------------------------------------

    def attach(self, fleet: FleetEngine) -> None:
        """Subscribe to ``fleet``'s merged event stream (idempotent
        per fleet; attaching to a second fleet raises)."""
        if self._fleet is fleet:
            return
        if self._fleet is not None:
            raise ConfigError(
                "SignalAggregator is already attached to a fleet; "
                "build one aggregator per fleet"
            )
        self._fleet = fleet
        self._spills_seen = fleet.routing.spills
        fleet.subscribe(self._on_event)

    def _on_event(self, event: RequestEvent) -> None:
        if event.kind is RequestEventKind.PREEMPTED:
            self._preemptions_pending += 1

    # -- sampling ----------------------------------------------------------

    def observe(self, fleet: FleetEngine) -> PressureSnapshot:
        """Fold the tick's deltas into a snapshot (one call per tick)."""
        if self._fleet is None:
            self.attach(fleet)
        elif fleet is not self._fleet:
            raise ConfigError(
                "observe() called with a different fleet than the one "
                "attached"
            )
        queue_depth = 0
        live_slots = 0
        slot_capacity = 0
        backlog_tokens = 0
        active = joining = draining = 0
        for replica in fleet.replicas:
            state = replica.state
            if state is ReplicaState.RETIRED:
                continue
            if state is ReplicaState.DRAINING:
                # A draining replica finishes its live work but takes
                # no arrivals: its slots are not capacity demand can
                # be scheduled onto, and its residual work should not
                # read as fleet pressure.
                draining += 1
                continue
            if state is ReplicaState.JOINING:
                joining += 1
            else:
                active += 1
            queue_depth += replica.queued_requests
            live_slots += replica.live_requests
            slot_capacity += replica.slot_capacity
            backlog_tokens += replica.backlog_tokens

        preemptions = self._preemptions_pending
        self._preemptions_pending = 0
        spills = fleet.routing.spills - self._spills_seen
        self._spills_seen = fleet.routing.spills

        a = self.ALPHA
        self._queue_ewma += a * (queue_depth - self._queue_ewma)
        self._preemption_ewma += a * (
            preemptions - self._preemption_ewma
        )
        self._spill_ewma += a * (spills - self._spill_ewma)
        self._backlog_window.append(backlog_tokens)
        slope = 0.0
        if len(self._backlog_window) >= 2:
            slope = (
                self._backlog_window[-1] - self._backlog_window[0]
            ) / (len(self._backlog_window) - 1)

        snapshot = PressureSnapshot(
            time=fleet.clock.now,
            queue_depth=queue_depth,
            queue_ewma=self._queue_ewma,
            live_slots=live_slots,
            slot_capacity=slot_capacity,
            backlog_tokens=backlog_tokens,
            backlog_slope=slope,
            preemption_rate=self._preemption_ewma,
            spill_rate=self._spill_ewma,
            active_replicas=active,
            joining_replicas=joining,
            draining_replicas=draining,
        )
        self.snapshots.append(snapshot)
        return snapshot
