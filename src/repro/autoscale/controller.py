"""The autoscaler: policy decisions executed against a live fleet.

:class:`Autoscaler` closes the loop — each fleet tick it asks the
:class:`~repro.autoscale.signals.SignalAggregator` for a
:class:`~repro.autoscale.signals.PressureSnapshot`, hands it to the
:class:`~repro.autoscale.policy.ScalingPolicy`, and executes the
returned :class:`~repro.autoscale.policy.ScaleDecision` against the
:class:`~repro.fleet.engine.FleetEngine`:

* **SCALE_OUT** — build fresh pools via the ``replica_factory`` and
  :meth:`~repro.fleet.engine.FleetEngine.add_replica` them; they warm
  up (JOINING) and join the ring on promotion, moving only the minimal
  key arc.
* **SCALE_IN** — :meth:`~repro.fleet.engine.FleetEngine.drain` the
  least-prefix-valuable replica: the ACTIVE replica minimising
  ``(cache_warmth, backlog_tokens, -replica_id)``, i.e. the one whose
  retirement forfeits the fewest warm prefills, sheds the least work,
  and (on ties) is the youngest.  Drains are zero-drop by
  construction — queued work migrates, live work finishes in place.
* **NUDGE_SD_UP / NUDGE_SD_DOWN** — intra-pool actuation at the
  replica bounds: every attached elastic-SD manager's
  ``activation_threshold`` is stepped, trading speculation slots
  against serving slots when membership cannot change.

Every executed decision becomes a :class:`ScaleEvent` carrying the
triggering snapshot, verbatim reason, the replica ids touched, and —
for membership changes — the ``ring_moves`` that change cost.
Scale-out movement happens later (at JOINING→ACTIVE promotion), so
per-tick ``ring_moves`` deltas are charged to the most recent
membership event: the audit trail answers "what did that decision cost
the ring" even though the ring pays lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import AutoscaleError
from repro.autoscale.policy import (
    HysteresisPolicy,
    ScaleAction,
    ScaleDecision,
    ScalingPolicy,
)
from repro.autoscale.signals import PressureSnapshot, SignalAggregator
from repro.fleet.engine import FleetEngine, FleetReplica
from repro.fleet.lifecycle import ReplicaState
from repro.serving.frontend import ServingEngine


@dataclass
class ScaleEvent:
    """One executed (non-hold) autoscaling decision, fully auditable.

    Attributes:
        time: fleet virtual time of execution.
        decision: the policy verdict that was executed.
        snapshot: the pressure snapshot that triggered it.
        replica_ids: replicas added (SCALE_OUT) or drained (SCALE_IN);
            empty for nudges.
        migrations: queued requests migrated off drained replicas.
        sd_threshold: elastic-SD activation threshold after a nudge
            (None for membership events).
        ring_moves: prefix keys that changed ring owner because of
            this event.  Charged lazily: scale-out arcs move at
            promotion, ticks after the decision, so each tick's ring
            delta is attributed to the most recent membership event.
    """

    time: float
    decision: ScaleDecision
    snapshot: PressureSnapshot
    replica_ids: List[int] = field(default_factory=list)
    migrations: int = 0
    sd_threshold: Optional[int] = None
    ring_moves: int = 0


class Autoscaler:
    """Event-driven elastic scaling of a :class:`FleetEngine`.

    Drive it from the fleet run loop::

        scaler = Autoscaler(fleet, replica_factory=build_pool)
        fleet.run(trace, on_tick=scaler.on_tick)

    Args:
        fleet: the fleet to scale.
        replica_factory: builds one freshly configured
            :class:`~repro.serving.frontend.ServingEngine` per
            scale-out replica.  Required for any policy that can emit
            SCALE_OUT; a scale-out decision without a factory raises
            :class:`~repro.errors.AutoscaleError`.
        policy: scaling policy; when omitted, a default
            :class:`~repro.autoscale.policy.HysteresisPolicy`, bounded
            at its ``MAX_REPLICAS`` (a larger fleet needs its own).
    """

    #: Elastic-SD threshold change per nudge.
    SD_STEP = 4
    #: Clamp for nudged activation thresholds.
    MIN_SD_THRESHOLD, MAX_SD_THRESHOLD = 1, 64

    def __init__(
        self,
        fleet: FleetEngine,
        replica_factory: Optional[
            Callable[[], ServingEngine]
        ] = None,
        policy: Optional[ScalingPolicy] = None,
    ) -> None:
        self.fleet = fleet
        self.replica_factory = replica_factory
        self.policy = policy or HysteresisPolicy()
        self.signals = SignalAggregator()
        self.signals.attach(fleet)
        #: Every executed decision, in execution order (the audit log).
        self.events: List[ScaleEvent] = []
        self._ring_moves_seen = fleet.routing.ring_moves
        self._last_membership_event: Optional[ScaleEvent] = None

    # -- the control loop hook ---------------------------------------------

    def on_tick(self, fleet: FleetEngine) -> None:
        """Observe → decide → actuate, once per fleet tick.

        Pass as ``on_tick=`` to :meth:`FleetEngine.run` (the fleet
        argument keeps the hook signature; it must be the fleet this
        autoscaler was built for).
        """
        if fleet is not self.fleet:
            raise AutoscaleError(
                "on_tick() called with a different fleet than the one "
                "this autoscaler controls"
            )
        self._charge_ring_moves()
        snapshot = self.signals.observe(fleet)
        decision = self.policy.decide(snapshot)
        if decision.is_hold:
            return
        self._execute(decision, snapshot)

    # -- actuation ---------------------------------------------------------

    def _execute(
        self, decision: ScaleDecision, snapshot: PressureSnapshot
    ) -> None:
        event = ScaleEvent(
            time=self.fleet.clock.now,
            decision=decision,
            snapshot=snapshot,
        )
        if decision.action is ScaleAction.SCALE_OUT:
            self._scale_out(event, decision.magnitude)
            self._last_membership_event = event
        elif decision.action is ScaleAction.SCALE_IN:
            self._scale_in(event, decision.magnitude)
            self._last_membership_event = event
        elif decision.action in (
            ScaleAction.NUDGE_SD_UP,
            ScaleAction.NUDGE_SD_DOWN,
        ):
            self._nudge_sd(event, decision)
        else:  # pragma: no cover - exhaustive over ScaleAction
            raise AutoscaleError(
                f"unknown scale action {decision.action!r}"
            )
        self.events.append(event)

    def _scale_out(self, event: ScaleEvent, magnitude: int) -> None:
        if self.replica_factory is None:
            raise AutoscaleError(
                "policy asked to scale out but no replica_factory was "
                "provided"
            )
        for _ in range(magnitude):
            replica_id = self.fleet.add_replica(self.replica_factory())
            event.replica_ids.append(replica_id)

    def _scale_in(self, event: ScaleEvent, magnitude: int) -> None:
        for _ in range(magnitude):
            victim = self._victim()
            if victim is None:
                break  # nothing ACTIVE left to drain; partial is fine
            event.migrations += self.fleet.drain(victim.replica_id)
            event.replica_ids.append(victim.replica_id)

    def _victim(self) -> Optional[FleetReplica]:
        """The least-prefix-valuable ACTIVE replica (drain target).

        Minimises ``(cache_warmth, backlog_tokens, -replica_id)``:
        coldest cache first (cheapest warm state to forfeit), then
        least outstanding work (fewest migrations), then the youngest
        replica (keep long-lived warm members).
        """
        candidates = [
            replica
            for replica in self.fleet.replicas
            if replica.state is ReplicaState.ACTIVE
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda replica: (
                replica.cache_warmth,
                replica.backlog_tokens,
                -replica.replica_id,
            ),
        )

    def _nudge_sd(
        self, event: ScaleEvent, decision: ScaleDecision
    ) -> None:
        delta = (
            self.SD_STEP
            if decision.action is ScaleAction.NUDGE_SD_UP
            else -self.SD_STEP
        )
        threshold: Optional[int] = None
        seen = set()
        for manager in self._managers():
            config = manager.config
            if id(config) in seen:
                continue  # workers may share one config object
            seen.add(id(config))
            config.activation_threshold = max(
                self.MIN_SD_THRESHOLD,
                min(
                    self.MAX_SD_THRESHOLD,
                    config.activation_threshold + delta,
                ),
            )
            threshold = config.activation_threshold
        event.sd_threshold = threshold

    def _managers(self):
        """Every elastic-SD manager on every non-retired replica."""
        for replica in self.fleet.replicas:
            if replica.state is ReplicaState.RETIRED:
                continue
            for manager in replica.frontend.managers:
                yield manager

    # -- ring-move attribution ---------------------------------------------

    def _charge_ring_moves(self) -> None:
        """Charge new ring movement to the latest membership event.

        Scale-out ring arcs move at JOINING→ACTIVE promotion — ticks
        after the decision — so each tick's delta of the router's
        ``ring_moves`` counter is attributed to the most recent
        membership :class:`ScaleEvent` (drain movement, which happens
        synchronously inside :meth:`_scale_in`, lands on its own event
        the same way on the next tick).
        """
        delta = self.fleet.routing.ring_moves - self._ring_moves_seen
        if delta <= 0:
            return
        self._ring_moves_seen = self.fleet.routing.ring_moves
        if self._last_membership_event is not None:
            self._last_membership_event.ring_moves += delta

    # -- audit -------------------------------------------------------------

    @property
    def membership_changes(self) -> int:
        """Executed SCALE_OUT / SCALE_IN decisions (thrash metric)."""
        return sum(
            1
            for event in self.events
            if event.decision.action
            in (ScaleAction.SCALE_OUT, ScaleAction.SCALE_IN)
        )
