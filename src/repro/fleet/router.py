"""Fleet-level routing policies: which replica an arrival joins.

The per-pool dispatch layer (:mod:`repro.serving.dispatch`) picks a
*worker* inside one pool; these policies pick the *replica* (a whole
:class:`~repro.serving.frontend.ServingEngine` pool) an arrival is
handed to.  Because every request carries a private seeded random
stream, replica routing — like worker dispatch — changes latency and
cache locality but never a committed token.

* :class:`RoutingPolicy` — routes with any pool dispatch policy, a
  routable replica being a dispatch view: least-loaded by default,
  ``RoutingPolicy(RoundRobinDispatch())`` the oblivious baseline.
* :class:`PrefixHashRouting` — the headline policy: a token-prefix-
  keyed :class:`~repro.fleet.ring.ConsistentHashRing` with virtual
  nodes sends every request sharing a prompt prefix (system prompts,
  GRPO groups, few-shot templates) to the same replica, so the
  replica's prefix cache and flat-tree batching amortise
  fleet-wide instead of once per replica.  A hot-spot **spill** path
  sheds load: when the hashed owner's backlog exceeds
  ``spill_factor ×`` the least-loaded replica's (plus a margin), the
  arrival spills to the *second-warmest* replica for its prefix —
  :func:`~repro.serving.dispatch.warmest` among those cooler than the
  owner — so one hot family's overflow lands on one overflow replica
  and pays its cold prefill once.  For windowed models,
  ``context_window`` keys the ring on the prompt's *effective prefill
  context* rather than its raw head, so window-equivalent prompts
  co-locate (see the class docstring).  Ring membership follows the
  replica lifecycle via :meth:`RoutingPolicy.on_join` /
  :meth:`on_leave`, and every membership change audits how many
  previously-routed keys moved owner (the report's ``ring_moves``
  counter — consistent hashing's minimal-movement claim, measured).
* :class:`StaticRouting` — replays a frozen ``request_id → replica``
  placement.  This is the **static routing snapshot** of the
  determinism contract: replaying a snapshot pins every placement, and
  outputs are then byte-identical to a single-pool reference run.

``RoutingPolicy`` and ``DispatchPolicy`` stay unrelated class trees:
the tracer books a ``choose`` by the root it subclasses.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

from repro.cache.blocks import effective_prefill_context
from repro.errors import ConfigError, FleetError
from repro.fleet.ring import ConsistentHashRing, prefix_key
from repro.serving.dispatch import (
    DispatchPolicy,
    LeastLoadedDispatch,
    warmest,
)
from repro.serving.request import ServingRequest


class RoutingPolicy:
    """Chooses the replica an arriving request is handed to.

    ``replicas`` is the id-ordered sequence of *routable* (ACTIVE)
    replicas (``replica_id``, ``backlog_tokens``, ``prefix_match``); the
    returned index is into it, and ``placement`` (a pool dispatch
    policy, least-loaded when omitted) picks it.  Policies are notified
    of membership changes (:meth:`on_join` / :meth:`on_leave`) so
    stateful routing — the hash ring — tracks the lifecycle exactly.
    """

    def __init__(self, placement: Optional[DispatchPolicy] = None) -> None:
        self.placement = placement or LeastLoadedDispatch()
        #: Arrivals shed off their hashed owner by the spill path.
        self.spills = 0
        #: Previously-routed keys that changed owner across membership
        #: changes (0 for ring-less policies).
        self.ring_moves = 0

    @property
    def name(self) -> str:
        """Label used in reports and benchmark tables."""
        return f"fleet-{self.placement.name}"

    def choose(
        self, request: ServingRequest, replicas: Sequence
    ) -> int:
        """Return the index of the replica ``request`` should join."""
        return self.placement.choose(request, replicas)

    def on_join(self, replica_id: int) -> None:
        """A replica became ACTIVE (routable)."""

    def on_leave(self, replica_id: int) -> None:
        """A replica left the routable set (draining or failed)."""


class PrefixHashRouting(RoutingPolicy):
    """Prefix-keyed consistent hashing with least-loaded spill.

    The ring places 64 virtual nodes per replica; an empty ring, or a
    hashed owner that is not currently routable, falls back to the
    ``placement`` policy (least-loaded).

    Args:
        prefix_len: leading prompt tokens forming the routing key —
            requests sharing this prefix land on one replica.
        spill_factor: hot-spot shedding threshold.  When the hashed
            owner's ``backlog_tokens`` exceeds ``spill_factor * min``
            (the least-loaded replica's backlog) ``+ spill_margin``,
            the arrival spills to the *second-warmest* replica for its
            prefix: :func:`~repro.serving.dispatch.warmest` of the
            replicas strictly cooler than the owner, if any (a spill
            sheds load, never moves a hot spot).  Successive spills of
            one hot family then pile onto the SAME overflow replica,
            which pays the family's cold prefill once; a load-only spill
            would scatter the family across every cool replica and pay
            the prefill on each.  None disables spilling (pure affinity).
        spill_margin: absolute slack (tokens) before spilling can
            trigger, so near-idle fleets do not spill on noise.
        context_window: the served model's attention window.  When
            set, the routing key is the leading ``prefix_len`` tokens
            of the prompt's *effective prefill context*
            (:func:`~repro.cache.blocks.effective_prefill_context`:
            the trailing ``context_window`` tokens of ``prompt[:-1]``)
            instead of the raw prompt head.  The raw head is the wrong
            key for a windowed model twice over: prompts identical in
            the effective window but differing in early tokens hash
            apart (scattering a reuse that the per-replica cache —
            which keys on the effective context — would have hit), and
            prompts sharing only an early head the window has slid
            past hash together (gluing traffic to one replica for a
            reuse that cannot happen).  None (the default) preserves
            raw-head keying for unwindowed models.
    """

    name = "prefix-hash"

    def __init__(
        self,
        prefix_len: int = 4,
        spill_factor: Optional[float] = 2.0,
        spill_margin: int = 32,
        context_window: Optional[int] = None,
    ) -> None:
        super().__init__()
        if prefix_len < 1:
            raise ConfigError(
                f"prefix_len must be >= 1, got {prefix_len}"
            )
        if context_window is not None and context_window < 1:
            raise ConfigError(
                f"context_window must be >= 1 when set, "
                f"got {context_window}"
            )
        if spill_factor is not None and spill_factor < 1.0:
            raise ConfigError(
                f"spill_factor must be >= 1.0, got {spill_factor}"
            )
        if spill_margin < 0:
            raise ConfigError(
                f"spill_margin must be >= 0, got {spill_margin}"
            )
        self.prefix_len = prefix_len
        self.spill_factor = spill_factor
        self.spill_margin = spill_margin
        self.context_window = context_window
        self.ring = ConsistentHashRing()
        #: Distinct keys routed so far — the audit set for measuring
        #: key movement across membership changes.
        self._routed_keys: Set[Tuple[int, ...]] = set()

    # -- membership (driven by the fleet lifecycle) ------------------------

    def on_join(self, replica_id: int) -> None:
        self._audited_change(lambda: self.ring.add(replica_id))

    def on_leave(self, replica_id: int) -> None:
        if replica_id in self.ring:
            self._audited_change(lambda: self.ring.remove(replica_id))

    def _audited_change(self, mutate) -> None:
        """Apply a membership change, counting keys that moved owner."""
        before = (
            self.ring.placement(self._routed_keys)
            if len(self.ring) and self._routed_keys
            else {}
        )
        mutate()
        if not len(self.ring):
            return
        after = self.ring.placement(self._routed_keys)
        self.ring_moves += sum(
            1
            for key, owner in after.items()
            if before.get(key) is not None and before[key] != owner
        )

    # -- placement ---------------------------------------------------------

    def routing_key(
        self, prompt: Sequence[int]
    ) -> Tuple[int, ...]:
        """The ring key of ``prompt``.

        Raw prompt head, or — with :attr:`context_window` set — the
        head of the prompt's effective prefill context, the tokens a
        windowed replica's cache can actually reuse.
        """
        if self.context_window is not None:
            return prefix_key(
                effective_prefill_context(
                    prompt, self.context_window
                ),
                self.prefix_len,
            )
        return prefix_key(prompt, self.prefix_len)

    def choose(
        self, request: ServingRequest, replicas: Sequence
    ) -> int:
        if not len(self.ring):
            return self.placement.choose(request, replicas)
        key = self.routing_key(request.prompt)
        self._routed_keys.add(key)
        owner = self.ring.owner(key)
        by_id = {
            replica.replica_id: i for i, replica in enumerate(replicas)
        }
        if owner not in by_id:
            # Ring briefly ahead of the routable set (e.g. an owner
            # mid-promotion); fall back rather than misroute.
            return self.placement.choose(request, replicas)
        index = by_id[owner]
        if self.spill_factor is not None and len(replicas) > 1:
            loads = [replica.backlog_tokens for replica in replicas]
            if loads[index] > (
                self.spill_factor * min(loads) + self.spill_margin
            ):
                cooler = [
                    i for i, load in enumerate(loads) if load < loads[index]
                ]
                if cooler:
                    self.spills += 1
                    return warmest(request.prompt, replicas, cooler)[0]
        return index


class StaticRouting(RoutingPolicy):
    """Replay a frozen ``request_id → replica_id`` placement.

    Built by :meth:`~repro.fleet.engine.FleetEngine.snapshot_routing`
    after a run; replaying it pins every placement decision, which is
    the *static routing snapshot* under which the fleet's outputs are
    byte-identical to a single-pool reference (and to the run the
    snapshot was taken from).  Routing a request the snapshot has never
    seen raises — a snapshot is a contract, not a heuristic.
    """

    name = "static-snapshot"

    def __init__(self, placement: Mapping[int, int]) -> None:
        super().__init__()
        self.snapshot: Dict[int, int] = dict(placement)

    def choose(
        self, request: ServingRequest, replicas: Sequence
    ) -> int:
        replica_id = self.snapshot.get(request.request_id)
        if replica_id is None:
            raise FleetError(
                f"request {request.request_id} is not in the routing "
                f"snapshot"
            )
        for index, replica in enumerate(replicas):
            if replica.replica_id == replica_id:
                return index
        raise FleetError(
            f"snapshot places request {request.request_id} on replica "
            f"{replica_id}, which is not routable"
        )
