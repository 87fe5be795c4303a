"""The fleet tier: sharded multi-replica serving behind one router.

A serving pool (:class:`~repro.serving.frontend.ServingEngine`) is N
workers, each with its own scheduler and prefix cache.  This package
is the layer above: :class:`~repro.fleet.engine.FleetEngine` owns M
replicas (each a full pool) behind a pluggable
:class:`~repro.fleet.router.RoutingPolicy`, headlined by prefix-aware
consistent hashing (:mod:`repro.fleet.ring`) so shared-prefix traffic
concentrates where its cache already lives.  Replicas walk an explicit
lifecycle (:mod:`repro.fleet.lifecycle`) with zero-drop draining, and
fleet-wide rolling drafter hot-swaps keep the adaptive-drafter loop
(the paper's core) publishing into every replica with zero downtime.
"""

from repro.fleet.engine import FleetEngine, FleetReplica
from repro.fleet.lifecycle import ReplicaLifecycle, ReplicaState
from repro.fleet.report import FleetReport
from repro.fleet.ring import ConsistentHashRing, prefix_key
from repro.fleet.router import (
    PrefixHashRouting,
    RoutingPolicy,
    StaticRouting,
)

__all__ = [
    "ConsistentHashRing",
    "FleetEngine",
    "FleetReplica",
    "FleetReport",
    "PrefixHashRouting",
    "ReplicaLifecycle",
    "ReplicaState",
    "RoutingPolicy",
    "StaticRouting",
    "prefix_key",
]
