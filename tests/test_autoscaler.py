"""Tests for the elastic autoscaling subsystem (repro.autoscale):
pressure signals, hysteresis policy edges + fuzzed invariants, and the
controller closed over a live fleet (zero-drop scale-in, victim
selection, SD nudges, audit trail, determinism)."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.autoscale import (
    Autoscaler,
    HysteresisPolicy,
    PressureSnapshot,
    ScaleAction,
    ScaleDecision,
    ScalingPolicy,
    SignalAggregator,
)
from repro.errors import AutoscaleError, ConfigError
from repro.fleet import FleetEngine, ReplicaState
from repro.rollout.adaptive import AdaptiveSdConfig, AdaptiveSdManager
from repro.serving import ServingEngine
from repro.specdec import SdStrategy
from repro.specdec.control import RequestEvent, RequestEventKind
from repro.workload import flash_crowd_trace

STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)

HOLD = ScaleDecision(ScaleAction.HOLD)


def _pool(target, drafter, workers=2, max_batch=2, **kwargs):
    return ServingEngine(
        target, drafter, num_workers=workers, strategy=STRATEGY,
        temperature=0.9, max_batch_size=max_batch, **kwargs,
    )


def _crowd_trace(seed=7, num_base=20, num_crowd=40):
    return flash_crowd_trace(
        np.random.default_rng(seed),
        24,
        num_base=num_base,
        num_crowd=num_crowd,
        base_interarrival=4.0,
        crowd_interarrival=0.3,
        crowd_families=5,
    )


def _snapshot(
    live=0,
    queue_ewma=0.0,
    capacity=4,
    active=1,
    joining=0,
    draining=0,
    slope=0.0,
    time=0.0,
):
    return PressureSnapshot(
        time=time,
        queue_depth=int(queue_ewma),
        queue_ewma=queue_ewma,
        live_slots=live,
        slot_capacity=capacity,
        backlog_tokens=0,
        backlog_slope=slope,
        preemption_rate=0.0,
        spill_rate=0.0,
        active_replicas=active,
        joining_replicas=joining,
        draining_replicas=draining,
    )


class _Scripted(ScalingPolicy):
    """Replays a fixed decision sequence (HOLD once exhausted)."""

    name = "scripted"

    def __init__(self, decisions):
        self._decisions = list(decisions)

    def decide(self, snapshot):
        if self._decisions:
            return self._decisions.pop(0)
        return HOLD


class _StubReplica:
    def __init__(
        self,
        state=ReplicaState.ACTIVE,
        queued=0,
        live=0,
        capacity=2,
        backlog=0,
    ):
        self.state = state
        self.queued_requests = queued
        self.live_requests = live
        self.slot_capacity = capacity
        self.backlog_tokens = backlog


class _StubFleet:
    """Just enough fleet surface for SignalAggregator unit tests."""

    def __init__(self, replicas):
        self.replicas = replicas
        self.routing = types.SimpleNamespace(spills=0)
        self.clock = types.SimpleNamespace(now=0.0)
        self._callback = None

    def subscribe(self, callback):
        self._callback = callback

    def emit_preemption(self):
        self._callback(
            RequestEvent(
                kind=RequestEventKind.PREEMPTED,
                request_id=0,
                cycle=0,
            )
        )


class TestPressureSnapshot:
    def test_pressure_is_demand_over_capacity(self):
        snap = _snapshot(live=3, queue_ewma=5.0, capacity=4)
        assert snap.pressure == pytest.approx(2.0)

    def test_pressure_survives_zero_capacity(self):
        snap = _snapshot(live=2, queue_ewma=2.0, capacity=0)
        assert snap.pressure == pytest.approx(4.0)


class TestSignalAggregator:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            SignalAggregator(alpha=0.0)
        with pytest.raises(ConfigError):
            SignalAggregator(alpha=1.5)
        with pytest.raises(ConfigError):
            SignalAggregator(window=1)

    def test_sums_over_non_retired_replicas(self):
        fleet = _StubFleet([
            _StubReplica(queued=2, live=1, capacity=2, backlog=10),
            _StubReplica(queued=3, live=2, capacity=2, backlog=20),
            _StubReplica(
                state=ReplicaState.RETIRED, queued=9, live=9,
                capacity=9, backlog=99,
            ),
        ])
        snap = SignalAggregator(alpha=1.0).observe(fleet)
        assert snap.queue_depth == 5
        assert snap.live_slots == 3
        assert snap.slot_capacity == 4
        assert snap.backlog_tokens == 30
        assert snap.active_replicas == 2

    def test_draining_replica_counted_but_not_pressure(self):
        """A draining replica's residual work is not fleet demand —
        and its slots are not capacity arrivals can be routed onto."""
        fleet = _StubFleet([
            _StubReplica(queued=1, live=1, capacity=2),
            _StubReplica(
                state=ReplicaState.DRAINING, queued=0, live=2,
                capacity=2, backlog=50,
            ),
        ])
        snap = SignalAggregator(alpha=1.0).observe(fleet)
        assert snap.draining_replicas == 1
        assert snap.slot_capacity == 2
        assert snap.live_slots == 1
        assert snap.backlog_tokens == 0

    def test_joining_capacity_counts(self):
        """Imminent (JOINING) capacity is provisioned capacity:
        ignoring it would re-trigger scale-out during every warm-up."""
        fleet = _StubFleet([
            _StubReplica(capacity=2),
            _StubReplica(state=ReplicaState.JOINING, capacity=2),
        ])
        snap = SignalAggregator(alpha=1.0).observe(fleet)
        assert snap.joining_replicas == 1
        assert snap.slot_capacity == 4

    def test_queue_ewma_smooths(self):
        replica = _StubReplica(queued=8)
        fleet = _StubFleet([replica])
        aggregator = SignalAggregator(alpha=0.5)
        first = aggregator.observe(fleet)
        assert first.queue_ewma == pytest.approx(4.0)
        replica.queued_requests = 0
        second = aggregator.observe(fleet)
        assert second.queue_ewma == pytest.approx(2.0)

    def test_backlog_slope_tracks_growth(self):
        replica = _StubReplica(backlog=0)
        fleet = _StubFleet([replica])
        aggregator = SignalAggregator(window=4)
        for backlog in (0, 10, 20, 30):
            replica.backlog_tokens = backlog
            snap = aggregator.observe(fleet)
        assert snap.backlog_slope == pytest.approx(10.0)
        for _ in range(4):
            snap = aggregator.observe(fleet)
        assert snap.backlog_slope == pytest.approx(0.0)

    def test_preemptions_counted_per_tick(self):
        fleet = _StubFleet([_StubReplica()])
        aggregator = SignalAggregator(alpha=1.0)
        aggregator.attach(fleet)
        fleet.emit_preemption()
        fleet.emit_preemption()
        snap = aggregator.observe(fleet)
        assert snap.preemption_rate == pytest.approx(2.0)
        snap = aggregator.observe(fleet)
        assert snap.preemption_rate == pytest.approx(0.0)

    def test_spill_rate_uses_deltas(self):
        fleet = _StubFleet([_StubReplica()])
        fleet.routing.spills = 5
        aggregator = SignalAggregator(alpha=1.0)
        aggregator.attach(fleet)  # pre-existing spills not charged
        snap = aggregator.observe(fleet)
        assert snap.spill_rate == pytest.approx(0.0)
        fleet.routing.spills = 8
        snap = aggregator.observe(fleet)
        assert snap.spill_rate == pytest.approx(3.0)

    def test_one_aggregator_per_fleet(self):
        first = _StubFleet([_StubReplica()])
        second = _StubFleet([_StubReplica()])
        aggregator = SignalAggregator()
        aggregator.attach(first)
        aggregator.attach(first)  # idempotent
        with pytest.raises(ConfigError):
            aggregator.attach(second)
        with pytest.raises(ConfigError):
            aggregator.observe(second)

    def test_snapshot_history_kept(self):
        fleet = _StubFleet([_StubReplica()])
        aggregator = SignalAggregator()
        for _ in range(3):
            aggregator.observe(fleet)
        assert len(aggregator.snapshots) == 3


class TestHysteresisPolicyEdges:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            HysteresisPolicy(high_watermark=0.5, low_watermark=0.5)
        with pytest.raises(ConfigError):
            HysteresisPolicy(low_watermark=-0.1)
        with pytest.raises(ConfigError):
            HysteresisPolicy(min_replicas=0)
        with pytest.raises(ConfigError):
            HysteresisPolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigError):
            HysteresisPolicy(out_cooldown=-1)
        with pytest.raises(ConfigError):
            HysteresisPolicy(max_step=0)
        with pytest.raises(ConfigError):
            HysteresisPolicy(surge_factor=0.5)

    def test_holds_inside_band(self):
        policy = HysteresisPolicy(
            high_watermark=1.25, low_watermark=0.45
        )
        decision = policy.decide(
            _snapshot(live=3, capacity=4, active=2)
        )
        assert decision.is_hold

    def test_scales_out_above_high_watermark(self):
        policy = HysteresisPolicy(max_replicas=4)
        decision = policy.decide(
            _snapshot(live=5, queue_ewma=1.0, capacity=4, active=2)
        )
        assert decision.action is ScaleAction.SCALE_OUT
        assert decision.magnitude == 1
        assert "high watermark" in decision.reason

    def test_surge_scales_out_by_max_step(self):
        policy = HysteresisPolicy(
            max_replicas=8, max_step=3, surge_factor=2.0,
            high_watermark=1.25,
        )
        decision = policy.decide(
            _snapshot(live=40, capacity=4, active=1)
        )
        assert decision.action is ScaleAction.SCALE_OUT
        assert decision.magnitude == 3

    def test_scale_out_clamped_to_max_replicas(self):
        policy = HysteresisPolicy(
            max_replicas=4, max_step=3, surge_factor=1.0
        )
        decision = policy.decide(
            _snapshot(live=40, capacity=12, active=3)
        )
        assert decision.action is ScaleAction.SCALE_OUT
        assert decision.magnitude == 1  # 3 -> 4, never past the bound

    def test_out_cooldown_blocks_back_to_back(self):
        policy = HysteresisPolicy(out_cooldown=3, max_replicas=8)
        hot = _snapshot(live=20, capacity=4, active=2)
        assert policy.decide(hot).action is ScaleAction.SCALE_OUT
        assert policy.decide(hot).is_hold
        assert policy.decide(hot).is_hold
        assert policy.decide(hot).action is ScaleAction.SCALE_OUT

    def test_scale_in_needs_long_cooldown(self):
        policy = HysteresisPolicy(
            out_cooldown=0, in_cooldown=5, max_replicas=8
        )
        hot = _snapshot(live=20, capacity=4, active=4)
        idle = _snapshot(live=0, capacity=16, active=4)
        assert policy.decide(hot).action is ScaleAction.SCALE_OUT
        for _ in range(4):
            assert policy.decide(idle).is_hold
        assert policy.decide(idle).action is ScaleAction.SCALE_IN

    def test_never_scales_in_while_joining(self):
        policy = HysteresisPolicy(in_cooldown=0)
        idle = _snapshot(
            live=0, capacity=16, active=3, joining=1
        )
        for _ in range(20):
            assert policy.decide(idle).is_hold

    def test_growing_backlog_blocks_scale_in(self):
        policy = HysteresisPolicy(in_cooldown=0)
        idle_but_growing = _snapshot(
            live=0, capacity=16, active=3, slope=4.0
        )
        assert policy.decide(idle_but_growing).is_hold

    def test_scale_in_clamped_to_min_replicas(self):
        policy = HysteresisPolicy(
            min_replicas=2, in_cooldown=0, max_step=4
        )
        decision = policy.decide(
            _snapshot(live=0, capacity=12, active=3)
        )
        assert decision.action is ScaleAction.SCALE_IN
        assert decision.magnitude == 1  # 3 -> 2, never past the bound

    def test_nudges_at_bounds_with_cooldown(self):
        policy = HysteresisPolicy(
            min_replicas=1, max_replicas=2, nudge_cooldown=3
        )
        pinned_high = _snapshot(live=20, capacity=4, active=2)
        pinned_low = _snapshot(live=0, capacity=4, active=1)
        assert (
            policy.decide(pinned_high).action
            is ScaleAction.NUDGE_SD_DOWN
        )
        assert policy.decide(pinned_high).is_hold
        assert policy.decide(pinned_low).is_hold
        assert (
            policy.decide(pinned_low).action
            is ScaleAction.NUDGE_SD_UP
        )


class TestHysteresisPolicyFuzz:
    """Random pressure traces; the policy's invariants must hold."""

    WARMUP = 2

    def _drive(self, rng, policy, ticks=300):
        population = int(
            rng.integers(policy.min_replicas, policy.max_replicas + 1)
        )
        join_timers = []
        last_scale = None
        for tick in range(ticks):
            join_timers = [t - 1 for t in join_timers]
            promoted = sum(1 for t in join_timers if t <= 0)
            join_timers = [t for t in join_timers if t > 0]
            joining = len(join_timers)
            del promoted  # promotion only changes the split below
            snapshot = _snapshot(
                live=int(rng.integers(0, 40)),
                queue_ewma=float(rng.uniform(0.0, 20.0)),
                capacity=max(population * 4, 1),
                active=population - joining,
                joining=joining,
                slope=float(rng.uniform(-5.0, 5.0)),
                time=float(tick),
            )
            decision = policy.decide(snapshot)
            if decision.is_hold:
                continue
            if decision.action is ScaleAction.SCALE_OUT:
                if last_scale is not None:
                    assert tick - last_scale >= policy.out_cooldown, (
                        "scale-out inside cooldown"
                    )
                population += decision.magnitude
                join_timers.extend([self.WARMUP] * decision.magnitude)
                last_scale = tick
            elif decision.action is ScaleAction.SCALE_IN:
                assert joining == 0, "scale-in while a replica JOINING"
                if last_scale is not None:
                    assert tick - last_scale >= policy.in_cooldown, (
                        "scale-in inside cooldown"
                    )
                population -= decision.magnitude
                last_scale = tick
            assert (
                policy.min_replicas
                <= population
                <= policy.max_replicas
            ), "population left the configured bounds"

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_hold_under_random_pressure(self, seed):
        rng = np.random.default_rng(seed)
        policy = HysteresisPolicy(
            high_watermark=float(rng.uniform(0.9, 1.6)),
            low_watermark=float(rng.uniform(0.1, 0.6)),
            min_replicas=int(rng.integers(1, 3)),
            max_replicas=int(rng.integers(4, 9)),
            out_cooldown=int(rng.integers(0, 5)),
            in_cooldown=int(rng.integers(5, 15)),
            max_step=int(rng.integers(1, 4)),
        )
        self._drive(rng, policy)


class TestAutoscalerConstruction:
    def test_rejects_bad_config(self, target, trained_drafter):
        fleet = FleetEngine([_pool(target, trained_drafter)])
        with pytest.raises(AutoscaleError):
            Autoscaler(fleet, sd_step=0)
        with pytest.raises(AutoscaleError):
            Autoscaler(fleet, min_sd_threshold=8, max_sd_threshold=4)

    def test_scale_out_without_factory_raises(
        self, target, trained_drafter
    ):
        fleet = FleetEngine([_pool(target, trained_drafter)])
        scaler = Autoscaler(
            fleet,
            policy=_Scripted(
                [ScaleDecision(ScaleAction.SCALE_OUT, 1, "forced")]
            ),
        )
        fleet.tick()
        with pytest.raises(AutoscaleError):
            scaler.on_tick(fleet)

    def test_on_tick_rejects_foreign_fleet(
        self, target, trained_drafter
    ):
        fleet = FleetEngine([_pool(target, trained_drafter)])
        other = FleetEngine([_pool(target, trained_drafter)])
        scaler = Autoscaler(fleet)
        with pytest.raises(AutoscaleError):
            scaler.on_tick(other)


class TestAutoscalerFlashCrowd:
    @pytest.fixture(scope="class")
    def crowd_run(self, target, trained_drafter):
        trace = _crowd_trace()

        def pool():
            return _pool(
                target, trained_drafter, kv_cache_tokens=4096
            )

        fleet = FleetEngine([pool()], warmup_ticks=2)
        scaler = Autoscaler(
            fleet,
            replica_factory=pool,
            policy=HysteresisPolicy(
                min_replicas=1, max_replicas=4,
                high_watermark=1.25, low_watermark=0.45,
                out_cooldown=3, in_cooldown=12,
            ),
        )
        report = fleet.run(trace, on_tick=scaler.on_tick)
        return trace, fleet, scaler, report

    def test_crowd_triggers_scale_out_then_in(self, crowd_run):
        _, _, scaler, _ = crowd_run
        actions = [e.decision.action for e in scaler.events]
        assert ScaleAction.SCALE_OUT in actions
        assert ScaleAction.SCALE_IN in actions
        assert actions.index(ScaleAction.SCALE_OUT) < actions.index(
            ScaleAction.SCALE_IN
        )

    def test_zero_drop_under_elastic_membership(self, crowd_run):
        trace, _, _, report = crowd_run
        served = sorted(
            record.request.request_id
            for pool_report in report.replica_reports
            for record in pool_report.records
        )
        assert served == sorted(r.request_id for r in trace)

    def test_fleet_returns_to_min_size(self, crowd_run):
        _, fleet, _, _ = crowd_run
        active = [
            r for r in fleet.replicas
            if r.state is ReplicaState.ACTIVE
        ]
        assert len(active) == 1

    def test_every_event_is_auditable(self, crowd_run):
        _, _, scaler, _ = crowd_run
        assert scaler.events
        for event in scaler.events:
            assert isinstance(event.snapshot, PressureSnapshot)
            assert event.decision.reason
            if event.decision.action in (
                ScaleAction.SCALE_OUT, ScaleAction.SCALE_IN
            ):
                assert event.replica_ids

    def test_ring_moves_fully_attributed(self, crowd_run):
        _, fleet, scaler, _ = crowd_run
        charged = sum(e.ring_moves for e in scaler.events)
        assert charged == fleet.routing.ring_moves
        assert charged > 0

    def test_audit_rows_mirror_events(self, crowd_run):
        _, _, scaler, _ = crowd_run
        rows = scaler.audit()
        assert len(rows) == len(scaler.events)
        for row, event in zip(rows, scaler.events):
            assert row == (
                event.time,
                event.decision.action.value,
                event.decision.magnitude,
                event.decision.reason,
            )

    def test_outputs_match_single_pool_reference(
        self, crowd_run, target, trained_drafter
    ):
        """Elastic membership moves placement and latency, never
        committed tokens: the autoscaled fleet's responses are
        byte-identical to one static pool serving the same trace."""
        trace, _, _, report = crowd_run
        reference = _pool(
            target, trained_drafter, kv_cache_tokens=4096
        ).run(trace, max_ticks=20_000)
        fleet_responses = {
            record.request.request_id: record.response
            for record in report.pooled().records
        }
        reference_responses = {
            record.request.request_id: record.response
            for record in reference.records
        }
        assert fleet_responses == reference_responses


class TestAutoscalerActuation:
    def test_scale_in_drains_coldest_replica(
        self, target, trained_drafter
    ):
        """The victim is the least-prefix-valuable replica — the one
        holding the least cached prefix state."""
        trace = flash_crowd_trace(
            np.random.default_rng(3), 24,
            num_base=10, num_crowd=6,
            base_interarrival=1.0, crowd_interarrival=1.0,
            base_families=2, crowd_families=1,
        )
        fleet = FleetEngine(
            [
                _pool(target, trained_drafter, kv_cache_tokens=4096)
                for _ in range(2)
            ],
        )
        scaler = Autoscaler(
            fleet,
            policy=_Scripted(
                [HOLD] * 12
                + [ScaleDecision(ScaleAction.SCALE_IN, 1, "scripted")]
            ),
        )
        report = fleet.run(trace, on_tick=scaler.on_tick)
        (event,) = [e for e in scaler.events if e.replica_ids]
        (victim_id,) = event.replica_ids
        warmth = {
            r.replica_id: snap_warmth
            for r, snap_warmth in (
                (r, r.cache_warmth) for r in fleet.replicas
            )
        }
        survivor_id = next(
            r.replica_id
            for r in fleet.replicas
            if r.replica_id != victim_id
        )
        assert warmth[victim_id] <= warmth[survivor_id]
        served = sorted(
            record.request.request_id
            for pool_report in report.replica_reports
            for record in pool_report.records
        )
        assert served == sorted(r.request_id for r in trace)

    def test_nudges_step_and_clamp_sd_threshold(
        self, target, trained_drafter
    ):
        config = AdaptiveSdConfig(
            strategies=[STRATEGY], activation_threshold=6
        )
        managers = [
            AdaptiveSdManager(config), AdaptiveSdManager(config)
        ]
        pool = ServingEngine(
            target, trained_drafter, num_workers=2,
            sd_managers=managers, temperature=0.9, max_batch_size=2,
        )
        fleet = FleetEngine([pool])
        scaler = Autoscaler(
            fleet,
            policy=_Scripted([
                ScaleDecision(ScaleAction.NUDGE_SD_DOWN, 1, "down"),
                ScaleDecision(ScaleAction.NUDGE_SD_DOWN, 1, "down"),
                ScaleDecision(ScaleAction.NUDGE_SD_UP, 1, "up"),
            ]),
            sd_step=4,
            min_sd_threshold=1,
            max_sd_threshold=8,
        )
        fleet.tick()
        scaler.on_tick(fleet)  # 6 -> 2
        assert config.activation_threshold == 2
        fleet.tick()
        scaler.on_tick(fleet)  # 2 -> clamped at 1
        assert config.activation_threshold == 1
        fleet.tick()
        scaler.on_tick(fleet)  # 1 -> 5
        assert config.activation_threshold == 5
        assert [e.sd_threshold for e in scaler.events] == [2, 1, 5]
