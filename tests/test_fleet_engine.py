"""Tests for the fleet tier (repro.fleet): lifecycle, routing,
drain/migration, fleet-wide hot swap, id allocation, determinism."""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.errors import ConfigError, FleetError, ServingError
from repro.fleet import (
    FleetEngine,
    PrefixHashRouting,
    ReplicaLifecycle,
    ReplicaState,
    RoutingPolicy,
    StaticRouting,
)
from repro.serving import (
    LeastLoadedDispatch,
    PrefixAffinityDispatch,
    RequestIdAllocator,
    RoundRobinDispatch,
    ServingEngine,
    ServingRequest,
)
from repro.specdec import PrefixAwareAdmission, SdStrategy, WorkerCounters
from repro.workload import fleet_trace

STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


def _pool(target, drafter, workers=2, max_batch=2, **kwargs):
    return ServingEngine(
        target, drafter, num_workers=workers, strategy=STRATEGY,
        temperature=0.9, max_batch_size=max_batch, **kwargs,
    )


def _trace(num_tenants=3, per_tenant=4, num_batch=4, seed=7):
    return fleet_trace(
        np.random.default_rng(seed),
        24,
        num_tenants=num_tenants,
        requests_per_tenant=per_tenant,
        num_batch=num_batch,
        prefix_len=4,
        mean_interarrival=1.0,
    )


def _responses(report):
    pooled = report.pooled() if hasattr(report, "pooled") else report
    return {
        r.request.request_id: r.response for r in pooled.records
    }


class TestLifecycle:
    def test_happy_path(self):
        lifecycle = ReplicaLifecycle(0.0)
        assert lifecycle.state is ReplicaState.JOINING
        lifecycle.to(ReplicaState.ACTIVE, 1.0)
        lifecycle.to(ReplicaState.DRAINING, 5.0)
        lifecycle.to(ReplicaState.RETIRED, 9.0)
        assert [s for s, _ in lifecycle.history] == [
            ReplicaState.JOINING,
            ReplicaState.ACTIVE,
            ReplicaState.DRAINING,
            ReplicaState.RETIRED,
        ]

    def test_joining_may_retire_directly(self):
        lifecycle = ReplicaLifecycle()
        lifecycle.to(ReplicaState.RETIRED, 0.0)

    @pytest.mark.parametrize(
        "path",
        [
            (ReplicaState.DRAINING,),  # JOINING cannot drain
            (ReplicaState.ACTIVE, ReplicaState.RETIRED),  # must drain
            (
                ReplicaState.ACTIVE,
                ReplicaState.DRAINING,
                ReplicaState.ACTIVE,  # no resurrection
            ),
        ],
    )
    def test_illegal_transitions(self, path):
        lifecycle = ReplicaLifecycle()
        with pytest.raises(FleetError):
            for state in path:
                lifecycle.to(state, 0.0)


class TestRequestIdAllocator:
    def test_validation(self):
        with pytest.raises(ServingError):
            RequestIdAllocator().allocate(0)

    def test_allocate_and_observe(self):
        allocator = RequestIdAllocator()
        assert list(allocator.allocate(3)) == [0, 1, 2]
        allocator.observe(10)
        assert list(allocator.allocate(2)) == [11, 12]
        allocator.observe(4)  # behind the cursor: no-op
        assert allocator.next_id == 13

    def test_concurrent_replicas_never_collide(self):
        """Replicas minting ids concurrently from the shared namespace
        can never collide — the fleet-safety satellite."""
        allocator = RequestIdAllocator()
        minted = []
        errors = []
        barrier = threading.Barrier(8)

        def replica():
            try:
                barrier.wait()
                local = []
                for _ in range(200):
                    local.extend(allocator.allocate(3))
                minted.append(local)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=replica) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        flat = [i for local in minted for i in local]
        assert len(flat) == 8 * 200 * 3
        assert len(set(flat)) == len(flat)  # fleet-unique

    def test_fleet_shares_one_namespace(self, target, trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(3)]
        )
        ids = set()
        for replica in fleet.replicas:
            ids.update(replica.frontend.allocate_request_ids(4))
        ids.update(fleet.allocate_request_ids(4))
        assert len(ids) == 16  # disjoint across replicas and fleet


class TestFleetConstruction:
    def test_needs_replicas(self):
        with pytest.raises(ConfigError):
            FleetEngine([])

    def test_rejects_ticked_pool(self, target, trained_drafter):
        stale = _pool(target, trained_drafter)
        stale.tick()
        with pytest.raises(FleetError):
            FleetEngine([stale])

    def test_duplicate_submission_rejected(self, target,
                                           trained_drafter):
        fleet = FleetEngine([_pool(target, trained_drafter)])
        request = ServingRequest(
            request_id=0, prompt=[5, 6, 7], max_new_tokens=4,
            arrival_time=0.0,
        )
        fleet.submit(request)
        with pytest.raises(FleetError):
            fleet.submit(request)


class TestRoutingPolicies:
    def test_round_robin_cycles(self, target, trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(3)],
            routing=RoutingPolicy(RoundRobinDispatch()),
        )
        report = fleet.run(_trace(num_batch=0), max_ticks=5000)
        assert max(report.routed) - min(report.routed) <= 1

    def test_prefix_hash_concentrates_tenants(self, target,
                                              trained_drafter):
        """Each tenant's repeated prefix lands on exactly one replica
        (no spill at this load)."""
        trace = _trace(num_tenants=4, per_tenant=5, num_batch=0)
        routing = PrefixHashRouting(spill_factor=None)
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(3)],
            routing=routing,
        )
        fleet.run(trace, max_ticks=5000)
        owners = {}
        for request in trace:
            key = tuple(request.prompt[:4])
            owners.setdefault(key, set()).add(
                fleet.placement[request.request_id]
            )
        assert all(len(v) == 1 for v in owners.values())
        assert routing.spills == 0

    def test_spill_sheds_hot_spots(self, target, trained_drafter):
        """One hot tenant over a tight spill threshold sheds arrivals
        to the least-loaded replica."""
        routing = PrefixHashRouting(
            spill_factor=1.0, spill_margin=0
        )
        fleet = FleetEngine(
            [_pool(target, trained_drafter, workers=1, max_batch=1)
             for _ in range(2)],
            routing=routing,
        )
        trace = fleet_trace(
            np.random.default_rng(3), 24, num_tenants=1,
            requests_per_tenant=10, num_batch=0,
            mean_interarrival=0.2,
        )
        report = fleet.run(trace, max_ticks=5000)
        assert routing.spills > 0
        assert report.spills == routing.spills
        assert min(report.routed) > 0  # both replicas saw work

    def test_static_routing_rejects_unknown(self, target,
                                            trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter)],
            routing=StaticRouting({}),
        )
        request = ServingRequest(
            request_id=0, prompt=[5, 6, 7], max_new_tokens=4,
            arrival_time=0.0,
        )
        fleet.submit(request)
        with pytest.raises(FleetError):
            fleet.run(max_ticks=100)


class TestDeterminismContract:
    def test_fleet_matches_single_pool(self, target, trained_drafter):
        """Under any routing, fleet outputs are byte-identical to the
        same trace through one reference pool."""
        trace = _trace()
        reference = _responses(_pool(target, trained_drafter).run(trace))
        for routing in (
            RoutingPolicy(RoundRobinDispatch()), PrefixHashRouting()
        ):
            fleet = FleetEngine(
                [_pool(target, trained_drafter) for _ in range(3)],
                routing=routing,
            )
            report = fleet.run(trace, max_ticks=5000)
            assert _responses(report) == reference, routing.name

    def test_snapshot_replay_pins_placement(self, target,
                                            trained_drafter):
        trace = _trace()
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(3)],
            routing=PrefixHashRouting(),
        )
        report = fleet.run(trace, max_ticks=5000)
        snapshot = fleet.snapshot_routing()
        replay = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(3)],
            routing=snapshot,
        )
        replay_report = replay.run(trace, max_ticks=5000)
        assert replay.placement == fleet.placement
        assert _responses(replay_report) == _responses(report)


class TestDrain:
    def test_drain_migrates_and_retires_with_zero_drops(
        self, target, trained_drafter
    ):
        """Draining a loaded replica mid-trace migrates its queued
        work, finishes its live work in place, retires it, and resolves
        every request exactly once, byte-identically."""
        # Dense arrivals into tiny replicas: the drained one is sure
        # to hold queued (not yet running) work at drain time.
        trace = fleet_trace(
            np.random.default_rng(11), 24, num_tenants=4,
            requests_per_tenant=5, num_batch=6,
            mean_interarrival=0.1, batch_gap=0.3,
        )
        reference = _responses(_pool(target, trained_drafter).run(trace))
        state = {"migrated": None}

        def on_tick(fleet):
            if state["migrated"] is None and fleet.clock.now >= 3:
                state["migrated"] = fleet.drain(1)

        fleet = FleetEngine(
            # Tiny replicas so the drained one holds queued work.
            [_pool(target, trained_drafter, workers=1, max_batch=1)
             for _ in range(3)],
            routing=RoutingPolicy(RoundRobinDispatch()),
        )
        report = fleet.run(trace, on_tick=on_tick, max_ticks=10000)
        assert state["migrated"] is not None and state["migrated"] > 0
        assert report.migrations == state["migrated"]
        assert report.drains == 1
        assert report.replica_states[1] == "retired"
        responses = _responses(report)
        assert len(responses) == len(trace)  # zero dropped
        assert report.num_requests == len(trace)  # zero duplicated
        assert responses == reference  # byte-identical

    def test_drain_idle_replica_retires_immediately(self, target,
                                                    trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        fleet.tick()  # promote JOINING -> ACTIVE
        assert fleet.drain(1) == 0
        assert fleet.replicas[1].state is ReplicaState.RETIRED

    def test_drain_joining_replica_retires_it_unrouted(
        self, target, trained_drafter
    ):
        """A replica drained before its promotion was never routable:
        it retires at once (JOINING -> RETIRED), and the trace is served
        by the survivor byte-identically to a single pool."""
        trace = _trace()
        reference = _responses(_pool(target, trained_drafter).run(trace))
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)],
            warmup_ticks=2,
        )
        assert fleet.replicas[1].state is ReplicaState.JOINING
        assert fleet.drain(1) == 0
        assert fleet.replicas[1].state is ReplicaState.RETIRED
        report = fleet.run(trace, max_ticks=5000)
        assert report.drains == 1 and report.migrations == 0
        assert report.routed == [len(trace), 0]
        assert report.replica_states == ["active", "retired"]
        assert _responses(report) == reference

    def test_drain_joining_replica_holding_work_rejected(
        self, target, trained_drafter
    ):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)],
            warmup_ticks=2,
        )
        fleet.replicas[1].frontend.submit(ServingRequest(
            request_id=0, prompt=[5, 6, 7], max_new_tokens=4,
            arrival_time=0.0,
        ))
        with pytest.raises(FleetError, match="JOINING"):
            fleet.drain(1)
        assert fleet.replicas[1].state is ReplicaState.JOINING

    def test_double_drain_rejected(self, target, trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        fleet.tick()
        fleet.drain(1)
        with pytest.raises(FleetError):
            fleet.drain(1)

    @pytest.mark.parametrize(
        "arrivals", [(0.0, 0.0, 0.0), (0.0, 5.0)], ids=["queued", "due"]
    )
    def test_drain_that_would_strand_unplaced_requests_rejected(
        self, target, trained_drafter, arrivals
    ):
        """Draining the last replica that could take a request still to
        be placed (queued on it, or not yet arrived) would wedge the
        fleet; it raises at the call site and changes nothing."""
        fleet = FleetEngine(
            [_pool(target, trained_drafter, workers=1, max_batch=1)]
        )
        for request_id, arrival in enumerate(arrivals):
            fleet.submit(ServingRequest(
                request_id=request_id, prompt=[5, 6, 7],
                max_new_tokens=4, arrival_time=arrival,
            ))
        fleet.tick()
        queued = fleet.replicas[0].queued_requests
        with pytest.raises(FleetError, match="strand"):
            fleet.drain(0)
        assert fleet.replicas[0].state is ReplicaState.ACTIVE
        assert 0 in fleet.routing.ring
        assert fleet.replicas[0].queued_requests == queued
        assert fleet.drains == 0 and fleet.migrations == 0
        report = fleet.run(max_ticks=500)
        assert len(_responses(report)) == len(arrivals)

    def test_arrival_with_no_active_replica_raises(self, target,
                                                   trained_drafter):
        fleet = FleetEngine([_pool(target, trained_drafter)])
        fleet.tick()
        fleet.drain(0)
        request = ServingRequest(
            request_id=0, prompt=[5, 6, 7], max_new_tokens=4,
            arrival_time=0.0,
        )
        fleet.submit(request)
        with pytest.raises(FleetError):
            fleet.tick()


class TestJoin:
    def test_late_joiner_activates_and_serves(self, target,
                                              trained_drafter):
        """A replica added mid-run joins the ring after warm-up and
        starts taking arrivals; outputs stay byte-identical."""
        trace = _trace(num_tenants=4, per_tenant=5, num_batch=0)
        reference = _responses(_pool(target, trained_drafter).run(trace))
        state = {"joined": None}

        def on_tick(fleet):
            if state["joined"] is None and fleet.clock.now >= 3:
                state["joined"] = fleet.add_replica(
                    _pool(target, trained_drafter)
                )

        routing = PrefixHashRouting()
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)],
            routing=routing,
            warmup_ticks=2,
        )
        report = fleet.run(trace, on_tick=on_tick, max_ticks=5000)
        joined = state["joined"]
        assert joined == 2
        replica = fleet.replicas[joined]
        assert replica.state is ReplicaState.ACTIVE
        # Promotion waited out the warm-up window.
        activated = dict(
            (s, t) for s, t in replica.lifecycle.history
        )[ReplicaState.ACTIVE]
        assert activated >= replica.joined_at + 2
        assert _responses(report) == reference
        # Membership change moved only an arc: audited, bounded.
        assert routing.ring_moves < len(trace)


class TestFleetHotSwap:
    def test_rolling_swap_is_zero_downtime(self, target,
                                           trained_drafter):
        """A fleet-wide publish mid-trace rolls replica by replica,
        worker by worker, with byte-identical outputs (equal weights)
        and no dropped requests."""
        trace = _trace()
        reference = _responses(_pool(target, trained_drafter).run(trace))
        state = {"swapped": False}
        fresh = trained_drafter.clone()

        def on_tick(fleet):
            if not state["swapped"] and fleet.clock.now >= 3:
                fleet.swap_drafter(fresh)
                state["swapped"] = True

        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(3)],
            routing=PrefixHashRouting(),
        )
        report = fleet.run(trace, on_tick=on_tick, max_ticks=5000)
        assert state["swapped"]
        assert not fleet.swap_in_progress
        assert report.drafter_rolls == 1
        for replica in fleet.replicas:
            assert replica.frontend.drafter_rolls == 1
            for worker in replica.frontend.workers:
                assert worker.engine.drafter is fresh
        assert _responses(report) == reference

    def test_at_most_one_replica_mid_swap(self, target,
                                          trained_drafter):
        """The fleet roll is serial: a later replica's pool roll only
        starts after the previous replica's roll completed."""
        fleet = FleetEngine(
            [_pool(target, trained_drafter, workers=3)
             for _ in range(3)],
        )
        fleet.tick()
        fleet.swap_drafter(trained_drafter.clone())
        while fleet.swap_in_progress:
            in_flight = sum(
                1 for r in fleet.replicas
                if r.frontend.swap_in_progress
            )
            assert in_flight <= 1
            fleet.tick()
        assert all(
            r.frontend.drafter_rolls == 1 for r in fleet.replicas
        )

    @pytest.mark.parametrize("shape", ["pool", "fleet"])
    def test_republication_mid_roll(self, target, trained_drafter,
                                    shape):
        """Publishing d2 four ticks into d1's roll: every tick swaps at
        most one worker, none swaps to the superseded d1 after d2 is
        out, and every worker ends on d2 (9 workers either way)."""
        if shape == "pool":
            driver = _pool(target, trained_drafter, workers=9)
            workers = driver.workers
        else:
            driver = FleetEngine(
                [_pool(target, trained_drafter, workers=3)
                 for _ in range(3)]
            )
            workers = [
                worker for replica in driver.replicas
                for worker in replica.frontend.workers
            ]
        d1, d2 = trained_drafter.clone(), trained_drafter.clone()
        driver.swap_drafter(d1)
        for ticks in range(100):
            if ticks == 4:
                driver.swap_drafter(d2)
            elif ticks > 4 and not driver.swap_in_progress:
                break
            before = [worker.engine.drafter for worker in workers]
            driver.tick()
            swapped = [
                worker.engine.drafter for worker, old
                in zip(workers, before)
                if worker.engine.drafter is not old
            ]
            assert len(swapped) <= 1
            if ticks >= 4:
                assert d1 not in swapped
        assert all(worker.engine.drafter is d2 for worker in workers)
        assert driver.drafter_rolls == 1

    def test_swap_completes_over_idle_fleet(self, target,
                                            trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        fleet.swap_drafter(trained_drafter.clone())
        report = fleet.run((), max_ticks=100)
        assert not fleet.swap_in_progress
        assert report.drafter_rolls == 1

    def test_rejects_non_drafter(self, target, trained_drafter):
        fleet = FleetEngine([_pool(target, trained_drafter)])
        with pytest.raises(FleetError):
            fleet.swap_drafter(object())

    def test_run_bound_raises_with_the_roll_open(
        self, target, trained_drafter
    ):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        fleet.swap_drafter(trained_drafter.clone())
        with pytest.raises(FleetError, match="drafter roll unfinished"):
            fleet.run((), max_ticks=2)
        assert fleet.swap_in_progress
        assert fleet.drafter_rolls == 0
        fleet.run(())
        assert fleet.drafter_rolls == 1

    @pytest.mark.parametrize("mid_roll", [False, True])
    def test_late_joiner_serves_the_published_drafter(
        self, target, trained_drafter, mid_roll
    ):
        """A replica attached after (or during) a publication starts on
        the published drafter, not the one its factory built."""
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        fleet.tick()
        published = trained_drafter.clone()
        fleet.swap_drafter(published)
        fleet.tick()
        if not mid_roll:
            while fleet.swap_in_progress:
                fleet.tick()
        assert fleet.swap_in_progress == mid_roll
        joined = fleet.add_replica(_pool(target, trained_drafter))
        for worker in fleet.replicas[joined].frontend.workers:
            assert worker.engine.drafter is published
        while fleet.swap_in_progress:
            fleet.tick()
        for replica in fleet.replicas:
            for worker in replica.frontend.workers:
                assert worker.engine.drafter is published


class TestSystemIntegration:
    def test_fleet_frontend_builds_and_serves(self, target,
                                              trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(3)]
        )
        assert len(fleet.replicas) == 3
        allocators = {
            id(r.frontend.id_allocator) for r in fleet.replicas
        }
        assert allocators == {id(fleet.id_allocator)}
        report = fleet.run(_trace(), max_ticks=5000)
        assert report.num_requests == len(_trace())
        assert report.policy == "prefix-hash"

    def test_publish_drafter_rolls_the_fleet(self, target,
                                             trained_drafter):
        """A fleet takes a published snapshot wherever a pool does
        (the adaptive-drafter loop at fleet scale)."""
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        published = trained_drafter.clone()
        fleet.swap_drafter(published)
        assert fleet.swap_in_progress
        fleet.run((), max_ticks=100)
        for replica in fleet.replicas:
            for worker in replica.frontend.workers:
                assert worker.engine.drafter is published


# -- the counter ledger ----------------------------------------------------

#: ``FleetReport.summary()`` / ``replica_reports[0].summary()`` of the
#: run below as produced before reports became views over the ledger
#: (commit e9bd47d): every key must survive with its value.
FLEET_SUMMARY = {
    "requests": 56.0, "finished": 56.0, "cancelled": 0.0,
    "p50_latency": 3.4893243003646868,
    "p99_latency": 16.754280608827287,
    "p99_ttft": 11.494350554367278,
    "slo_attainment": 0.9642857142857143,
    "throughput": 3.784090909090909, "ticks": 88.0, "stolen": 0.0,
    "expired": 0.0, "preempted": 0.0,
    "prefix_hit_rate": 0.7777777777777778,
    "prefill_launches": 12.0, "prefill_launches_saved": 44.0,
    "prefill_tokens": 48.0, "prefill_tokens_saved": 176.0,
    "draft_launches": 943.0, "draft_launches_saved": 1644.0,
    "replicas": 2.0, "spills": 0.0, "migrations": 0.0,
    "ring_moves": 0.0, "drains": 0.0, "drafter_rolls": 0.0,
    "worker_cycles": 352.0,
}
POOL0_SUMMARY = {
    "requests": 26.0, "finished": 26.0, "cancelled": 0.0,
    "p50_latency": 3.4893243003646868,
    "p99_latency": 10.815264550464446,
    "p99_ttft": 2.6801939116148805,
    "slo_attainment": 1.0, "throughput": 1.7272727272727273,
    "ticks": 88.0, "stolen": 0.0, "expired": 0.0, "preempted": 0.0,
    "prefix_hit_rate": 0.7692307692307693,
    "prefill_launches": 6.0, "prefill_launches_saved": 20.0,
    "prefill_tokens": 24.0, "prefill_tokens_saved": 80.0,
    "draft_launches": 481.0, "draft_launches_saved": 742.0,
}


@pytest.fixture(scope="module")
def ledger_run(target, trained_drafter):
    """2 replicas x 2 workers, caches on, segment tags, on the
    ``benchmarks/test_fleet_serving.py`` trace and pool shape."""
    trace = fleet_trace(
        np.random.default_rng(41), target.config.vocab_size,
        num_tenants=8, requests_per_tenant=5, num_batch=16,
        batch_group_size=4, prefix_len=4, mean_interarrival=2.0,
        batch_gap=3.0,
    )
    for request in trace:
        request.segment = request.slo.name
    fleet = FleetEngine(
        [
            ServingEngine(
                target, trained_drafter, num_workers=2,
                strategy=SdStrategy(4, 4, 8), temperature=0.7,
                max_batch_size=2,
                dispatch=PrefixAffinityDispatch(
                    fallback=LeastLoadedDispatch()
                ),
                group_affinity=True, work_stealing=False,
                admission=PrefixAwareAdmission(),
                kv_cache_tokens=4096,
            )
            for _ in range(2)
        ],
        routing=PrefixHashRouting(spill_factor=4.0, spill_margin=128),
    )
    return fleet, fleet.run(trace)


class TestCounterLedger:
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(WorkerCounters)]
    )
    def test_no_layer_forgets_a_counter(self, ledger_run, name):
        """Fleet total == sum of replica totals == sum of the engines'
        own ledgers, for every field the ledger has or will have."""
        fleet, report = ledger_run
        engines = sum(
            (
                worker.engine.counters
                for replica in fleet.replicas
                for worker in replica.frontend.workers
            ),
            WorkerCounters(),
        )
        replicas = sum(
            (r.totals for r in report.replica_reports), WorkerCounters()
        )
        total = getattr(report.pooled().totals, name)
        assert total == getattr(replicas, name)
        assert total == getattr(engines, name)
        # The run exercised the counter (zeros would agree vacuously).
        assert total != getattr(WorkerCounters(), name)

    def test_summaries_keep_every_key_and_value(self, ledger_run):
        _, report = ledger_run
        assert report.summary() == FLEET_SUMMARY
        assert report.replica_reports[0].summary() == POOL0_SUMMARY

    def test_reports_are_snapshots(self, ledger_run):
        """A report's ledgers are copies: engines that keep serving
        (or reset) do not rewrite a report already taken."""
        fleet, report = ledger_run
        before = report.pooled().totals
        for replica in fleet.replicas:
            for worker in replica.frontend.workers:
                worker.engine.counters.target_steps += 1
                worker.engine.kv_cache.stats.hits += 1
        assert report.pooled().totals == before

    def test_segment_acceptance_survives_the_roll_up(self, ledger_run):
        _, report = ledger_run
        pooled = report.pooled()
        assert all(
            r.totals.segment_drafted for r in report.replica_reports
        )
        assert set(pooled.segment_acceptance) == {"batch", "interactive"}
        assert all(
            0.0 <= rate <= 1.0
            for rate in pooled.segment_acceptance.values()
        )


class TestMergedEventStream:
    """FleetEngine.subscribe: one fleet-wide stream, replica-tagged."""

    def test_events_carry_replica_ids(self, target, trained_drafter):
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        live = []
        fleet.subscribe(live.append)
        fleet.run(_trace(), max_ticks=5000)
        trail = fleet.lifecycle_events()
        assert trail and trail == live
        replica_ids = {r.replica_id for r in fleet.replicas}
        assert all(e.replica_id in replica_ids for e in trail)
        assert len({e.replica_id for e in trail}) == 2

    def test_merged_stream_matches_per_replica_trails(
        self, target, trained_drafter
    ):
        """Filtering the fleet stream by replica reproduces each
        pool's own lifecycle trail (stamps untouched, only the
        replica_id added)."""
        fleet = FleetEngine(
            [_pool(target, trained_drafter) for _ in range(2)]
        )
        fleet.run(_trace(), max_ticks=5000)

        def strip(event):
            return (
                event.kind, event.request_id, event.cycle,
                event.time, event.worker_id,
            )

        for replica in fleet.replicas:
            merged = [
                strip(e)
                for e in fleet.lifecycle_events()
                if e.replica_id == replica.replica_id
            ]
            own = [
                strip(e)
                for e in replica.frontend.lifecycle_events()
            ]
            assert merged == own

    def test_late_joiner_forwards_onto_same_stream(
        self, target, trained_drafter
    ):
        """One subscription covers replicas added after it was made."""
        fleet = FleetEngine([_pool(target, trained_drafter)])
        seen = []
        fleet.subscribe(seen.append)
        joined = {"done": False}

        def control(engine):
            if not joined["done"] and engine.clock.now >= 3.0:
                joined["done"] = True
                engine.add_replica(_pool(target, trained_drafter))

        fleet.run(
            _trace(num_tenants=4, per_tenant=5),
            max_ticks=5000,
            on_tick=control,
        )
        new_id = fleet.replicas[-1].replica_id
        assert any(e.replica_id == new_id for e in seen)


class TestWarmSpill:
    """Hot-spot spill lands on the second-warmest replica for the
    request's prefix, not the globally least-loaded one."""

    def _routing_with_owner(self, prompt, members=(0, 1, 2)):
        routing = PrefixHashRouting(
            prefix_len=4, spill_factor=1.0, spill_margin=0
        )
        for replica_id in members:
            routing.on_join(replica_id)
        from repro.fleet.ring import prefix_key

        owner = routing.ring.owner(prefix_key(prompt, 4))
        return routing, owner

    def _stub(self, replica_id, backlog, warmth):
        stub = type("Stub", (), {})()
        stub.replica_id = replica_id
        stub.backlog_tokens = backlog
        stub.prefix_match = lambda prompt: warmth
        return stub

    def test_choose_prefers_warmth_over_load(self):
        prompt = [5, 6, 7, 8]
        routing, owner = self._routing_with_owner(prompt)
        others = [i for i in (0, 1, 2) if i != owner]
        # Owner overloaded; of the two cooler replicas the WARMER one
        # (despite more load) should win.
        stubs = {owner: self._stub(owner, backlog=100, warmth=4)}
        stubs[others[0]] = self._stub(others[0], backlog=10, warmth=0)
        stubs[others[1]] = self._stub(others[1], backlog=50, warmth=3)
        replicas = [stubs[i] for i in sorted(stubs)]
        request = ServingRequest(
            request_id=0, prompt=prompt, max_new_tokens=4,
            arrival_time=0.0,
        )
        index = routing.choose(request, replicas)
        assert replicas[index].replica_id == others[1]
        assert routing.spills == 1

    def test_no_spill_when_no_replica_is_cooler(self):
        """Spilling must shed load: when every other replica is at
        least as hot as the owner, the arrival stays home."""
        prompt = [5, 6, 7, 8]
        routing, owner = self._routing_with_owner(prompt)
        replicas = [
            self._stub(i, backlog=100, warmth=2) for i in (0, 1, 2)
        ]
        request = ServingRequest(
            request_id=0, prompt=prompt, max_new_tokens=4,
            arrival_time=0.0,
        )
        index = routing.choose(request, replicas)
        assert replicas[index].replica_id == owner
        assert routing.spills == 0

    def _hot_spot_run(self, target, trained_drafter, spill_factor):
        routing = PrefixHashRouting(
            spill_factor=spill_factor, spill_margin=0
        )
        fleet = FleetEngine(
            [
                _pool(
                    target, trained_drafter, workers=1, max_batch=2,
                    kv_cache_tokens=4096,
                )
                for _ in range(4)
            ],
            routing=routing,
        )
        trace = fleet_trace(
            np.random.default_rng(7), 24, num_tenants=1,
            requests_per_tenant=20, num_batch=0,
            mean_interarrival=0.25,
        )
        report = fleet.run(trace, max_ticks=5000)
        return routing, report

    def test_warm_spill_pays_fewer_cold_prefills(
        self, target, trained_drafter
    ):
        """Under a hot-spot spill the router piles one family's
        overflow onto replicas already warm for it, so fewer replicas
        than the fleet has pay the family's cold prefill (a load-only
        spill scatters it over every cool replica: all four here)."""
        routing, spilled = self._hot_spot_run(
            target, trained_drafter, spill_factor=1.0
        )
        _, home = self._hot_spot_run(
            target, trained_drafter, spill_factor=None
        )
        assert routing.spills > 0
        assert home.prefill_launches == 1  # pure affinity: one replica
        assert 1 < spilled.prefill_launches < 4
        # Same family, same outputs: spill placement moves latency and
        # cache locality, never committed tokens.
        assert _responses(spilled) == _responses(home)
