"""A pool's records are views over their slots (one request lifecycle).

Two scenarios run ``tests/_lifecycle_check.py::check_records`` after
every tick: a pool exercising every lifecycle edge (SLO preemption,
work stealing, explicit cancel, park/resume, deadline expiry, and a
cancel and an expiry before dispatch), and a 2-replica fleet drained
mid-run.  The remaining tests pin the record's view semantics.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from _lifecycle_check import check_records
from repro.fleet import FleetEngine, RoutingPolicy
from repro.serving import (
    BATCH,
    INTERACTIVE,
    RoundRobinDispatch,
    ServingEngine,
    ServingRequest,
    SloPreemption,
    poisson_trace,
)
from repro.serving import request as serving_request
from repro.serving.request import RequestState, SloClass
from repro.specdec import RequestEventKind, SdStrategy
from repro.specdec import scheduler as specdec_scheduler
from repro.workload import fleet_trace
from repro.workload.lengths import LognormalLengths

STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
DEADLINE = SloClass("deadline", ttft_target=4.0, latency_target=6.0,
                    deadline=3.0)
#: Arrives long after the run would drain, so it is still PENDING when
#: it is cancelled (id 100) or expired (id 101).
LATE_CANCEL = ServingRequest(100, [5, 6, 7], 8, arrival_time=500.0, seed=1)
LATE_EXPIRE = ServingRequest(
    101, [5, 6, 8], 8, arrival_time=400.0, seed=2,
    slo=SloClass("late", ttft_target=4.0, latency_target=8.0,
                 deadline=0.5),
)


def _pool(target, drafter, workers, max_batch, **kwargs):
    return ServingEngine(
        target, drafter, num_workers=workers, strategy=STRATEGY,
        temperature=0.9, max_batch_size=max_batch, **kwargs,
    )


def _every_edge_run(target, drafter):
    """Drive a 3 x 2 preempting, stealing pool through every edge,
    checking the records after every tick; returns the pool."""
    trace = poisson_trace(
        np.random.default_rng(5), num_requests=24, mean_interarrival=0.4,
        length_model=LognormalLengths(median=10, sigma=0.8, cap=40),
        vocab_size=target.config.vocab_size,
        slo_mix=((BATCH, 0.6), (INTERACTIVE, 0.25), (DEADLINE, 0.15)),
    )
    pool = _pool(target, drafter, 3, 2, preemption=SloPreemption())
    for request in trace + [LATE_CANCEL, LATE_EXPIRE]:
        pool.submit(request)
    check_records(pool)
    parked = None
    ticks = 0
    while not pool.drained:
        assert ticks < 2000
        if ticks == 2:
            assert pool.cancel(LATE_CANCEL.request_id)
        running = sorted(
            request_id for request_id, record in pool.records.items()
            if record.state is RequestState.RUNNING
        )
        if ticks == 3:
            assert pool.cancel(running[0])  # a live cancel
        if ticks == 4:
            parked = running[-1]
            assert pool.park(parked)
        if ticks == 7:
            assert pool.resume(parked)
        # Within a tick a pool dispatches before its deadline pass, so
        # a pre-dispatch expiry needs that pass run on its own, once
        # every other deadline has gone by.
        deadlines = [request_id for _, request_id in pool._deadlines]
        if deadlines == [LATE_EXPIRE.request_id]:
            pool._expire_deadlines(pool._deadlines[0][0])
            check_records(pool)
        pool.tick()
        check_records(pool)
        ticks += 1
    return pool


class TestRecordsAgreeWithTrailAndSlot:
    def test_pool_with_every_lifecycle_edge(self, target,
                                            trained_drafter):
        pool = _every_edge_run(target, trained_drafter)
        kinds = Counter(e.kind for e in pool.lifecycle_events())
        for kind in RequestEventKind:
            if kind is not RequestEventKind.SWAPPED:
                assert kinds[kind] > 0, kind
        assert pool.stolen > 0
        records = pool.records
        for late, state in (
            (LATE_CANCEL, RequestState.CANCELLED),
            (LATE_EXPIRE, RequestState.EXPIRED),
        ):
            record = records[late.request_id]
            assert record.slot is None and record.state is state
            assert record.response == []
        assert any(
            r.slot is not None and r.state is RequestState.EXPIRED
            for r in records.values()
        )

    def test_fleet_drained_mid_run(self, target, trained_drafter):
        trace = fleet_trace(
            np.random.default_rng(11), 24, num_tenants=4,
            requests_per_tenant=5, num_batch=6,
            mean_interarrival=0.1, batch_gap=0.3,
        )
        fleet = FleetEngine(
            [_pool(target, trained_drafter, 2, 1) for _ in range(2)],
            routing=RoutingPolicy(RoundRobinDispatch()),
        )
        migrated = []

        def on_tick(fleet):
            for replica in fleet.replicas:
                check_records(replica.frontend)
            if not migrated and fleet.clock.now >= 3:
                migrated.append(fleet.drain(1))
                for replica in fleet.replicas:
                    check_records(replica.frontend)

        pooled = fleet.run(trace, on_tick=on_tick, max_ticks=5000).pooled()
        assert migrated[0] > 0
        assert len(pooled.records) == len(trace)
        assert all(r.finished for r in pooled.records)


class TestRecordView:
    def test_one_enum(self):
        assert serving_request.RequestState is specdec_scheduler.RequestState
        assert (
            serving_request.TERMINAL_STATES
            is specdec_scheduler.TERMINAL_STATES
        )

    def test_running_record_shows_tokens_so_far(self, target,
                                                trained_drafter):
        pool = _pool(target, trained_drafter, 1, 2)
        pool.submit(ServingRequest(0, [5, 6, 7], 30, 0.0, seed=3))
        for _ in range(3):
            pool.tick()
        record = pool.records[0]
        assert record.state is RequestState.RUNNING
        assert record.response and record.response is record.slot.response
        # Mid-run reports count partial responses.
        assert pool.report().total_tokens == len(record.response)
