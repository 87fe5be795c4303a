"""Tests for the online serving front-end (repro.serving)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, ServingError
from repro.serving import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    LeastLoadedDispatch,
    LongTailDispatch,
    RequestState,
    RoundRobinDispatch,
    ServingEngine,
    ServingRequest,
    SloClass,
    VirtualClock,
    poisson_trace,
    steal_work,
)
from repro.specdec import SdStrategy, make_serving_request
from repro.systems import TltSystem
from repro.cluster import ClusterSpec
from repro.hardware import get_gpu, get_model
from repro.workload import LognormalLengths

STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


def _trace(num=12, mean_gap=1.0, seed=0, cap=30, sigma=1.0,
           slo_mix=((STANDARD, 1.0),), **kwargs):
    return poisson_trace(
        np.random.default_rng(seed),
        num_requests=num,
        mean_interarrival=mean_gap,
        length_model=LognormalLengths(median=8.0, sigma=sigma, cap=cap),
        vocab_size=24,
        slo_mix=slo_mix,
        **kwargs,
    )


def _frontend(target, drafter, workers=2, max_batch=3, dispatch=None,
              **kwargs):
    return ServingEngine(
        target, drafter, num_workers=workers, strategy=STRATEGY,
        temperature=0.9, max_batch_size=max_batch, dispatch=dispatch,
        **kwargs,
    )


class TestClock:
    def test_advances(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance()
        clock.advance(2.5)
        assert clock.now == 3.5
        assert clock.ticks == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            VirtualClock(start=-1.0)
        with pytest.raises(ConfigError):
            VirtualClock().advance(0.0)


class TestRequests:
    def test_slo_validation(self):
        with pytest.raises(ConfigError):
            SloClass("", 1.0, 2.0)
        with pytest.raises(ConfigError):
            SloClass("x", 0.0, 2.0)
        with pytest.raises(ConfigError):
            SloClass("x", 1.0, 2.0, deadline=0.0)

    def test_request_validation(self):
        with pytest.raises(ConfigError):
            ServingRequest(0, [1], 0, 0.0)
        with pytest.raises(ConfigError):
            ServingRequest(0, [1], 4, -1.0)
        with pytest.raises(ConfigError):
            ServingRequest(0, [1], 4, 0.0, predicted_length=0)

    def test_dispatch_length_falls_back_to_cap(self):
        request = ServingRequest(0, [1], 16, 0.0)
        assert request.dispatch_length == 16
        request = ServingRequest(1, [1], 16, 0.0, predicted_length=4)
        assert request.dispatch_length == 4

    def test_poisson_trace_is_seed_deterministic(self):
        first = _trace(seed=3)
        second = _trace(seed=3)
        assert [r.prompt for r in first] == [r.prompt for r in second]
        assert [r.arrival_time for r in first] == [
            r.arrival_time for r in second
        ]
        assert [r.seed for r in first] == [r.seed for r in second]
        arrivals = [r.arrival_time for r in first]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0

    def test_poisson_trace_predictor_noise(self):
        noisy = _trace(seed=5, predictor_noise=0.5)
        assert any(
            r.predicted_length != r.max_new_tokens for r in noisy
        )
        oracle = _trace(seed=5)
        assert all(
            r.predicted_length == r.max_new_tokens for r in oracle
        )


class _FakeWorker:
    def __init__(self, worker_id, live, waiting, capacity, backlog):
        self.worker_id = worker_id
        self.num_live = live
        self.num_waiting = waiting
        self.free_slots = max(0, capacity - live)
        self.backlog_tokens = backlog


def _request(request_id, predicted):
    return ServingRequest(
        request_id, [1, 2], max(predicted, 1), 0.0,
        predicted_length=predicted,
    )


class TestDispatchPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinDispatch()
        workers = [_FakeWorker(i, 0, 0, 4, 0) for i in range(3)]
        picks = [policy.choose(_request(i, 4), workers) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_smallest_backlog(self):
        policy = LeastLoadedDispatch()
        workers = [
            _FakeWorker(0, 2, 1, 4, 120),
            _FakeWorker(1, 1, 0, 4, 30),
            _FakeWorker(2, 3, 2, 4, 300),
        ]
        assert policy.choose(_request(0, 10), workers) == 1

    def test_long_tail_segregates(self):
        policy = LongTailDispatch(threshold=20)
        workers = [
            _FakeWorker(0, 0, 0, 4, 10),
            _FakeWorker(1, 0, 0, 4, 0),
        ]
        # Long request -> tail group (last worker).
        assert policy.choose(_request(0, 25), workers) == 1
        # Short request -> head group even though the tail is idler.
        assert policy.choose(_request(1, 4), workers) == 0
        # Single worker: both groups collapse.
        assert policy.choose(_request(2, 25), workers[:1]) == 0

    def test_long_tail_validation(self):
        with pytest.raises(ConfigError):
            LongTailDispatch(threshold=0)
        with pytest.raises(ConfigError):
            LongTailDispatch(threshold=4, tail_fraction=1.0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            RoundRobinDispatch().choose(_request(0, 4), [])


class TestServingEngine:
    def test_all_requests_finish(self, target, trained_drafter):
        frontend = _frontend(target, trained_drafter)
        report = frontend.run(_trace())
        assert len(report.records) == 12
        assert all(r.finished for r in report.records)
        for record in report.records:
            assert record.latency is not None and record.latency > 0
            assert record.ttft is not None and record.ttft > 0
            assert record.ttft <= record.latency
            assert 0 < len(record.response) <= record.request.max_new_tokens
        assert report.total_tokens > 0
        assert len(report.worker_counters) == 2

    def test_responses_independent_of_dispatch(self, target,
                                               trained_drafter):
        """Routing, worker count and stealing change latency only —
        never the committed tokens (private per-request streams)."""
        trace = _trace(num=14, mean_gap=0.7, cap=40, sigma=1.2)
        outputs = []
        for workers, dispatch, stealing in [
            (1, RoundRobinDispatch(), False),
            (2, RoundRobinDispatch(), True),
            (2, LeastLoadedDispatch(), True),
            (3, LongTailDispatch(threshold=16), True),
        ]:
            report = _frontend(
                target, trained_drafter, workers=workers,
                dispatch=dispatch, work_stealing=stealing,
            ).run(trace)
            outputs.append([tuple(r.response) for r in report.records])
        assert all(out == outputs[0] for out in outputs[1:])

    def test_multi_worker_beats_single_worker_tail_latency(
        self, target, trained_drafter
    ):
        trace = _trace(num=16, mean_gap=0.5, cap=40, sigma=1.2)
        single = _frontend(target, trained_drafter, workers=1).run(trace)
        multi = _frontend(target, trained_drafter, workers=2).run(trace)
        assert multi.p99_latency < single.p99_latency
        assert multi.ticks <= single.ticks

    def test_work_stealing_moves_and_repoints_records(
        self, target, trained_drafter
    ):
        # Round-robin on a bursty trace backs one worker up; stealing
        # must move queued requests and update their records.
        trace = _trace(num=16, mean_gap=0.3, cap=40, sigma=1.2)
        report = _frontend(
            target, trained_drafter, workers=2,
            dispatch=RoundRobinDispatch(), work_stealing=True,
        ).run(trace)
        assert report.stolen > 0
        moved = [r for r in report.records if r.stolen > 0]
        assert moved
        assert all(r.finished for r in moved)

    def test_stolen_request_is_charged_at_its_predicted_length(
        self, target, trained_drafter
    ):
        donor, receiver = _frontend(
            target, trained_drafter, workers=2, max_batch=1
        ).workers
        for request_id in (0, 1):
            donor.enqueue(
                make_serving_request(
                    request_id, [5, 6, 7], max_new_tokens=40,
                    seed=request_id, predicted_length=6,
                )
            )
        donor.engine.step()  # request 0 takes the only slot, 1 queues
        live = 40 - len(donor.engine.scheduler.live[0].response)
        assert donor.backlog_tokens == live + 6
        [(request_id, from_id, to_id, slot)] = steal_work(
            [donor, receiver]
        )
        assert (request_id, from_id, to_id) == (1, 0, 1)
        # The move carries the receiver's new slot for the record.
        assert slot is receiver.engine.scheduler._slots[1]
        # The estimate moved with the request: not the 40-token cap
        # on the receiver, nothing left behind on the donor.
        assert receiver.backlog_tokens == 6
        assert donor.backlog_tokens == live

    def test_explicit_cancellation_keeps_survivors_identical(
        self, target, trained_drafter
    ):
        trace = _trace(num=10, mean_gap=0.8, cap=40, sigma=1.2)
        baseline = _frontend(target, trained_drafter).run(trace)
        victim = max(trace, key=lambda r: r.max_new_tokens)

        frontend = _frontend(target, trained_drafter)
        for request in trace:
            frontend.submit(request)
        for _ in range(6):
            frontend.tick()
        assert frontend.cancel(victim.request_id)
        report = frontend.run()

        record = report.records[victim.request_id]
        assert record.cancelled and not record.slo_met
        for base, now in zip(baseline.records, report.records):
            if now.request.request_id == victim.request_id:
                continue
            assert now.response == base.response

    def test_cancel_pending_and_double_cancel(self, target,
                                              trained_drafter):
        frontend = _frontend(target, trained_drafter)
        request = ServingRequest(0, [5, 6], 8, arrival_time=5.0, seed=1)
        frontend.submit(request)
        assert frontend.cancel(0)
        assert not frontend.cancel(0)
        assert not frontend.cancel(99)
        report = frontend.run()
        assert report.records[0].cancelled
        assert report.records[0].response == []

    def test_deadline_expiry_cancels_unfinished(self, target,
                                                trained_drafter):
        tight = SloClass("tight", ttft_target=1.0, latency_target=2.0,
                         deadline=3.0)
        requests = [
            ServingRequest(0, [5, 6, 7], 60, 0.0, slo=tight, seed=11),
            ServingRequest(1, [9, 10, 11], 4, 0.0, seed=12),
        ]
        frontend = _frontend(target, trained_drafter, workers=1)
        report = frontend.run(requests)
        assert report.records[0].cancelled
        assert report.records[0].latency <= 60
        assert report.records[1].finished

    def test_duplicate_submit_rejected(self, target, trained_drafter):
        frontend = _frontend(target, trained_drafter)
        request = ServingRequest(0, [5], 4, 0.0)
        frontend.submit(request)
        with pytest.raises(ServingError):
            frontend.submit(request)

    def test_run_bound_raises(self, target, trained_drafter):
        frontend = _frontend(target, trained_drafter)
        with pytest.raises(ServingError):
            frontend.run(_trace(), max_ticks=1)

    def test_config_validation(self, target, trained_drafter):
        with pytest.raises(ConfigError):
            ServingEngine(
                target, trained_drafter, num_workers=0,
                strategy=STRATEGY,
            )

    def test_report_shape(self, target, trained_drafter):
        mix = ((INTERACTIVE, 0.4), (STANDARD, 0.4), (BATCH, 0.2))
        report = _frontend(target, trained_drafter).run(
            _trace(num=15, slo_mix=mix, seed=2)
        )
        summary = report.summary()
        assert summary["requests"] == 15.0
        assert 0.0 <= summary["slo_attainment"] <= 1.0
        assert summary["p99_latency"] >= summary["p50_latency"]
        per_class = report.per_class()
        assert sum(v["requests"] for v in per_class.values()) == 15.0
        for stats in per_class.values():
            assert stats["finished"] + stats["cancelled"] <= (
                stats["requests"]
            )
        assert len(report.utilization) == 2
        assert all(0.0 <= u <= 1.0 for u in report.utilization)


class TestAdaptiveServing:
    def _system(self, threshold=4):
        return TltSystem(
            get_model("Qwen2.5-7B"),
            ClusterSpec(
                num_workers=2, gpus_per_worker=4, gpu=get_gpu("H100")
            ),
            activation_threshold=threshold,
        )

    def test_per_worker_managers_see_own_batches(self, target,
                                                 trained_drafter):
        """Each worker's manager engages on ITS live batch; a shared
        bandit pools accept-length measurements across the pool."""
        system = self._system(threshold=2)
        frontend = system.serving_frontend(
            target, trained_drafter, num_workers=2, max_batch_size=4,
            temperature=0.9,
        )
        assert len(frontend.managers) == 2
        assert (
            frontend.managers[0].selector
            is frontend.managers[1].selector
        )
        report = frontend.run(
            _trace(num=12, mean_gap=0.5, cap=30, sigma=1.2)
        )
        assert all(r.finished for r in report.records)
        # Both SD and vanilla cycles occurred across the pool (live
        # batches cross the threshold as the dispatcher fills/drains).
        reports = [
            r
            for w in frontend.workers
            for r in w.engine.cycle_reports
        ]
        assert any(r.sd_active for r in reports)
        assert any(not r.sd_active for r in reports)
        for worker in frontend.workers:
            for cycle in worker.engine.cycle_reports:
                if cycle.sd_active:
                    assert cycle.live_batch <= 2

