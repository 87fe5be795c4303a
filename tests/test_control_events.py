"""EventBus/RequestEvent contract tests (the control-plane trail).

The lifecycle event stream is the observability surface the preemption
benchmarks and the closed-loop RL <-> serving work read; these tests pin
its guarantees:

* emission order is deterministic and what subscribers observe;
* per request, cycle stamps and virtual-time stamps never go backwards;
* every admitted request's trail is well-formed: one ADMITTED first,
  park/resume events strictly alternating, and EXACTLY one terminal
  event (FINISHED / CANCELLED / EXPIRED) — under cancellation, expiry,
  and preemption alike;
* requests terminated before reaching a worker still get their one
  terminal event (on the front-end's own bus).
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.serving import (
    BATCH,
    INTERACTIVE,
    ServingEngine,
    SloPreemption,
)
from repro.serving.request import SloClass
from repro.specdec.control import (
    EventBus,
    RequestEvent,
    RequestEventKind,
)

TERMINAL = {
    RequestEventKind.FINISHED,
    RequestEventKind.CANCELLED,
    RequestEventKind.EXPIRED,
}
PARKING = {RequestEventKind.PARKED, RequestEventKind.PREEMPTED}


# -- EventBus unit behaviour -----------------------------------------------


class TestEventBus:
    def test_subscribers_see_emission_order(self):
        bus = EventBus()
        bus.worker_id = 4  # the owning worker stamps it after building
        seen = []
        bus.subscribe(seen.append)
        first = bus.emit(RequestEventKind.ADMITTED, 1, cycle=0)
        second = bus.emit(RequestEventKind.FINISHED, 1, cycle=3, time=2.0)
        assert seen == [first, second]
        assert bus.events == seen
        assert len(bus) == 2
        # Worker id is stamped on every event by the owning bus.
        assert {e.worker_id for e in seen} == {4}

    def test_of_kind_filters_in_order(self):
        bus = EventBus()
        bus.emit(RequestEventKind.ADMITTED, 1, cycle=0)
        bus.emit(RequestEventKind.ADMITTED, 2, cycle=0)
        bus.emit(RequestEventKind.FINISHED, 1, cycle=2)
        admitted = bus.of_kind(RequestEventKind.ADMITTED)
        assert [e.request_id for e in admitted] == [1, 2]
        assert bus.of_kind(RequestEventKind.EXPIRED) == []

    def test_clear_keeps_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(RequestEventKind.ADMITTED, 1, cycle=0)
        bus.clear()
        assert len(bus) == 0
        bus.emit(RequestEventKind.FINISHED, 1, cycle=1)
        assert len(seen) == 2  # still subscribed across clear()

    def test_events_property_is_a_snapshot(self):
        bus = EventBus()
        bus.emit(RequestEventKind.ADMITTED, 1, cycle=0)
        snapshot = bus.events
        bus.emit(RequestEventKind.FINISHED, 1, cycle=1)
        assert len(snapshot) == 1  # later emits don't mutate it

    def test_event_is_immutable(self):
        event = RequestEvent(RequestEventKind.ADMITTED, 1, cycle=0)
        with pytest.raises(AttributeError):
            event.cycle = 5  # type: ignore[misc]


# -- pool-wide trail invariants --------------------------------------------


def _mixed_run(scenario_factory):
    """A run exercising every lifecycle edge: finish, preemption +
    resume, live cancel, pending cancel, expiry, and a drafter swap."""
    scenario = scenario_factory(31, num_requests=6)
    slos = [
        BATCH, BATCH,
        INTERACTIVE,
        SloClass("deadline", 4.0, 6.0, deadline=3.0),
        BATCH, BATCH,
    ]
    requests = scenario.requests(arrival_gap=1.0, slos=slos)
    requests[3].max_new_tokens = 50  # can't finish inside its deadline
    requests[5].arrival_time = 40.0  # cancelled while still pending
    frontend = ServingEngine(
        scenario.target, scenario.drafter, num_workers=2,
        strategy=scenario.strategy, temperature=scenario.temperature,
        max_batch_size=1, preemption=SloPreemption(),
    )
    for request in requests:
        frontend.submit(request)
    for _ in range(4):
        frontend.tick()
    frontend.cancel(4)  # queued-or-live cancel
    frontend.cancel(5)  # pending cancel (never dispatched)
    frontend.swap_drafter(scenario.drafter.clone())
    report = frontend.run(())
    return frontend, report


class TestPoolTrail:
    def test_every_request_gets_exactly_one_terminal_event(
        self, scenario_factory
    ):
        frontend, report = _mixed_run(scenario_factory)
        terminal = defaultdict(list)
        for event in frontend.lifecycle_events():
            if event.kind in TERMINAL:
                terminal[event.request_id].append(event.kind)
        assert set(terminal) == set(range(6))
        assert all(len(kinds) == 1 for kinds in terminal.values())
        # The trail agrees with the records on HOW each one ended.
        by_kind = {
            RequestEventKind.FINISHED: [
                r.request.request_id for r in report.records
                if r.finished
            ],
            RequestEventKind.EXPIRED: [
                r.request.request_id for r in report.records
                if r.expired
            ],
        }
        for kind, ids in by_kind.items():
            assert sorted(
                i for i, k in terminal.items() if k[0] is kind
            ) == sorted(ids)
        # The scenario really covered all three terminal kinds.
        kinds_seen = {k for kinds in terminal.values() for k in kinds}
        assert kinds_seen == TERMINAL

    def test_cycle_and_time_monotonic_per_request(
        self, scenario_factory
    ):
        frontend, _ = _mixed_run(scenario_factory)
        per_request = defaultdict(list)
        for event in frontend.lifecycle_events():
            if event.request_id is not None:
                per_request[event.request_id].append(event)
        assert per_request
        for events in per_request.values():
            # Events of one request on one worker: cycles never go
            # backwards; virtual-time stamps never go backwards.
            by_worker = defaultdict(list)
            for event in events:
                by_worker[event.worker_id].append(event)
            for worker_events in by_worker.values():
                cycles = [e.cycle for e in worker_events]
                assert cycles == sorted(cycles)
            times = [e.time for e in events if e.time is not None]
            assert times == sorted(times)

    def test_trail_is_well_formed_per_request(self, scenario_factory):
        """ADMITTED precedes everything on-worker; park/resume strictly
        alternate; nothing follows the terminal event."""
        frontend, _ = _mixed_run(scenario_factory)
        per_request = defaultdict(list)
        for event in frontend.lifecycle_events():
            if event.request_id is not None:
                per_request[event.request_id].append(event)
        preempted = 0
        for request_id, events in per_request.items():
            kinds = [e.kind for e in events]
            assert kinds[-1] in TERMINAL
            assert not any(k in TERMINAL for k in kinds[:-1])
            if kinds[0] is not RequestEventKind.ADMITTED:
                # Never reached a worker: terminated while pending.
                assert kinds == [kinds[-1]]
                continue
            depth = 0
            for kind in kinds:
                if kind in PARKING:
                    assert depth == 0  # no double park
                    depth += 1
                    preempted += 1
                elif kind is RequestEventKind.RESUMED:
                    assert depth == 1  # no resume without a park
                    depth -= 1
        assert preempted > 0  # the scenario exercised preemption

    def test_swap_events_are_engine_wide(self, scenario_factory):
        frontend, _ = _mixed_run(scenario_factory)
        swaps = [
            e for e in frontend.lifecycle_events()
            if e.kind is RequestEventKind.SWAPPED
        ]
        # One rolling swap across two workers = two SWAPPED events on
        # distinct workers and ticks, none tied to a request.
        assert len(swaps) == 2
        assert all(e.request_id is None for e in swaps)
        assert {e.worker_id for e in swaps} == {0, 1}
        assert swaps[0].time < swaps[1].time

    def test_deterministic_trail_across_reruns(self, scenario_factory):
        first, _ = _mixed_run(scenario_factory)
        second, _ = _mixed_run(scenario_factory)
        assert first.lifecycle_events() == second.lifecycle_events()

    def test_subscription_covers_frontend_and_workers(
        self, scenario_factory
    ):
        scenario = scenario_factory(33, num_requests=2)
        frontend = ServingEngine(
            scenario.target, scenario.drafter, num_workers=1,
            strategy=scenario.strategy,
            temperature=scenario.temperature, max_batch_size=2,
        )
        seen = []
        frontend.subscribe(seen.append)
        requests = scenario.requests(arrival_gap=0.0)
        requests[1].arrival_time = 30.0
        for request in requests:
            frontend.submit(request)
        frontend.cancel(1)  # pending: terminal lands on the frontend bus
        frontend.run(())
        assert seen == frontend.lifecycle_events()
        kinds = {(e.kind, e.request_id) for e in seen}
        assert (RequestEventKind.CANCELLED, 1) in kinds
        assert (RequestEventKind.FINISHED, 0) in kinds
