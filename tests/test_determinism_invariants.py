"""Cross-cutting determinism invariants of the decode/serving stack.

Every request owns a private seeded random stream, and batched target
rows are numerically identical to per-sequence rows — so committed
tokens must be invariant to everything the scheduler is free to choose:
batch size, admission timing, park/resume points, drafter swaps (equal
weights), dispatch policy, work stealing, and preemption.  This suite
replays one seeded scenario (``scenario_factory`` in ``conftest.py``)
through each of those schedules and asserts byte-identical outputs;
any engine grown later inherits the suite by accepting the same
request objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SpecDecodeError
from repro.longtail import RolloutScheduler, SchedulerMode
from repro.serving import (
    BATCH,
    INTERACTIVE,
    LeastLoadedDispatch,
    RequestState,
    RoundRobinDispatch,
    ServingEngine,
    SloPreemption,
)
from repro.specdec.batch_engine import step_engines


def _drain(engine):
    while engine.scheduler.has_work:
        step_engines([engine])
    return [list(s.response) for s in engine.result().slots]


def _committed_now(engine):
    """Per-request committed tokens at the current cycle boundary
    (submission order; a still-waiting request has committed none)."""
    return [
        list(slot.response) for slot in engine.scheduler._slots.values()
    ]


def _responses(report):
    return [list(r.response) for r in report.records]


def _total_cycles(scenario):
    engine = scenario.engine()
    engine.start(scenario.requests())
    while engine.scheduler.has_work:
        step_engines([engine])
    return len(engine.cycle_reports)


# -- (a) batch-size invariance ---------------------------------------------


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("batch", [1, 2, None])
    def test_batch_size_byte_identical(
        self, scenario_factory, seed, batch
    ):
        """Sequential (1), bounded (2), and unbounded batching commit
        the same tokens per request."""
        scenario = scenario_factory(seed, ragged_caps=True)
        engine = scenario.engine(max_batch_size=batch)
        engine.start(scenario.requests())
        assert _drain(engine) == scenario.reference_responses()

    def test_staggered_admission_byte_identical(self, scenario_factory):
        """Requests admitted mid-flight (one per cycle) decode the same
        tokens as requests admitted up front."""
        scenario = scenario_factory(3, num_requests=4)
        engine = scenario.engine()
        requests = scenario.requests()
        engine.start(requests[:1])
        pending = list(requests[1:])
        while engine.scheduler.has_work or pending:
            if pending:
                engine.scheduler.push(pending.pop(0))
            step_engines([engine])
        assert _drain(engine) == scenario.reference_responses()

    def test_neighbour_set_irrelevant(self, scenario_factory):
        """A request decodes the same tokens alone as inside a batch of
        strangers (its stream is private)."""
        scenario = scenario_factory(11, num_requests=3)
        reference = scenario.reference_responses()
        for index in range(scenario.num_requests):
            engine = scenario.engine()
            engine.start([scenario.requests()[index]])
            assert _drain(engine) == [reference[index]]


# -- (b) park/resume -------------------------------------------------------


def _run_with_park(scenario, park_cycle, victim, hold=2):
    """Drain the scenario, parking ``victim`` at ``park_cycle`` for up
    to ``hold`` cycles (resumed early if the pool runs dry).

    Returns (responses, parked) where ``parked`` says whether the park
    was feasible (victim live at that boundary).
    """
    engine = scenario.engine()
    engine.start(scenario.requests())
    cycle = 0
    parked = False
    resumed = False
    while engine.scheduler.has_work or engine.scheduler.num_parked:
        if not parked and cycle == park_cycle:
            live_ids = [
                s.request.request_id for s in engine.scheduler.live
            ]
            if victim in live_ids:
                engine.park(victim)
                parked = True
                parked_at = cycle
        if parked and not resumed and (
            cycle - parked_at >= hold or not engine.scheduler.has_work
        ):
            engine.resume(victim)
            resumed = True
        if engine.scheduler.has_work:
            step_engines([engine])
            cycle += 1
    return [list(s.response) for s in engine.result().slots], parked


class TestParkResume:
    @pytest.mark.parametrize("victim", [0, 2])
    def test_park_resume_at_every_feasible_cycle(
        self, scenario_factory, victim
    ):
        """Parking the victim at EVERY boundary it is live at — and
        resuming a couple of cycles later — never moves a token."""
        scenario = scenario_factory(5, num_requests=3)
        reference = scenario.reference_responses()
        feasible = 0
        for park_cycle in range(_total_cycles(scenario) + 2):
            responses, parked = _run_with_park(
                scenario, park_cycle, victim
            )
            assert responses == reference
            feasible += int(parked)
        assert feasible >= 2  # the sweep actually exercised parks

    def test_park_until_pool_drains_then_resume(self, scenario_factory):
        """A request parked until every neighbour has finished resumes
        and completes byte-identically (longest possible suspension)."""
        scenario = scenario_factory(9, num_requests=3)
        reference = scenario.reference_responses()
        engine = scenario.engine()
        engine.start(scenario.requests())
        step_engines([engine])
        victim = engine.scheduler.live[0].request.request_id
        engine.park(victim)
        while engine.scheduler.has_work:
            step_engines([engine])  # everyone else runs to completion
        engine.resume(victim)
        while engine.scheduler.has_work:
            step_engines([engine])
        assert [
            list(s.response) for s in engine.result().slots
        ] == reference

    def test_repeated_park_resume_rounds(self, scenario_factory):
        """Multiple park/resume rounds on one request still sum to an
        uninterrupted decode."""
        scenario = scenario_factory(13, num_requests=3)
        reference = scenario.reference_responses()
        engine = scenario.engine()
        engine.start(scenario.requests())
        rounds = 0
        while engine.scheduler.has_work or engine.scheduler.num_parked:
            live_ids = [
                s.request.request_id for s in engine.scheduler.live
            ]
            if 1 in live_ids and rounds < 3:
                engine.park(1)
                if engine.scheduler.has_work:
                    step_engines([engine])
                engine.resume(1)
                rounds += 1
            if engine.scheduler.has_work:
                step_engines([engine])
        assert rounds >= 2
        assert [
            list(s.response) for s in engine.result().slots
        ] == reference

    def test_cancel_while_parked_leaves_survivors_identical(
        self, scenario_factory
    ):
        """Cancelling a parked request never perturbs survivors."""
        scenario = scenario_factory(17, num_requests=3)
        reference = scenario.reference_responses()
        engine = scenario.engine()
        engine.start(scenario.requests())
        step_engines([engine])
        engine.park(1)
        step_engines([engine])
        engine.cancel(1)
        while engine.scheduler.has_work:
            step_engines([engine])
        slots = engine.result().slots
        assert slots[1].cancelled
        assert [list(slots[0].response), list(slots[2].response)] == [
            reference[0], reference[2]
        ]

    def test_serving_park_resume_byte_identical(self, scenario_factory):
        """Front-end explicit park/resume at tick granularity preserves
        outputs against an uninterrupted serving run."""
        scenario = scenario_factory(21, num_requests=3)
        baseline = ServingEngine(
            scenario.target, scenario.drafter, num_workers=1,
            strategy=scenario.strategy,
            temperature=scenario.temperature, max_batch_size=3,
        )
        base = baseline.run(scenario.requests())
        frontend = ServingEngine(
            scenario.target, scenario.drafter, num_workers=1,
            strategy=scenario.strategy,
            temperature=scenario.temperature, max_batch_size=3,
        )
        for request in scenario.requests():
            frontend.submit(request)
        frontend.tick()
        assert frontend.park(0)
        # The front-end auto-resumes into spare capacity on later
        # ticks; either the explicit resume wins the race or the
        # request is already running again.
        frontend.tick()
        resumed = frontend.resume(0)
        assert resumed or (
            frontend.records[0].state is RequestState.RUNNING
        )
        report = frontend.run(())
        assert report.records[0].preemptions == 1
        assert _responses(report) == _responses(base)
        assert all(r.finished for r in report.records)


# -- (c) drafter hot-swap --------------------------------------------------


class TestDrafterHotSwap:
    def test_swap_to_equal_weights_at_every_boundary(
        self, scenario_factory, trained_drafter
    ):
        """Swapping in a clone (equal weights) at EVERY cycle boundary
        is a no-op for committed tokens."""
        scenario = scenario_factory(2, num_requests=3)
        reference = scenario.reference_responses()
        engine = scenario.engine()
        engine.start(scenario.requests())
        while engine.scheduler.has_work:
            engine.swap_drafter(trained_drafter.clone())
            step_engines([engine])
        assert [
            list(s.response) for s in engine.result().slots
        ] == reference
        assert engine.drafter_swaps >= 2

    def test_swap_mid_decode_is_deterministic(
        self, scenario_factory, untrained_drafter
    ):
        """Swapping to a DIFFERENT drafter mid-decode yields the same
        outputs on every rerun (the swap point is part of the seeded
        schedule)."""
        scenario = scenario_factory(4, num_requests=3)

        def run():
            engine = scenario.engine()
            engine.start(scenario.requests())
            cycle = 0
            while engine.scheduler.has_work:
                if cycle == 2:
                    engine.swap_drafter(untrained_drafter)
                step_engines([engine])
                cycle += 1
            return [list(s.response) for s in engine.result().slots]

        first = run()
        assert run() == first
        assert all(response for response in first)

    def test_swap_preserves_committed_prefix(
        self, scenario_factory, untrained_drafter
    ):
        """Tokens committed before the swap boundary are exactly the
        unswapped run's tokens at that boundary — a swap can only
        influence the future."""
        scenario = scenario_factory(6, num_requests=3)
        plain = scenario.engine()
        plain.start(scenario.requests())
        swapped = scenario.engine()
        swapped.start(scenario.requests())
        for _ in range(3):
            if plain.scheduler.has_work:
                step_engines([plain])
            if swapped.scheduler.has_work:
                step_engines([swapped])
        plain_at_boundary = _committed_now(plain)
        assert _committed_now(swapped) == plain_at_boundary
        swapped.swap_drafter(untrained_drafter)
        while swapped.scheduler.has_work:
            step_engines([swapped])
        final = [list(s.response) for s in swapped.result().slots]
        for prefix, full in zip(plain_at_boundary, final):
            assert full[: len(prefix)] == prefix

    def test_swap_mid_step_rejected(self, scenario_factory):
        """The cycle-boundary contract is enforced, not advisory: a
        swap from inside a step raises."""
        scenario = scenario_factory(8, num_requests=2)
        engine = scenario.engine()
        engine.start(scenario.requests())
        engine._in_step = True
        with pytest.raises(SpecDecodeError):
            engine.swap_drafter(scenario.drafter)
        engine._in_step = False

    def test_serving_rolling_swap_under_preemption(
        self, scenario_factory, trained_drafter
    ):
        """A rolling clone swap across a preempting pool changes no
        output and drops no request."""
        scenario = scenario_factory(10, num_requests=4)
        slos = [BATCH, BATCH, INTERACTIVE, INTERACTIVE]

        def run(swap):
            frontend = ServingEngine(
                scenario.target, scenario.drafter, num_workers=2,
                strategy=scenario.strategy,
                temperature=scenario.temperature, max_batch_size=1,
                preemption=SloPreemption(),
            )
            for request in scenario.requests(
                arrival_gap=1.0, slos=slos
            ):
                frontend.submit(request)
            frontend.tick()
            if swap:
                frontend.swap_drafter(trained_drafter.clone())
            return frontend.run(())

        base = run(swap=False)
        swapped = run(swap=True)
        assert _responses(swapped) == _responses(base)
        assert all(r.finished for r in swapped.records)


# -- (d) dispatch, stealing, preemption ------------------------------------


class TestServingScheduleInvariance:
    def _trace(self, scenario, caps=(24, 4, 10, 4, 10)):
        requests = scenario.requests(arrival_gap=0.5)
        for request, cap in zip(requests, caps):
            request.max_new_tokens = cap
            request.predicted_length = cap
        return requests

    def _run(self, scenario, dispatch, stealing):
        frontend = ServingEngine(
            scenario.target, scenario.drafter, num_workers=2,
            strategy=scenario.strategy,
            temperature=scenario.temperature, max_batch_size=1,
            dispatch=dispatch, work_stealing=stealing,
        )
        return frontend.run(self._trace(scenario))

    def test_work_stealing_byte_identical(self, scenario_factory):
        """Stealing queued requests across workers rebalances load but
        never moves a token."""
        scenario = scenario_factory(12, num_requests=5)
        idle = self._run(scenario, RoundRobinDispatch(), stealing=False)
        stolen = self._run(scenario, RoundRobinDispatch(), stealing=True)
        assert stolen.stolen > 0  # the schedule actually diverged
        assert _responses(stolen) == _responses(idle)

    def test_dispatch_policy_byte_identical(self, scenario_factory):
        """Round-robin and least-loaded place requests differently yet
        commit identical tokens."""
        scenario = scenario_factory(12, num_requests=5)
        rr = self._run(scenario, RoundRobinDispatch(), stealing=False)
        ll = self._run(scenario, LeastLoadedDispatch(), stealing=False)
        placements_rr = [r.worker_id for r in rr.records]
        placements_ll = [r.worker_id for r in ll.records]
        assert placements_rr != placements_ll
        assert _responses(rr) == _responses(ll)

    def test_preemption_and_urgent_lane_byte_identical(
        self, scenario_factory
    ):
        """SLO preemption (parks + urgent admission lane) shifts
        latency between classes without touching any output."""
        scenario = scenario_factory(14, num_requests=5)
        slos = [BATCH, BATCH, BATCH, INTERACTIVE, INTERACTIVE]

        def run(preemption):
            frontend = ServingEngine(
                scenario.target, scenario.drafter, num_workers=1,
                strategy=scenario.strategy,
                temperature=scenario.temperature, max_batch_size=2,
                preemption=preemption,
            )
            return frontend.run(
                scenario.requests(arrival_gap=1.0, slos=slos)
            )

        base = run(None)
        preempted = run(SloPreemption())
        assert preempted.preemptions > 0
        assert _responses(preempted) == _responses(base)
        assert all(r.finished for r in preempted.records)

    @pytest.mark.parametrize(
        "mode", list(SchedulerMode), ids=lambda m: m.value
    )
    def test_rollout_backend_invariant_to_pool_shape(
        self, scenario_factory, mode
    ):
        """The pool rollout backend returns byte-identical rollouts
        from a 1-worker and a 2-worker pool (the co-location
        guarantee in miniature), under either scheduler mode."""
        scenario = scenario_factory(16, num_requests=4)
        prompts = [scenario.prompts[0]] * 2 + [scenario.prompts[1]] * 2

        def run(num_workers):
            frontend = ServingEngine(
                scenario.target, scenario.drafter,
                num_workers=num_workers,
                strategy=scenario.strategy,
                temperature=scenario.temperature, max_batch_size=1,
            )
            backend = RolloutScheduler(frontend, mode=mode)
            return backend.generate(
                scenario.target, prompts, 8,
                scenario.temperature, np.random.default_rng(3),
            )

        solo = run(1)
        pooled = run(2)
        assert pooled.responses == solo.responses
        assert pooled.prompts == solo.prompts
        assert pooled.finished == solo.finished
