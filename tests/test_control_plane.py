"""Tests for the unified request-lifecycle control plane.

Covers the acceptance criteria of the control-plane redesign:

* the explicit per-request state machine in the scheduler
  (WAITING -> LIVE <-> PARKED -> FINISHED | CANCELLED | EXPIRED), with
  illegal transitions rejected loudly;
* park/resume determinism — a sequence parked mid-decode and later
  resumed produces a token stream byte-identical to the same seed run
  without preemption (the slot stashes tokens, hidden hand-off, and
  random stream whole);
* zero-downtime drafter hot-swap — a mid-rollout ``swap_drafter``
  completes with zero dropped or stalled requests, and the lifecycle
  event stream records the swap cycle;
* the engine's lifecycle event stream;
* the serving layer driving it: SLO-aware preemption, the rolling
  pool-wide swap, EXPIRED accounting, and the spot-trainer publication
  path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter import DrafterTrainer, DrafterTrainingConfig
from repro.errors import ServingError, SpecDecodeError
from repro.serving import (
    BATCH,
    INTERACTIVE,
    LeastLoadedDispatch,
    RequestState,
    ServingEngine,
    ServingRequest,
    SloPreemption,
)
from repro.specdec import (
    BatchedSpecDecodeEngine,
    ContinuousBatchScheduler,
    RequestEventKind,
    SdStrategy,
)
from repro.specdec.batch_engine import step_engines
from repro.spot import OnlineDataBuffer, SpotTrainer
from repro.systems import TltSystem
from repro.cluster import ClusterSpec
from repro.hardware import get_gpu, get_model

from conftest import drain

PROMPTS = [[5, 6, 7], [9, 10, 11], [4, 8, 12], [13, 14, 15],
           [6, 9, 13], [7, 11, 5]]
STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


def _requests(seed=42, max_new_tokens=30, prompts=PROMPTS):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(prompts))
    return [
        ServingRequest(
            request_id=i, prompt=list(prompt), max_new_tokens=max_new_tokens,
            arrival_time=0.0, seed=int(seeds[i]),
        )
        for i, prompt in enumerate(prompts)
    ]


def _engine(target, drafter, max_batch_size=None):
    return BatchedSpecDecodeEngine(
        target, drafter, STRATEGY, temperature=0.9,
        max_batch_size=max_batch_size,
    )


def _baseline(target, drafter, **kwargs):
    engine = _engine(target, drafter)
    engine.start(_requests(**kwargs))
    return {
        s.request.request_id: list(s.response)
        for s in drain(engine).slots
    }


class TestStateMachine:
    def test_lifecycle_walk(self, target, trained_drafter):
        engine = _engine(target, trained_drafter, max_batch_size=3)
        engine.start(_requests())
        scheduler = engine.scheduler
        assert scheduler.state(0) is RequestState.QUEUED
        step_engines([engine])
        assert scheduler.state(0) is RequestState.RUNNING
        assert scheduler.state(5) is RequestState.QUEUED
        engine.park(0)
        assert scheduler.state(0) is RequestState.PARKED
        assert scheduler.num_parked == 1
        engine.resume(0)
        assert scheduler.num_resuming == 1
        outcome = step_engines([engine])[0]
        # Re-admitted this cycle (it may also retire within it).
        assert 0 in [s.request.request_id for s in outcome.resumed]
        assert scheduler.state(0) in (
            RequestState.RUNNING, RequestState.FINISHED
        )
        drain(engine)
        assert scheduler.state(0) is RequestState.FINISHED

    def test_illegal_transitions_raise(self, target, trained_drafter):
        engine = _engine(target, trained_drafter, max_batch_size=2)
        engine.start(_requests())
        step_engines([engine])
        waiting_id = engine.scheduler.waiting[0].request.request_id
        with pytest.raises(SpecDecodeError):
            engine.park(waiting_id)  # park of a WAITING request
        live_id = engine.scheduler.live[0].request.request_id
        with pytest.raises(SpecDecodeError):
            engine.resume(live_id)  # resume of a LIVE request
        engine.park(live_id)
        engine.resume(live_id)
        with pytest.raises(SpecDecodeError):
            engine.resume(live_id)  # double resume
        with pytest.raises(SpecDecodeError):
            engine.scheduler.state(999)  # unknown id

    def test_expire_is_terminal_and_distinct(self, target,
                                              trained_drafter):
        engine = _engine(target, trained_drafter, max_batch_size=2)
        engine.start(_requests())
        step_engines([engine])
        live_id = engine.scheduler.live[0].request.request_id
        slot = engine.expire(live_id)
        assert slot is not None and slot.expired and not slot.cancelled
        assert engine.scheduler.state(live_id) is RequestState.EXPIRED
        assert [
            s.request.request_id
            for s in engine.scheduler._slots.values()
            if s.expired or s.cancelled
        ] == [live_id]
        assert engine.expire(live_id) is None  # already terminal
        kinds = [e.kind for e in engine.events.events]
        assert RequestEventKind.EXPIRED in kinds

    def test_results_raise_while_parked(self, target, trained_drafter):
        engine = _engine(target, trained_drafter)
        engine.start(_requests())
        step_engines([engine])
        engine.park(0)
        while engine.scheduler.has_work:
            step_engines([engine])
        with pytest.raises(SpecDecodeError, match="parked"):
            engine.result()
        engine.cancel(0)
        result = engine.result()
        assert result.slots[0].cancelled

    def test_cancel_parked_keeps_partial_response(self, target,
                                                  trained_drafter):
        engine = _engine(target, trained_drafter)
        engine.start(_requests())
        step_engines([engine])
        step_engines([engine])
        parked = engine.park(1)
        committed = list(parked.response)
        assert committed  # decoded at least one cycle before parking
        slot = engine.cancel(1)
        assert slot is not None and slot.cancelled
        assert slot.response == committed

    def test_cancel_while_resume_queued_accounts_park_time(
        self, target, trained_drafter
    ):
        """Terminating a resume-queued slot must close out its park
        interval (parked_cycles counted)."""
        engine = _engine(target, trained_drafter)
        engine.start(_requests())
        step_engines([engine])
        engine.park(1)
        step_engines([engine])
        engine.resume(1)  # now in the resume queue, not yet live
        slot = engine.cancel(1)
        assert slot is not None and slot.cancelled
        assert slot.parked_cycles > 0


class TestParkResumeDeterminism:
    def test_parked_and_resumed_stream_byte_identical(
        self, target, trained_drafter
    ):
        """THE acceptance criterion: park mid-decode + later resume
        commits exactly the tokens of an uninterrupted same-seed run —
        for the parked request AND every survivor."""
        reference = _baseline(target, trained_drafter, max_new_tokens=40)

        for victim in (0, 2, 5):
            engine = _engine(target, trained_drafter)
            engine.start(_requests(max_new_tokens=40))
            step_engines([engine])
            step_engines([engine])
            if engine.scheduler.state(victim) is not RequestState.RUNNING:
                continue
            engine.park(victim)
            step_engines([engine])
            step_engines([engine])
            engine.resume(victim)
            result = drain(engine)
            for slot in result.slots:
                assert not slot.cancelled
                assert slot.response == reference[
                    slot.request.request_id
                ], f"request {slot.request.request_id} perturbed by "\
                   f"park/resume of {victim}"

    def test_park_resume_with_bounded_capacity(self, target,
                                               trained_drafter):
        """Resumed slots respect capacity and re-enter ahead of the
        waiting FIFO; tokens stay byte-identical throughout."""
        reference = _baseline(target, trained_drafter)
        engine = _engine(target, trained_drafter, max_batch_size=2)
        engine.start(_requests())
        step_engines([engine])
        victim = engine.scheduler.live[0].request.request_id
        engine.park(victim)
        step_engines([engine])
        engine.resume(victim)
        assert engine.scheduler.num_live <= 2
        result = drain(engine)
        assert all(
            s.response == reference[s.request.request_id]
            for s in result.slots
        )
        parked_slot = next(
            s for s in result.slots
            if s.request.request_id == victim
        )
        assert parked_slot.parked_cycles > 0

    def test_resume_priority_over_waiting_fifo(self, target,
                                               trained_drafter):
        engine = _engine(target, trained_drafter, max_batch_size=2)
        engine.start(_requests(max_new_tokens=40))
        step_engines([engine])
        victim = engine.scheduler.live[0].request.request_id
        engine.park(victim)
        engine.resume(victim)
        outcome = step_engines([engine])[0]
        # The freed slot went to the resumed request, not the FIFO head.
        assert [s.request.request_id for s in outcome.resumed] == [victim]
        assert engine.scheduler.state(victim) in (
            RequestState.RUNNING, RequestState.FINISHED
        )


class TestDrafterHotSwap:
    def test_mid_rollout_swap_zero_dropped_or_stalled(
        self, target, trained_drafter, untrained_drafter
    ):
        """A mid-rollout swap to a DIFFERENT drafter: every live request
        still retires (no drops, no stalls) and the event trail records
        the swap cycle."""
        engine = _engine(target, trained_drafter, max_batch_size=3)
        engine.start(_requests())
        step_engines([engine])
        step_engines([engine])
        live_before = {
            s.request.request_id for s in engine.scheduler.live
        }
        cycle_before = engine.scheduler.cycle
        engine.swap_drafter(untrained_drafter)
        assert engine.drafter is untrained_drafter
        assert engine.drafter_swaps == 1
        result = drain(engine)
        assert len(result.slots) == len(PROMPTS)
        assert all(not s.cancelled for s in result.slots)
        assert live_before <= {
            s.request.request_id for s in result.slots
        }
        swaps = engine.events.of_kind(RequestEventKind.SWAPPED)
        assert len(swaps) == 1
        assert swaps[0].cycle == cycle_before
        assert swaps[0].request_id is None

    def test_swap_to_equal_weights_is_byte_identical(
        self, target, trained_drafter
    ):
        """Swapping in a clone (same weights) mid-rollout must not move
        a single committed token — drafting state really is rebuilt
        from the hidden hand-off each cycle."""
        reference = _baseline(target, trained_drafter)
        engine = _engine(target, trained_drafter)
        engine.start(_requests())
        step_engines([engine])
        engine.swap_drafter(trained_drafter.clone())
        result = drain(engine)
        assert {
            s.request.request_id: list(s.response)
            for s in result.slots
        } == reference

    def test_swap_validation(self, target, trained_drafter):
        engine = _engine(target, trained_drafter)
        with pytest.raises(SpecDecodeError):
            engine.swap_drafter("not a drafter")  # type: ignore[arg-type]


class TestEngineControlSurface:
    def test_event_stream_subscribable_and_stamped(
        self, target, trained_drafter
    ):
        engine = _engine(target, trained_drafter, max_batch_size=2)
        engine.time_fn = lambda: 123.0
        seen = []
        engine.events.subscribe(seen.append)
        engine.start(_requests(max_new_tokens=6))
        step_engines([engine])
        engine.cancel(engine.scheduler.live[0].request.request_id)
        drain(engine)
        assert seen == engine.events.events
        kinds = [e.kind for e in seen]
        assert kinds.count(RequestEventKind.ADMITTED) == len(PROMPTS)
        assert RequestEventKind.CANCELLED in kinds
        assert RequestEventKind.FINISHED in kinds
        assert all(e.time == 123.0 for e in seen)
        admitted = engine.events.of_kind(RequestEventKind.ADMITTED)
        assert admitted[0].cycle == 0

    def test_events_reset_on_start(self, target, trained_drafter):
        engine = _engine(target, trained_drafter)
        engine.start(_requests(max_new_tokens=4))
        drain(engine)
        assert len(engine.events) > 0
        engine.start(())
        assert len(engine.events) == 0


class TestStealWaitingEdgeCases:
    """Satellite: steal_waiting edge cases."""

    def test_steal_from_empty_queue(self):
        scheduler = ContinuousBatchScheduler([], max_batch_size=1)
        assert scheduler.steal_waiting(3) == []
        assert scheduler.steal_waiting(0) == []
        with pytest.raises(SpecDecodeError):
            scheduler.steal_waiting(-1)

    def test_steal_respects_available_count(self):
        requests = _requests(prompts=PROMPTS[:4])
        donor = ContinuousBatchScheduler(requests, max_batch_size=1)
        donor.admit()  # one live, three waiting
        stolen = donor.steal_waiting(10)
        assert len(stolen) == 3  # only what was actually queued
        assert donor.num_waiting == 0
        assert donor.num_live == 1
        # FIFO order of the stolen block is preserved.
        assert [r.request_id for r, _ in stolen] == [1, 2, 3]

    def test_stolen_request_cancelled_on_receiver(self):
        requests = _requests(prompts=PROMPTS[:3])
        donor = ContinuousBatchScheduler(requests, max_batch_size=1)
        donor.admit()
        (request, waited), = donor.steal_waiting(1)
        receiver = ContinuousBatchScheduler([], max_batch_size=1)
        receiver.push(request, waited=waited)
        # The donor fully disowned it: results() must not expect it...
        with pytest.raises(SpecDecodeError, match="unknown"):
            donor.state(request.request_id)
        # ...and cancelling on the receiver retires it there.
        slot = receiver.cancel(request.request_id)
        assert slot is not None and slot.cancelled
        assert receiver.state(
            request.request_id
        ) is RequestState.CANCELLED
        assert not receiver.has_work
        assert [
            s.request.request_id for s in receiver.results()
        ] == [request.request_id]


class _ControlTrace:
    """Mixed BATCH/INTERACTIVE arrivals that force queueing."""

    @staticmethod
    def build():
        rng = np.random.default_rng(7)
        requests = [
            ServingRequest(
                i, list(rng.integers(3, 24, 4)), 60, 0.0,
                slo=BATCH, seed=100 + i,
            )
            for i in range(2)
        ]
        requests += [
            ServingRequest(
                2 + i, list(rng.integers(3, 24, 4)), 6, 3.0 + 2 * i,
                slo=INTERACTIVE, seed=200 + i,
            )
            for i in range(4)
        ]
        return requests


class TestServingPreemption:
    def _run(self, target, drafter, preemption):
        frontend = ServingEngine(
            target, drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2, preemption=preemption,
        )
        return frontend, frontend.run(_ControlTrace.build())

    def test_preemption_cuts_interactive_latency_losslessly(
        self, target, trained_drafter
    ):
        _, base = self._run(target, trained_drafter, None)
        frontend, pre = self._run(
            target, trained_drafter, SloPreemption()
        )
        assert pre.preemptions > 0
        # Preemption never touches a committed token.
        assert [r.response for r in pre.records] == [
            r.response for r in base.records
        ]
        assert all(r.finished for r in pre.records)
        inter = lambda rep: [  # noqa: E731
            r.latency for r in rep.records
            if r.request.slo.name == "interactive"
        ]
        assert max(inter(pre)) < max(inter(base))
        assert pre.slo_attainment >= base.slo_attainment
        kinds = [e.kind for e in frontend.lifecycle_events()]
        assert RequestEventKind.PREEMPTED in kinds
        assert RequestEventKind.RESUMED in kinds
        assert pre.summary()["preempted"] == float(pre.preemptions)

    def test_parked_record_states_roundtrip(self, target,
                                            trained_drafter):
        frontend = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
            preemption=SloPreemption(),
        )
        for request in _ControlTrace.build():
            frontend.submit(request)
        saw_parked = False
        for _ in range(200):
            if frontend.drained:
                break
            frontend.tick()
            saw_parked = saw_parked or any(
                r.state is RequestState.PARKED
                for r in frontend.records.values()
            )
        assert saw_parked
        report = frontend.report()
        assert all(r.finished for r in report.records)

    def test_explicit_park_resume_api(self, target, trained_drafter):
        frontend = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        trace = _ControlTrace.build()
        for request in trace:
            frontend.submit(request)
        frontend.tick()
        assert frontend.park(0)
        assert frontend.records[0].state is RequestState.PARKED
        assert not frontend.park(0)  # not running any more
        assert frontend.resume(0)
        # Already resume-queued: still True (the request IS coming
        # back), distinguishing it from unknown/terminal ids.
        assert frontend.resume(0)
        assert not frontend.resume(99)
        report = frontend.run()
        assert all(r.finished for r in report.records)

    def test_urgent_lane_makes_preemption_seat_the_arrival(
        self, target, trained_drafter
    ):
        """An urgent arrival that meets a BATCH backlog enters the
        urgent admission lane (queued ahead of the backlog), so the
        park's freed slot seats the arrival itself — co-location's
        head-of-line-blocking fix.  Parked rollouts resume and finish."""
        frontend = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=1,
            preemption=SloPreemption(),
        )
        rng = np.random.default_rng(3)
        batch = [
            ServingRequest(
                i, list(rng.integers(3, 24, 4)), 60, 0.0,
                slo=BATCH, seed=i,
            )
            for i in range(3)  # one live + two queued ahead
        ]
        urgent = ServingRequest(
            3, list(rng.integers(3, 24, 4)), 5, 2.0,
            slo=INTERACTIVE, seed=9,
        )
        report = ServingEngine.run(frontend, batch + [urgent])
        assert report.preemptions == 1  # park fired FOR the arrival
        urgent_record = report.records[3]
        # Jumped the 2-deep BATCH backlog: admitted right after arrival
        # into the parked victim's slot, not after ~60-token stragglers.
        assert urgent_record.queue_wait is not None
        assert urgent_record.queue_wait <= 2.0
        assert all(r.finished for r in report.records)

    def test_preemption_declines_when_free_slot_seats_arrival(
        self, target, trained_drafter
    ):
        """No park is ever wasted: an urgent arrival that a free slot
        will seat next cycle anyway never triggers a preemption."""
        frontend = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
            preemption=SloPreemption(),
        )
        rng = np.random.default_rng(3)
        live = ServingRequest(
            0, list(rng.integers(3, 24, 4)), 60, 0.0,
            slo=BATCH, seed=0,
        )
        urgent = ServingRequest(
            1, list(rng.integers(3, 24, 4)), 5, 2.0,
            slo=INTERACTIVE, seed=9,
        )
        report = ServingEngine.run(frontend, [live, urgent])
        assert report.preemptions == 0  # the second slot was free
        assert all(r.finished for r in report.records)

    def test_resuming_slots_visible_to_load_signals(
        self, target, trained_drafter
    ):
        """A resume-queued slot occupies neither live nor parked nor
        waiting, but it takes a slot ahead of the FIFO next cycle —
        free_slots and backlog_tokens must count it, or dispatch and
        work stealing route onto a worker heavier than it looks."""
        frontend = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        rng = np.random.default_rng(3)
        for i in range(2):
            frontend.submit(ServingRequest(
                i, list(rng.integers(3, 24, 4)), 60, 0.0,
                slo=BATCH, seed=i,
            ))
        frontend.tick()  # both live, worker saturated
        worker = frontend.workers[0]
        assert frontend.park(0)
        backlog_parked = worker.backlog_tokens
        assert worker.free_slots == 1
        assert frontend.resume(0)  # resume-queued, not yet live
        assert worker.engine.scheduler.num_resuming == 1
        # The pending resume consumes the free slot and its remaining
        # tokens stay on the backlog.
        assert worker.free_slots == 0
        assert worker.backlog_tokens == backlog_parked
        report = frontend.run()
        assert all(r.finished for r in report.records)

    def test_serving_swap_validates_at_call_site(self, target,
                                                 trained_drafter):
        from repro.errors import ServingError

        frontend = ServingEngine(
            target, trained_drafter, num_workers=2, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        with pytest.raises(ServingError):
            frontend.swap_drafter("weights")  # type: ignore[arg-type]
        assert not frontend.swap_in_progress  # no partial roll queued

    def test_choose_victim_policy(self):
        policy = SloPreemption()
        interactive = ServingRequest(
            10, [1], 4, 0.0, slo=INTERACTIVE, seed=1
        )
        batch_a = ServingRequest(0, [1], 60, 0.0, slo=BATCH, seed=2)
        batch_b = ServingRequest(1, [1], 80, 0.0, slo=BATCH, seed=3)
        live = [(batch_a, 30), (batch_b, 70)]
        # Longest-backlog BATCH victim wins.
        assert policy.choose_victim(interactive, live) == 1
        # A BATCH arrival never preempts.
        assert policy.choose_victim(batch_a, live) is None
        # No eligible victims -> decline.
        inter_live = [(interactive, 3)]
        assert policy.choose_victim(interactive, inter_live) is None


class TestServingRollingSwap:
    def test_rolling_swap_zero_downtime(self, target, trained_drafter):
        base = ServingEngine(
            target, trained_drafter, num_workers=2, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        ).run(_ControlTrace.build())

        frontend = ServingEngine(
            target, trained_drafter, num_workers=2, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        for request in _ControlTrace.build():
            frontend.submit(request)
        for _ in range(3):
            frontend.tick()
        frontend.swap_drafter(trained_drafter.clone())
        assert frontend.swap_in_progress
        report = frontend.run()
        assert not frontend.swap_in_progress
        assert frontend.drafter_rolls == 1
        # Zero dropped or stalled requests across the swap.
        assert all(r.finished for r in report.records)
        # Equal weights -> byte-identical to the unswapped run.
        assert [r.response for r in report.records] == [
            r.response for r in base.records
        ]
        swaps = [
            e for e in frontend.lifecycle_events()
            if e.kind is RequestEventKind.SWAPPED
        ]
        assert [e.worker_id for e in swaps] == [0, 1]
        # One worker per tick: swap times strictly increase.
        assert swaps[0].time < swaps[1].time

    def test_swap_completes_even_when_pool_idle(self, target,
                                                trained_drafter):
        frontend = ServingEngine(
            target, trained_drafter, num_workers=3, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        frontend.swap_drafter(trained_drafter.clone())
        frontend.run(())  # no requests: the run still finishes the roll
        assert not frontend.swap_in_progress
        assert frontend.drafter_rolls == 1

    def test_run_bound_raises_with_the_roll_open(self, target,
                                                 trained_drafter):
        """A tick bound that ends mid-roll is an error, not a report:
        run() promises no swap roll is left when it returns."""
        frontend = ServingEngine(
            target, trained_drafter, num_workers=4, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        frontend.swap_drafter(trained_drafter.clone())
        with pytest.raises(ServingError, match="drafter roll unfinished"):
            frontend.run([], max_ticks=2)
        assert frontend.swap_in_progress
        assert frontend.drafter_rolls == 0
        frontend.run(())  # the roll resumes where the bound cut it
        assert frontend.drafter_rolls == 1

    def test_publish_drafter_rolls_spot_snapshot(
        self, target, trained_drafter, rollout_sequences
    ):
        from repro.drafter.training import collect_training_sequences
        from repro.llm.vocab import Vocabulary
        from repro.rl import RlConfig
        from repro.workload import SuccessorChainTask

        system = TltSystem(
            get_model("Qwen2.5-7B"),
            ClusterSpec(
                num_workers=2, gpus_per_worker=4, gpu=get_gpu("H100")
            ),
        )
        trainer = DrafterTrainer(
            trained_drafter.clone(),
            DrafterTrainingConfig(learning_rate=5e-3),
        )
        spot = SpotTrainer(
            trainer=trainer,
            buffer=OnlineDataBuffer(capacity_tokens=100_000),
            checkpoints=None,
            batch_sequences=4,
            max_positions=128,
        )
        spot.begin_step(0)
        spot.ingest(
            collect_training_sequences(target, rollout_sequences[:8])
        )
        spot.train_slice(2, np.random.default_rng(0))

        loop = system.colocated_system(
            target, trained_drafter,
            SuccessorChainTask(
                vocab=Vocabulary(target.config.vocab_size)
            ),
            RlConfig(num_prompts=2, group_size=2, max_new_tokens=8,
                     temperature=0.9),
            spot_trainer=spot, num_workers=2,
        )
        frontend = loop.frontend
        published = loop.publish_drafter()
        assert published is not spot.trainer.drafter  # a snapshot
        assert frontend.swap_in_progress
        frontend.run(())
        assert frontend.drafter_rolls == 1
        for worker in frontend.workers:
            assert worker.engine.drafter is published


class TestServingCancelPending:
    """Satellite: cancelling a request still in the arrival trace."""

    def test_cancel_pending_removes_from_arrival_queue(
        self, target, trained_drafter
    ):
        frontend = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        late = ServingRequest(0, [5, 6], 8, arrival_time=50.0, seed=1)
        now = ServingRequest(1, [7, 8], 4, arrival_time=0.0, seed=2)
        frontend.submit(late)
        frontend.submit(now)
        assert frontend.cancel(0)
        # Eagerly removed from the pending-arrival queue, not lazily
        # skipped at t=50: the pool is drained (no arrival waits) as
        # soon as request 1 is done.
        report = frontend.run()
        assert report.ticks < 50
        assert report.records[0].cancelled
        assert report.records[0].response == []
        assert report.records[1].finished
        # A never-submitted id still reports False.
        assert not frontend.cancel(99)
        # The pre-dispatch cancellation still lands on the pool trail:
        # every submitted request ends in exactly one terminal event.
        cancelled = [
            e for e in frontend.lifecycle_events()
            if e.kind is RequestEventKind.CANCELLED
        ]
        assert [e.request_id for e in cancelled] == [0]


class TestDeadlineExpiry:
    def test_deadline_lands_on_expired_state(self, target,
                                             trained_drafter):
        from repro.serving import SloClass

        tight = SloClass(
            "tight", ttft_target=1.0, latency_target=2.0, deadline=3.0
        )
        requests = [
            ServingRequest(0, [5, 6, 7], 60, 0.0, slo=tight, seed=11),
            ServingRequest(1, [9, 10, 11], 4, 0.0, seed=12),
        ]
        frontend = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2,
        )
        report = frontend.run(requests)
        record = report.records[0]
        assert record.expired and record.cancelled
        assert record.state is RequestState.EXPIRED
        assert report.summary()["expired"] == 1.0
        assert len(report.expired_records) == 1
        kinds = [e.kind for e in frontend.lifecycle_events()]
        assert RequestEventKind.EXPIRED in kinds
        assert RequestEventKind.CANCELLED not in kinds


class TestRolloutBackendSwap:
    def test_adaptive_backend_adopts_published_drafter(
        self, target, trained_drafter, untrained_drafter
    ):
        """A publication rolls onto the one-worker rollout pool and the
        next rollout speculates with it."""
        from repro.longtail import RolloutScheduler
        from repro.rollout import AdaptiveSdConfig, AdaptiveSdManager

        pool = ServingEngine(
            target, untrained_drafter, num_workers=1,
            sd_managers=[AdaptiveSdManager(AdaptiveSdConfig())],
            temperature=0.9,
        )
        pool.swap_drafter(trained_drafter)
        out = RolloutScheduler(pool).generate(
            target, PROMPTS[:2], 8, 0.9, np.random.default_rng(0)
        )
        assert pool.workers[0].engine.drafter is trained_drafter
        assert len(out.responses) == 2
