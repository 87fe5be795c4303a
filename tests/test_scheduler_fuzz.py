"""Model-based fuzzing of the scheduler's request state machine.

A seeded fuzzer drives :class:`~repro.specdec.scheduler.
ContinuousBatchScheduler` with random sequences of legal AND illegal
operations, mirroring every legal transition in a dead-simple reference
model (a dict of lifecycle states plus counters).  After every
operation the scheduler must agree with the reference on:

* each request's lifecycle state,
* the live/waiting/parked/resuming/finished accounting (no request
  ever lost or double-counted, the slot capacity never exceeded),
* which operations raise — every illegal transition must raise
  :class:`~repro.errors.SpecDecodeError` and leave all state unchanged.

The reference model is deliberately not the implementation: it knows
nothing about slots, hidden states, or queues — only the lifecycle
graph — so drift in either direction is caught.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

import numpy as np
import pytest

from repro.errors import SpecDecodeError
from repro.specdec.scheduler import (
    ContinuousBatchScheduler,
    RequestState,
    SequenceRequest,
    TERMINAL_STATES,
)

MAX_BATCH = 3
EOS_ID = 2  # never committed by the fuzzer: requests finish by cap


class ReferenceModel:
    """Lifecycle bookkeeping the scheduler must agree with."""

    def __init__(self) -> None:
        self.state: Dict[int, RequestState] = {}
        self.resuming: Set[int] = set()  # PARKED ids queued to re-admit
        self.stolen: Set[int] = set()

    def ids_in(self, *states: RequestState) -> Set[int]:
        return {
            request_id
            for request_id, state in self.state.items()
            if state in states and request_id not in self.stolen
        }

    @property
    def live(self) -> Set[int]:
        return self.ids_in(RequestState.RUNNING)

    @property
    def waiting(self) -> Set[int]:
        return self.ids_in(RequestState.QUEUED)

    @property
    def parked(self) -> Set[int]:
        return {
            i for i in self.ids_in(RequestState.PARKED)
            if i not in self.resuming
        }

    @property
    def finished(self) -> Set[int]:
        return self.ids_in(
            RequestState.FINISHED,
            RequestState.CANCELLED,
            RequestState.EXPIRED,
        )


def _check(scheduler: ContinuousBatchScheduler, model: ReferenceModel):
    """Assert scheduler accounting matches the reference exactly."""
    assert {
        s.request.request_id for s in scheduler.live
    } == model.live
    assert {
        r.request_id for r in scheduler.waiting
    } == model.waiting
    assert set(scheduler.parked) == model.parked
    assert {
        s.request.request_id for s in scheduler.resuming_slots
    } == model.resuming
    assert scheduler.num_live == len(model.live)
    assert scheduler.num_waiting == len(model.waiting)
    assert scheduler.num_parked == len(model.parked)
    assert scheduler.num_resuming == len(model.resuming)
    assert sum(
        slot.state in TERMINAL_STATES
        for slot in scheduler._slots.values()
    ) == len(model.finished)
    assert scheduler.num_live <= MAX_BATCH
    # No request is ever in two places at once or lost.
    tracked = (
        model.live | model.waiting | model.parked
        | model.resuming | model.finished
    )
    assert tracked == {
        i for i in model.state if i not in model.stolen
    }
    # Lifecycle states agree id by id.
    for request_id, state in model.state.items():
        if request_id in model.stolen:
            with pytest.raises(SpecDecodeError):
                scheduler.state(request_id)
        else:
            got = scheduler.state(request_id)
            if request_id in model.resuming:
                assert got is RequestState.PARKED
            else:
                assert got is state
    # One record per request: each slot sits in exactly the container
    # its state names (terminal: none), as the same object...
    homes = {  # the containers' ids equal the model's (checked above)
        RequestState.QUEUED: model.waiting,
        RequestState.RUNNING: model.live,
        RequestState.PARKED: model.parked | model.resuming,
    }
    for request_id, slot in scheduler._slots.items():
        for state, home in homes.items():
            assert (request_id in home) == (slot.state is state)
        assert slot.cancelled == (
            slot.state is RequestState.CANCELLED
        )
        assert slot.expired == (slot.state is RequestState.EXPIRED)
    for request in scheduler.waiting:
        assert scheduler._slots[request.request_id].request is request
    for slot in (
        *scheduler.live, *scheduler.parked.values(), *scheduler._resuming
    ):
        assert scheduler._slots[slot.request.request_id] is slot
    # ...the urgent flag marks only the queue's leading urgent run...
    lane = [
        scheduler._slots[r.request_id].urgent for r in scheduler.waiting
    ]
    assert lane == sorted(lane, reverse=True)
    assert sum(lane) == sum(
        slot.urgent for slot in scheduler._slots.values()
    )
    # ...and no id-keyed side table has come back beside the slots.
    assert {
        name for name, value in vars(scheduler).items()
        if isinstance(value, (dict, list, set, deque))
    } == {"_slots", "waiting", "live", "parked", "_resuming"}


def _request(request_id: int, rng) -> SequenceRequest:
    return SequenceRequest(
        request_id=request_id,
        prompt=[3, 4, int(rng.integers(3, 20))],
        max_new_tokens=int(rng.integers(1, 4)),
        rng=np.random.default_rng(request_id),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scheduler_state_machine_fuzz(seed):
    rng = np.random.default_rng(seed)
    scheduler = ContinuousBatchScheduler(max_batch_size=MAX_BATCH)
    model = ReferenceModel()
    next_id = 0
    raised_illegal = 0

    for _ in range(400):
        op = rng.choice(
            [
                "push", "admit", "readmit", "park", "resume",
                "cancel", "expire", "finish", "tick", "steal",
                "illegal",
            ],
            p=[
                0.18, 0.14, 0.08, 0.12, 0.08,
                0.08, 0.05, 0.12, 0.05, 0.04,
                0.06,
            ],
        )
        known = [i for i in model.state if i not in model.stolen]
        any_id = (
            int(rng.choice(known)) if known else None
        )

        if op == "push":
            scheduler.push(
                _request(next_id, rng),
                urgent=bool(rng.integers(0, 2)),
            )
            model.state[next_id] = RequestState.QUEUED
            next_id += 1
        elif op == "admit":
            admitted = scheduler.admit()
            free = MAX_BATCH - len(model.live | model.resuming)
            assert len(admitted) == min(len(model.waiting), max(free, 0))
            for slot in admitted:
                model.state[slot.request.request_id] = (
                    RequestState.RUNNING
                )
        elif op == "readmit":
            readmitted = scheduler.readmit_parked()
            for slot in readmitted:
                request_id = slot.request.request_id
                assert request_id in model.resuming
                model.resuming.discard(request_id)
                model.state[request_id] = RequestState.RUNNING
        elif op == "park":
            if any_id is None:
                continue
            legal = model.state[any_id] is RequestState.RUNNING
            if legal:
                scheduler.park(any_id)
                model.state[any_id] = RequestState.PARKED
            else:
                with pytest.raises(SpecDecodeError):
                    scheduler.park(any_id)
                raised_illegal += 1
        elif op == "resume":
            if any_id is None:
                continue
            legal = (
                model.state[any_id] is RequestState.PARKED
                and any_id not in model.resuming
            )
            if legal:
                scheduler.resume(any_id)
                model.resuming.add(any_id)
            else:
                with pytest.raises(SpecDecodeError):
                    scheduler.resume(any_id)
                raised_illegal += 1
        elif op in ("cancel", "expire"):
            if any_id is None:
                continue
            terminate = (
                scheduler.cancel if op == "cancel" else scheduler.expire
            )
            slot = terminate(any_id)
            if model.state[any_id] in (
                RequestState.FINISHED,
                RequestState.CANCELLED,
                RequestState.EXPIRED,
            ):
                assert slot is None  # unknown-or-finished contract
            else:
                assert slot is not None
                assert slot.cancelled if op == "cancel" else slot.expired
                model.resuming.discard(any_id)
                model.state[any_id] = (
                    RequestState.CANCELLED if op == "cancel"
                    else RequestState.EXPIRED
                )
        elif op == "finish":
            live = sorted(model.live)
            if not live:
                continue
            victim = int(rng.choice(live))
            for slot in scheduler.live:
                if slot.request.request_id == victim:
                    # Commit to the cap (no EOS): slot.finished flips.
                    remaining = (
                        slot.request.max_new_tokens - len(slot.response)
                    )
                    slot.commit([5] * remaining, EOS_ID)
            retired = scheduler.retire_finished()
            assert victim in {
                s.request.request_id for s in retired
            }
            for slot in retired:
                model.state[slot.request.request_id] = (
                    RequestState.FINISHED
                )
        elif op == "tick":
            scheduler.tick()
        elif op == "steal":
            count = int(rng.integers(0, 3))
            stolen = scheduler.steal_waiting(count)
            waiting_before = len(model.waiting)
            assert len(stolen) == min(count, waiting_before)
            for request, waited in stolen:
                assert waited >= 0
                model.stolen.add(request.request_id)
        elif op == "illegal":
            # Duplicate push and unknown-id probes must raise and
            # change nothing.
            if any_id is not None:
                with pytest.raises(SpecDecodeError):
                    scheduler.push(_request(any_id, rng))
                raised_illegal += 1
            with pytest.raises(SpecDecodeError):
                scheduler.state(10_000_000)

        _check(scheduler, model)

    # The run genuinely exercised the illegal-transition guard rails.
    assert raised_illegal >= 5
    assert next_id >= 20


def test_results_guard_rails():
    """results() fails loudly while work or parked requests remain."""
    scheduler = ContinuousBatchScheduler(max_batch_size=2)
    scheduler.push(
        SequenceRequest(0, [3, 4], 2, np.random.default_rng(0))
    )
    with pytest.raises(SpecDecodeError):
        scheduler.results()  # still waiting
    scheduler.admit()
    with pytest.raises(SpecDecodeError):
        scheduler.results()  # still live
    scheduler.park(0)
    with pytest.raises(SpecDecodeError):
        scheduler.results()  # parked is neither work nor a result
    scheduler.cancel(0)
    assert [s.request.request_id for s in scheduler.results()] == [0]


def test_urgent_lane_ordering():
    """Urgent pushes queue ahead of non-urgent backlog, FIFO among
    themselves, and admission drains the lane first."""
    scheduler = ContinuousBatchScheduler(max_batch_size=10)
    rng = np.random.default_rng(0)
    for i in range(3):  # batch backlog
        scheduler.push(_request(i, rng))
    scheduler.push(_request(3, rng), urgent=True)
    scheduler.push(_request(4, rng), urgent=True)
    assert [r.request_id for r in scheduler.waiting] == [3, 4, 0, 1, 2]
    admitted = scheduler.admit()
    assert [s.request.request_id for s in admitted] == [3, 4, 0, 1, 2]
