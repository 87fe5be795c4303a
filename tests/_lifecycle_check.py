"""One check that a pool's records, their slots and its event trail agree.

A :class:`~repro.serving.metrics.RequestRecord` holds no lifecycle state
of its own once dispatched: it reads its slot's.  This check holds that
view to the only independent witness of the lifecycle, the pool's event
trail, and holds each live record's slot to the one its worker's
scheduler owns (a steal must re-point the record).  It also holds each
worker's dispatch view (``free_slots``, ``backlog_tokens``), which reads
the scheduler's ordering containers, to a recount from slot states.
"""

from __future__ import annotations

from typing import Dict

from repro.serving.request import TERMINAL_STATES, RequestState
from repro.specdec.control import RequestEventKind

#: The state a request is in after each kind of event.
_IMPLIED = {
    RequestEventKind.ADMITTED: RequestState.RUNNING,
    RequestEventKind.RESUMED: RequestState.RUNNING,
    RequestEventKind.PARKED: RequestState.PARKED,
    RequestEventKind.PREEMPTED: RequestState.PARKED,
    RequestEventKind.FINISHED: RequestState.FINISHED,
    RequestEventKind.CANCELLED: RequestState.CANCELLED,
    RequestEventKind.EXPIRED: RequestState.EXPIRED,
}


def check_records(pool) -> None:
    """Assert every record of ``pool`` agrees with its trail and slot.

    * a record's ``state`` is what its last event implies; with no
      event it is QUEUED once dispatched and PENDING before;
    * an unresolved, dispatched record's slot is the one its worker's
      scheduler holds for the request;
    * each worker's ``free_slots`` is its capacity minus its RUNNING and
      resume-queued slots, and its ``backlog_tokens`` the remaining cap
      of its RUNNING and PARKED slots plus the predicted length of its
      QUEUED ones.
    """
    for worker in pool.workers:
        _check_dispatch_view(worker)
    last: Dict[int, RequestEventKind] = {}
    for event in pool.lifecycle_events():
        if event.request_id is not None:
            last[event.request_id] = event.kind
    for request_id, record in pool.records.items():
        kind = last.get(request_id)
        if kind is not None:
            implied = _IMPLIED[kind]
        elif record.dispatch_time is not None:
            implied = RequestState.QUEUED
        else:
            implied = RequestState.PENDING
        assert record.state is implied, (
            f"request {request_id} reads {record.state.value}, its trail "
            f"says {implied.value}"
        )
        if record.slot is None:
            continue
        assert record.slot.request is record.request, (
            f"request {request_id}'s slot decodes a different request "
            f"object than its record holds"
        )
        if record.state in TERMINAL_STATES:
            continue
        held = pool.workers[record.worker_id].engine.scheduler._slots
        assert held.get(request_id) is record.slot, (
            f"request {request_id}'s record points at a slot worker "
            f"{record.worker_id} does not hold"
        )


def _check_dispatch_view(worker) -> None:
    """Recount a worker's dispatch view from its slots' states."""
    scheduler = worker.engine.scheduler
    capacity = worker.engine.max_batch_size
    running = resuming = backlog = 0
    for request_id, slot in scheduler._slots.items():
        request = slot.request
        if slot.state is RequestState.QUEUED:
            backlog += request.predicted_length or request.max_new_tokens
        elif slot.state in (RequestState.RUNNING, RequestState.PARKED):
            backlog += request.max_new_tokens - len(slot.response)
            if slot.state is RequestState.RUNNING:
                running += 1
            elif request_id not in scheduler.parked:
                resuming += 1  # PARKED but out of the stash: resume-queued
    limit = 1_000_000 if capacity is None else capacity
    assert worker.free_slots == max(0, limit - running - resuming), (
        f"worker {worker.worker_id}: free_slots {worker.free_slots}, "
        f"slots say {limit} - {running} running - {resuming} resuming"
    )
    assert worker.backlog_tokens == backlog, (
        f"worker {worker.worker_id}: backlog_tokens "
        f"{worker.backlog_tokens}, slots say {backlog}"
    )
