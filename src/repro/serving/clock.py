"""Discrete-event virtual time, and the tick driver that owns it.

The serving layer measures time in **decode-cycle ticks**: one tick is
one batched draft/verify (or vanilla) cycle executed by every busy worker
in parallel.  This is the same deterministic work proxy the batched
engine feeds its bandit (wall-clock would make seeded runs environment-
dependent), and it is what makes latency/SLO numbers reproducible: a
request's latency is the number of cycles between its arrival and the
completion of the cycle that committed its last token.

:class:`TickDriver` is the loop a pool
(:class:`~repro.serving.frontend.ServingEngine`) and a fleet
(:class:`~repro.fleet.engine.FleetEngine`) share: the one clock (a
fleet re-points every pool it attaches at its own), the arrivals heap,
the event trail, the drain test, :meth:`~TickDriver.run` and the
drafter swap roll.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Callable, Container, Deque, List, Optional, Sequence, Tuple,
)

from repro.drafter.base import Drafter
from repro.errors import ReproError
from repro.serving.request import RequestIdAllocator, ServingRequest
from repro.specdec.control import EventBus, RequestEvent


class VirtualClock:
    """Monotonic virtual time in decode-cycle ticks, from 0."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance(self) -> None:
        """Move time forward by one tick."""
        self._now += 1.0


class TickDriver:
    """The discrete-event loop a pool and a fleet share.

    A subclass defines ``submit`` (calling :meth:`_enqueue`), its own
    ``tick`` (``open_tick`` → one
    :func:`~repro.specdec.batch_engine.step_engines` call →
    ``close_tick`` → ``clock.advance()``), ``report``, and
    ``_place(request_id) -> bool``, which places one due arrival (False:
    it and every later arrival wait for a later tick) through the one
    checked pick, :meth:`_choose`.  A fleet's children are its live
    pools (:meth:`_subdrivers`), drivers in turn; a pool, whose children
    are its workers, overrides the hooks that default to sub-drivers.

    The swap roll is one queue of ``(child, drafter, part_of_roll)``
    entries, a roll's entries ahead of any targeted one.  A child's swap
    starts only once no child is still rolling, so at most one worker
    below the driver is mid-swap on any tick: a worker is done at once,
    a pool when its own roll is.
    """

    #: Raised for misuse and for a run that does not drain.
    error = ReproError

    def __init__(self) -> None:
        self.clock = VirtualClock()
        #: Every lifecycle event below this driver, in emission order.
        self.events = EventBus()
        #: The request-id namespace (a fleet's pools mint from the
        #: fleet's).
        self.id_allocator = RequestIdAllocator()
        self._arrivals: List[Tuple[float, int]] = []  # heap
        self._roll: Deque[Tuple[object, Drafter, bool]] = deque()
        self._roll_open = False
        #: Completed :meth:`swap_drafter` rolls.
        self.drafter_rolls = 0

    # -- children (a fleet's pools by default) -------------------------------

    def _subdrivers(self) -> Sequence["TickDriver"]:
        """The child drivers still ticking (none below a pool)."""
        return ()

    def _busy(self) -> bool:
        """Whether a child still holds an unresolved request."""
        return any(not sub.drained for sub in self._subdrivers())

    def _roll_children(self) -> Sequence[object]:
        """The children a :meth:`swap_drafter` roll visits, in order."""
        return self._subdrivers()

    def _swap_child(
        self, child, drafter: Drafter, part_of_roll: bool
    ) -> bool:
        """Start ``child``'s swap; False when it has nothing to swap."""
        if child not in self._subdrivers():
            return False  # retired mid-roll
        child.swap_drafter(drafter)
        return True

    # -- requests and events -------------------------------------------------

    def allocate_request_ids(self, count: int) -> range:
        """Reserve ``count`` fresh request ids, past every id seen so
        far (programmatic clients must not collide with a trace)."""
        return self.id_allocator.allocate(count)

    def _enqueue(
        self, request: ServingRequest, known: Container[int]
    ) -> None:
        """The shared half of ``submit``: reject an id already in
        ``known``, claim the id and queue the arrival."""
        if request.request_id in known:
            raise self.error(f"duplicate request_id {request.request_id}")
        self.id_allocator.observe(request.request_id)
        self._requeue(request)

    def _requeue(self, request: ServingRequest) -> None:
        heapq.heappush(
            self._arrivals, (request.arrival_time, request.request_id)
        )

    def _choose(self, policy, request: ServingRequest, views: Sequence):
        """The view ``policy`` picks; :attr:`error` if out of range."""
        index = policy.choose(request, views)
        if not 0 <= index < len(views):
            raise self.error(f"{policy.name!r} chose {index} of {len(views)}")
        return views[index]

    def _place_arrivals(self) -> None:
        """Place every request whose arrival time has come."""
        now = self.clock.now
        while self._arrivals and self._arrivals[0][0] <= now:
            if not self._place(self._arrivals[0][1]):
                return
            heapq.heappop(self._arrivals)

    def subscribe(
        self, callback: Callable[[RequestEvent], None]
    ) -> None:
        """Observe every lifecycle event below this driver as it is
        emitted (children attached later included)."""
        self.events.subscribe(callback)

    def lifecycle_events(self) -> List[RequestEvent]:
        """The merged lifecycle trail in emission order (deterministic
        under a fixed seed), stamped with worker id, engine cycle,
        virtual time and, on a fleet, replica id."""
        return self.events.events

    @property
    def drained(self) -> bool:
        """No submitted request is unresolved: none waits to arrive and
        no child holds a live, parked, queued or pending one."""
        return not self._arrivals and not self._busy()

    # -- the drafter swap roll -----------------------------------------------

    def swap_drafter(self, drafter: Drafter) -> None:
        """Roll a new drafter across the children, one at a time.

        Zero-downtime deployment of refreshed drafter weights: a worker
        swaps at its own cycle boundary, at most one worker below this
        driver swaps per tick, and no request is dropped or stalled.
        Calling again mid-roll drops every pending swap of the older
        publication (its children's included) and restarts the roll
        with the newest drafter: latest publication wins, and no worker
        swaps to a superseded drafter.
        """
        self._check_drafter(drafter)
        for sub in self._subdrivers():
            sub._roll.clear()
            sub._roll_open = False
        self._roll = deque(
            (child, drafter, True) for child in self._roll_children()
        )
        self._roll_open = True

    def _check_drafter(self, drafter: Drafter) -> None:
        # Fail fast at the call site: deferring validation to the roll
        # would raise out of a later tick, stranding live requests.
        if not isinstance(drafter, Drafter):
            raise self.error(
                f"swap_drafter() needs a Drafter, got {type(drafter)!r}"
            )

    @property
    def swap_in_progress(self) -> bool:
        """Whether a drafter swap is queued or a roll is unfinished."""
        return self._roll_open or bool(self._roll)

    def _child_rolling(self) -> bool:
        return any(sub.swap_in_progress for sub in self._subdrivers())

    def _roll_step(self) -> None:
        """Start the next queued swap unless a child is still rolling."""
        while self._roll and not self._child_rolling():
            if self._swap_child(*self._roll.popleft()):
                return

    def _settle_roll(self) -> None:
        """Count the open roll once its last child is done."""
        if (
            self._roll_open
            and not (self._roll and self._roll[0][2])
            and not self._child_rolling()
        ):
            self._roll_open = False
            self.drafter_rolls += 1

    # -- run loop ------------------------------------------------------------

    def run(
        self,
        requests: Sequence[ServingRequest] = (),
        max_ticks: int = 1_000_000,
        on_tick: Optional[Callable[["TickDriver"], None]] = None,
    ):
        """Serve ``requests`` (plus earlier submissions) to completion:
        tick until every request is resolved and no swap roll is left.

        Args:
            requests: trace to submit before starting.
            max_ticks: safety bound on virtual time.
            on_tick: called after every tick with the driver — the hook
                mid-run drains and hot swaps are driven from.

        Returns:
            The run's report.

        Raises:
            ``self.error`` when ``max_ticks`` pass with a request
            unresolved or, drained, with a drafter roll unfinished.
        """
        for request in requests:
            self.submit(request)
        ticks = 0
        while (
            not self.drained or self.swap_in_progress
        ) and ticks < max_ticks:
            self.tick()
            if on_tick is not None:
                on_tick(self)
            ticks += 1
        if not self.drained:
            raise self.error(f"run did not drain within {max_ticks} ticks")
        if self.swap_in_progress:
            raise self.error(
                f"run left a drafter roll unfinished after {max_ticks} ticks"
            )
        return self.report()
