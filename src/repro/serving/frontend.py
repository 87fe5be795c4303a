"""The serving front-end: async request API over batched spec decode.

:class:`ServingEngine` turns the closed-loop batched engine into an
online system: requests arrive over virtual time with SLO classes, a
dispatch policy routes them across N workers (each one
:class:`~repro.specdec.batch_engine.BatchedSpecDecodeEngine`, all of
them advanced one cycle per tick as one batch), queued
requests are work-stolen from backlogged workers, and requests can be
cancelled mid-decode — explicitly or by SLO deadline — without
perturbing a single committed token of any survivor.

Every lifecycle mutation — admit, cancel, expire, park, resume,
drafter swap — is a method of the worker's engine, and every worker's
lifecycle events (stamped with cycle and virtual time) are merged into
one pool-wide trail (:meth:`ServingEngine.lifecycle_events`).  A
request's :class:`~repro.serving.metrics.RequestRecord` is a view over
the slot it was queued as: it reads the slot's state and tokens (a
RUNNING record's ``response`` is the tokens committed so far) and only
stamps times and counts of its own.  Two capabilities ride on it:

* **SLO-aware preemption** — a
  :class:`~repro.serving.dispatch.PreemptionPolicy` parks the
  longest-backlog BATCH request when an INTERACTIVE arrival would
  otherwise queue behind a full worker; the parked slot is stashed
  whole (tokens, hidden hand-off, random stream) and resumed
  byte-identically once capacity frees, so preemption shifts latency
  between SLO classes without touching a single committed token.
* **Zero-downtime drafter hot-swap** —
  :meth:`ServingEngine.swap_drafter` rolls a refreshed drafter across
  the pool one worker per tick; each worker swaps at a cycle boundary
  (per-slot draft state is rebuilt from the target hidden hand-off
  every cycle), so no request is dropped or stalled and at most one
  worker is mid-swap at any time.  This is how the spot trainer's
  refreshed EAGLE weights reach a live pool
  (:meth:`repro.longtail.colocated.ColocatedLoop.publish_drafter`).

One :meth:`ServingEngine.tick` is one discrete-event step:

1. an in-progress rolling drafter swap advances by one worker;
2. arrivals whose time has come are dispatched to workers — preempting
   a live victim when the policy says the arrival must not queue;
3. deadline-expired requests are retired (EXPIRED) at the cycle
   boundary;
4. queued requests are rebalanced by work stealing (optional);
5. parked requests are resumed on workers with capacity to spare;
6. every worker with work runs exactly one decode cycle, and all of
   them run it as ONE lock-step batch
   (:func:`~repro.specdec.batch_engine.step_engines`): each worker's
   cycle is opened in worker order, the live slots of every worker are
   drafted by one drafter build per shared drafter/strategy group and
   verified by one target forward per shared target and temperature —
   a vanilla worker's rows are zero-node trees in that same forward —
   and each cycle is closed in worker order; real deployments run the
   workers on separate accelerators in parallel, and here the
   per-launch cost is paid once per tick;
7. the clock advances by one tick.

Determinism: requests carry private seeded streams, the batched kernels
are row-invariant, workers open and close their cycles in a fixed order,
and every policy breaks ties by id — a fixed trace replays
byte-identically, which is what the latency/SLO benchmarks rely on, and
every output, tick stamp and per-worker counter equals stepping the
workers one at a time.  Two orders follow from the batch.  Within a
tick the event trail is phase-major: every worker's RESUMED / ADMITTED
events, then every worker's FINISHED events.  Workers sharing one
strategy selector all pick their strategy for a tick before any of them
records that tick's feedback, as concurrent accelerators would.

When per-worker :class:`~repro.rollout.adaptive.AdaptiveSdManager`\\ s are
attached, each worker consults *its own* live-batch size every cycle —
the serving layer is where the paper's elastic SD activation meets real
multi-worker batch dynamics (workers drained by the dispatcher drop
below the threshold and engage SD while busy neighbours keep decoding
vanilla, their rows verified in the SD workers' launch).  A one-worker
pool is also the dedicated rollout engine:
``RolloutScheduler(ServingEngine(policy, drafter, num_workers=1, ...))``.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache.manager import KVCacheManager
from repro.cache.prefix_index import common_prefix_len
from repro.drafter.base import Drafter
from repro.errors import ConfigError, ServingError
from repro.llm.model import TinyLM
from repro.llm.vocab import BOS_ID
from repro.rollout.adaptive import AdaptiveSdManager
from repro.serving.clock import VirtualClock
from repro.serving.dispatch import (
    DispatchPolicy,
    PreemptionPolicy,
    RoundRobinDispatch,
    steal_work,
)
from repro.serving.metrics import RequestRecord, ServingReport
from repro.serving.request import (
    TERMINAL_STATES,
    RequestIdAllocator,
    RequestState,
    ServingRequest,
)
from repro.specdec.batch_engine import (
    BatchedSpecDecodeEngine,
    EngineStep,
    make_serving_request,
    step_engines,
)
from repro.specdec.control import (
    AdmissionPolicy,
    EventBus,
    RequestEvent,
    RequestEventKind,
)
from repro.specdec.scheduler import SequenceRequest, SequenceSlot
from repro.specdec.strategy import SdStrategy
from repro.specdec.tree import ChildMode


class ServingWorker:
    """One decode worker: an incremental engine plus dispatch metadata.

    The worker drives its engine's lifecycle methods (the pool runs
    its cycles, batched with every other worker's), and reads
    ``engine.scheduler`` / ``.counters`` / ``.kv_cache`` /
    ``.max_batch_size`` for the load surface below.

    Args:
        worker_id: stable index of this worker in the pool (stamped
            onto the engine's lifecycle events).
        engine: the worker's batched engine (an incremental session
            is opened immediately).
        time_fn: virtual-time source wired into the engine's event
            stream (the pool's clock).
        resolve: maps a request id to its :class:`~repro.serving.
            request.ServingRequest` (wired to the front-end's
            records), so :meth:`park_cost` can reason about SLO
            classes the engine-level requests don't carry.
    """

    def __init__(
        self,
        worker_id: int,
        engine: BatchedSpecDecodeEngine,
        time_fn: Callable[[], float],
        resolve: Callable[[int], "ServingRequest"],
    ) -> None:
        self.worker_id = worker_id
        self.engine = engine
        engine.start(())
        engine.events.worker_id = worker_id
        engine.time_fn = time_fn
        self.resolve = resolve

    # -- load surface (read by dispatch policies) --------------------------

    @property
    def num_live(self) -> int:
        """Sequences currently decoding on this worker."""
        return self.engine.num_live

    @property
    def num_waiting(self) -> int:
        """Requests queued on this worker, not yet admitted."""
        return self.engine.num_waiting

    @property
    def has_work(self) -> bool:
        """Whether the worker has anything to decode."""
        return self.engine.has_work

    @property
    def num_parked(self) -> int:
        """Requests suspended mid-decode on this worker."""
        return self.engine.num_parked

    @property
    def num_resuming(self) -> int:
        """Parked requests queued for re-admission on this worker."""
        return self.engine.num_resuming

    @property
    def parked_ids(self) -> List[int]:
        """Parked request ids in park order."""
        return self.engine.scheduler.parked_ids

    @property
    def capacity(self) -> Optional[int]:
        """Live-slot capacity (None = unbounded)."""
        return self.engine.max_batch_size

    @property
    def free_slots(self) -> int:
        """Live slots a NEWLY queued request could take next cycle.

        Resume-queued slots are subtracted: they re-enter the live pool
        ahead of the waiting FIFO at the next admission wave, so a slot
        they will take is not free to anyone else.  Dispatch, work
        stealing, and the preemption trigger all read this.
        """
        limit = 1_000_000 if self.capacity is None else self.capacity
        return max(0, limit - self.num_live - self.num_resuming)

    @property
    def backlog_tokens(self) -> int:
        """Predicted outstanding decode work in tokens.

        Live, parked, and resume-queued slots contribute their
        remaining cap (the true upper bound on what is left — parked
        and resuming requests WILL come back); queued requests
        contribute the dispatcher's predicted length.
        """
        scheduler = self.engine.scheduler
        remaining = sum(
            slot.request.max_new_tokens - len(slot.response)
            for slot in (
                scheduler.live
                + list(scheduler.parked.values())
                + scheduler.resuming_slots
            )
        )
        queued = sum(
            request.predicted_length or request.max_new_tokens
            for request in scheduler.waiting
        )
        return remaining + queued

    def _live_pairs(self) -> List[Tuple["ServingRequest", int]]:
        """(serving request, remaining tokens) for every live slot.

        The same shape the front-end hands
        :meth:`~repro.serving.dispatch.PreemptionPolicy.choose_victim`
        at preemption time, so dispatch-side cost probes and the real
        park see identical candidates.
        """
        return [
            (
                self.resolve(slot.request.request_id),
                slot.request.max_new_tokens - len(slot.response),
            )
            for slot in self.engine.scheduler.live
        ]

    def park_cost(
        self, policy, arrival: "ServingRequest"
    ) -> Optional[int]:
        """Remaining tokens of the victim ``policy`` would park here.

        Evaluates the pool's actual preemption policy against this
        worker's live set, so a preemption-aware dispatcher routes on
        the cost of the park that would really happen — not a proxy
        that may name a victim the policy would never choose.  None
        when the policy declines (no eligible victim).
        """
        live = self._live_pairs()
        victim_id = policy.choose_victim(arrival, live)
        if victim_id is None:
            return None
        return next(
            remaining
            for victim, remaining in live
            if victim.request_id == victim_id
        )

    def prefix_match(self, prompt: Sequence[int]) -> int:
        """Longest prefix this worker already holds for ``prompt``.

        Probes the worker's prefix cache (when one is attached) and
        every in-flight request's prompt — live, parked, resuming, and
        queued; a queued same-prefix request is a co-admission
        opportunity even before it prefills.  The client prompt is
        lifted into the engine's token space (BOS applied) once, and
        every probe below slices that one list.
        Non-accounting: dispatch probes never skew hit rates.
        """
        tokens: List[int] = [BOS_ID, *map(int, prompt)]
        best = 0
        cache = self.engine.kv_cache
        if cache is not None:
            best = cache.prompt_match(tokens)
        scheduler = self.engine.scheduler
        in_flight = [slot.request for slot in scheduler.live]
        in_flight.extend(
            slot.request for slot in scheduler.parked.values()
        )
        in_flight.extend(
            slot.request for slot in scheduler.resuming_slots
        )
        in_flight.extend(scheduler.waiting)
        for request in in_flight:
            best = max(best, common_prefix_len(tokens, request.prompt))
        return best

    # -- lifecycle ---------------------------------------------------------

    def enqueue(
        self,
        request: SequenceRequest,
        waited: int = 0,
        urgent: bool = False,
    ) -> SequenceSlot:
        """Queue a request on this worker, returning its new slot.

        ``waited`` carries cycles already spent queued on a donor worker
        (work stealing) so the admission-wait metrics accumulate;
        ``urgent`` routes the request into the scheduler's urgent
        admission lane (ahead of non-urgent backlog).
        """
        return self.engine.scheduler.push(
            request, waited=waited, urgent=urgent
        )

    def steal(
        self, count: int = 1
    ) -> List[Tuple[SequenceRequest, int]]:
        """Give up to ``count`` queued requests as ``(request, waited)``
        pairs (the length estimate travels on the request)."""
        return self.engine.scheduler.steal_waiting(count)

    def cancel(self, request_id: int) -> Optional[SequenceSlot]:
        """Cancel a queued, parked, or live request at the boundary."""
        return self.engine.cancel(request_id)

    def expire(self, request_id: int) -> Optional[SequenceSlot]:
        """Retire a request as deadline-expired at the boundary."""
        return self.engine.expire(request_id)

    def park(
        self, request_id: int, preempted: bool = False
    ) -> SequenceSlot:
        """Suspend a live request (slot stashed for byte-identical
        resume)."""
        return self.engine.park(request_id, preempted=preempted)

    def resume(self, request_id: int) -> None:
        """Queue a parked request for re-admission."""
        self.engine.resume(request_id)

    def swap_drafter(self, drafter: Drafter) -> None:
        """Swap this worker's drafter at its next cycle boundary."""
        self.engine.swap_drafter(drafter)


class ServingEngine:
    """SLO-aware online serving over N batched spec-decode workers.

    Args:
        target: the target model (shared across workers — one replica
            each in a real deployment; the algorithmic layer shares the
            weights object).
        drafter: the draft model (shared likewise).
        num_workers: decode workers in the pool.
        strategy: static SD configuration (omit when managers drive the
            per-cycle choice).
        sd_managers: optional per-worker adaptive managers (exactly one
            per worker); each sees its own worker's live-batch size.
        temperature: sampling temperature.
        child_mode: tree child expansion mode (``sample`` is lossless).
        max_batch_size: per-worker live-slot capacity (None = unbounded;
            finite capacity is what makes queueing — and dispatch —
            matter).
        dispatch: routing policy for arrivals (round-robin when omitted).
        preemption: optional policy parking live low-urgency requests
            when an urgent arrival would otherwise queue (None = never
            preempt).
        work_stealing: rebalance queued requests between cycles.
        group_affinity: route requests sharing a ``group`` tag to the
            worker the group's first member landed on (best effort —
            work stealing may still move queued members).  Grouped GRPO
            rollouts share their prompt by construction, so co-locating
            a group is the admission-side hook for prefix-cache reuse.
        admission: pluggable per-worker admission policy
            (:class:`~repro.specdec.control.FifoAdmission` when
            omitted;
            :class:`~repro.specdec.control.PrefixAwareAdmission`
            co-admits shared-prefix requests so one prefill launch
            serves the whole group).
        kv_cache_tokens: when set, every worker gets its own
            :class:`~repro.cache.manager.KVCacheManager` of this token
            capacity — prefills of repeated prompts become cache hits,
            partial prefix matches prefill only their uncovered suffix,
            and :class:`~repro.serving.dispatch.PrefixAffinityDispatch`
            can route arrivals to the worker holding their prefix.
        kv_cache_block_size: tokens per KV block in each worker's
            cache (a size at or above the longest key gives whole-key
            blocks with no partial reuse — the ablation baseline).
        kv_cache_cold_tokens: budget of each cache's COLD demotion
            tier (0 = evict outright, the classic single-tier LRU).
    """

    def __init__(
        self,
        target: TinyLM,
        drafter: Drafter,
        num_workers: int = 1,
        strategy: Optional[SdStrategy] = None,
        sd_managers: Optional[Sequence[AdaptiveSdManager]] = None,
        temperature: float = 0.8,
        child_mode: ChildMode = "sample",
        max_batch_size: Optional[int] = None,
        dispatch: Optional[DispatchPolicy] = None,
        preemption: Optional[PreemptionPolicy] = None,
        work_stealing: bool = True,
        group_affinity: bool = False,
        admission: Optional[AdmissionPolicy] = None,
        kv_cache_tokens: Optional[int] = None,
        kv_cache_block_size: int = 8,
        kv_cache_cold_tokens: int = 0,
    ) -> None:
        if num_workers < 1:
            raise ConfigError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        if sd_managers is not None and len(sd_managers) != num_workers:
            raise ConfigError(
                f"need one sd_manager per worker: got {len(sd_managers)} "
                f"for {num_workers} workers"
            )
        if kv_cache_tokens is not None and kv_cache_tokens < 1:
            raise ConfigError(
                f"kv_cache_tokens must be >= 1, got {kv_cache_tokens}"
            )
        if kv_cache_block_size < 1:
            raise ConfigError(
                f"kv_cache_block_size must be >= 1, "
                f"got {kv_cache_block_size}"
            )
        if kv_cache_cold_tokens < 0:
            raise ConfigError(
                f"kv_cache_cold_tokens must be >= 0, "
                f"got {kv_cache_cold_tokens}"
            )
        self.clock = VirtualClock()
        self.dispatch = dispatch or RoundRobinDispatch()
        self.preemption = preemption
        self.work_stealing = work_stealing
        self.managers = list(sd_managers) if sd_managers else []
        self.workers: List[ServingWorker] = []
        self._events: List[RequestEvent] = []
        #: Front-end-level bus for transitions that happen before a
        #: request reaches any worker (PENDING cancel/expiry) — keeps
        #: the pool-wide trail complete: every submitted request ends
        #: in exactly one terminal event.
        self.events = EventBus()
        self.events.subscribe(self._events.append)
        for worker_id in range(num_workers):
            engine = BatchedSpecDecodeEngine(
                target,
                drafter,
                strategy,
                temperature,
                child_mode=child_mode,
                max_batch_size=max_batch_size,
                sd_manager=(
                    self.managers[worker_id] if self.managers else None
                ),
                admission=admission,
                kv_cache=(
                    KVCacheManager(
                        kv_cache_tokens,
                        block_size=kv_cache_block_size,
                        cold_capacity_tokens=kv_cache_cold_tokens,
                        context_window=target.config.context_window,
                    )
                    if kv_cache_tokens is not None
                    else None
                ),
            )
            worker = ServingWorker(
                worker_id,
                engine,
                time_fn=lambda: self.clock.now,
                resolve=(
                    lambda request_id:
                    self.records[request_id].request
                ),
            )
            engine.events.subscribe(self._events.append)
            self.workers.append(worker)
        self.records: Dict[int, RequestRecord] = {}
        self._arrivals: List[Tuple[float, int]] = []  # heap
        self._deadlines: List[Tuple[float, int]] = []  # heap
        self.stolen = 0
        #: Pending drafter swaps: (worker_id, drafter, part_of_roll).
        #: One entry is applied per tick — at most one worker is
        #: mid-swap at any time, whether the entries come from a
        #: pool-wide roll or targeted per-worker publications.
        self._swap_queue: Deque[Tuple[int, Drafter, bool]] = deque()
        self.drafter_swaps = 0
        #: Targeted per-worker swaps applied (the drafter-zoo refresh
        #: path), counted separately from pool-wide rolls.
        self.worker_swaps = 0
        self.group_affinity = group_affinity
        self._group_worker: Dict[int, int] = {}
        self._group_pending: Dict[int, int] = {}
        #: The request-id namespace this pool mints from (a fleet
        #: points every replica at its one shared allocator).
        self.id_allocator = RequestIdAllocator()
        #: Slot-cycles decoded per SLO class (one live slot decoding for
        #: one tick = one slot-cycle) — the per-class utilization the
        #: co-location benchmark reads reclaimed-bubble capacity from.
        self.class_slot_cycles: Dict[str, int] = {}

    # -- request API -------------------------------------------------------

    def allocate_request_ids(self, count: int) -> range:
        """Reserve ``count`` fresh globally-unique request ids.

        Programmatic clients sharing the pool with a trace (the RL
        rollout backend) must not collide with trace-assigned ids; this
        hands them a contiguous id block past everything seen so far.
        The block comes from the pool's
        :class:`~repro.serving.request.RequestIdAllocator` — replicas
        of a fleet share one allocator, so no two pools can mint the
        same id even when driven concurrently.
        """
        return self.id_allocator.allocate(count)

    def submit(self, request: ServingRequest) -> None:
        """Register an online request (dispatched once its time comes)."""
        if request.request_id in self.records:
            raise ServingError(
                f"duplicate request_id {request.request_id}"
            )
        self.id_allocator.observe(request.request_id)
        self.records[request.request_id] = RequestRecord(request=request)
        heapq.heappush(
            self._arrivals, (request.arrival_time, request.request_id)
        )
        if request.slo.deadline is not None:
            heapq.heappush(
                self._deadlines,
                (
                    request.arrival_time + request.slo.deadline,
                    request.request_id,
                ),
            )

    def cancel(self, request_id: int) -> bool:
        """Cancel a request wherever it is in its lifecycle.

        Pending requests — still in the arrival trace, not yet
        dispatched — are removed from the pending-arrival queue
        immediately; queued, parked, and live requests are cancelled at
        the worker's next cycle boundary (the record keeps reading the
        slot's partial response).  Survivors' committed tokens are
        untouched.

        Returns:
            True when the request existed and was still cancellable.
        """
        record = self.records.get(request_id)
        if record is None or record.state in TERMINAL_STATES:
            return False
        self._terminate(record, RequestState.CANCELLED, self.clock.now)
        return True

    def park(self, request_id: int) -> bool:
        """Suspend a RUNNING request mid-decode (explicit preemption).

        The live slot is stashed whole — committed tokens, hidden
        hand-off, random stream — so a later :meth:`resume` continues
        its decode byte-identically to an uninterrupted run.

        Returns:
            True when the request was running and is now parked.
        """
        record = self.records.get(request_id)
        if record is None or record.state is not RequestState.RUNNING:
            return False
        assert record.worker_id is not None
        self._park(
            self.workers[record.worker_id], request_id, preempted=False
        )
        return True

    def resume(self, request_id: int) -> bool:
        """Queue a PARKED request for re-admission on its worker.

        The request goes back to RUNNING when its worker re-admits the
        slot (ahead of the waiting FIFO, capacity permitting).  Note the
        front-end also resumes parked requests automatically whenever a
        worker has capacity to spare — explicit resume is for callers
        that want a request back *now*.

        Returns:
            True when the request was parked and is now resume-queued.
        """
        record = self.records.get(request_id)
        if record is None or record.state is not RequestState.PARKED:
            return False
        assert record.worker_id is not None
        worker = self.workers[record.worker_id]
        if request_id in worker.parked_ids:
            worker.resume(request_id)
        # else: already resume-queued (e.g. by the automatic resume
        # pass) — the request IS coming back, which is what True means.
        return True

    def swap_drafter(self, drafter: Drafter) -> None:
        """Roll a new drafter across the pool, one worker per tick.

        Zero-downtime deployment of refreshed drafter weights: each
        worker swaps at its own cycle boundary on a distinct tick, so
        at most one worker is transitioning at any time and no request
        anywhere in the pool is dropped or stalled.  Calling again
        while a roll is in progress restarts the roll with the newest
        drafter (latest publication wins).
        """
        self._validate_swap(drafter)
        # A new pool-wide roll supersedes everything queued — including
        # targeted per-worker swaps, which the roll's newer publication
        # would overwrite anyway.
        self._swap_queue = deque(
            (worker_id, drafter, True)
            for worker_id in range(len(self.workers))
        )

    def swap_worker_drafter(
        self, worker_id: int, drafter: Drafter
    ) -> None:
        """Queue a drafter swap for ONE worker (next tick boundary).

        The drafter-zoo publication path: each worker can host a
        drafter specialized for the workload segment routed to it, and
        a refreshed specialist reaches its worker without touching the
        rest of the pool.  Swaps queue behind any in-progress roll and
        apply one per tick (same zero-downtime guarantee as the pool
        roll); a second swap queued for the same worker before the
        first applies replaces it (latest publication wins).
        """
        self._validate_swap(drafter)
        if not 0 <= worker_id < len(self.workers):
            raise ServingError(
                f"worker_id {worker_id} out of range "
                f"({len(self.workers)} workers)"
            )
        self._swap_queue = deque(
            entry for entry in self._swap_queue
            if entry[2] or entry[0] != worker_id
        )
        self._swap_queue.append((worker_id, drafter, False))

    def _validate_swap(self, drafter: Drafter) -> None:
        # Fail fast at the call site: deferring validation to the per-
        # tick roll would raise out of a later tick()/run(), stranding
        # live requests mid-trace.
        if not isinstance(drafter, Drafter):
            raise ServingError(
                f"swap_drafter() needs a Drafter, got {type(drafter)!r}"
            )

    @property
    def swap_in_progress(self) -> bool:
        """Whether a rolling drafter swap has workers left to visit."""
        return bool(self._swap_queue)

    @property
    def drained(self) -> bool:
        """No submitted request is unresolved (the fleet's retire gate).

        A draining replica keeps ticking until this flips true — every
        live, parked, queued, and pending request has reached a
        terminal state — and only then retires.
        """
        return not self._unresolved()

    def withdraw_queued(self) -> List[ServingRequest]:
        """Withdraw every request that has not started decoding.

        The fleet tier's drain/migration hook: PENDING arrivals (not
        yet dispatched) and QUEUED requests (dispatched to a worker,
        still waiting for a live slot) are removed from this pool
        entirely — records, arrival queue, and deadline queue included
        — and returned for resubmission on another replica.  Neither
        kind has consumed a token of its private random stream, so a
        withdrawn request decodes byte-identically wherever it lands
        (the same property work stealing relies on, lifted across
        pools).  Live, parked, and resuming requests are NOT withdrawn:
        their slots hold committed tokens and mid-decode state, so they
        finish on this pool.

        Returns:
            The withdrawn requests in request-id order.
        """
        withdrawn: List[ServingRequest] = []
        for record in list(self.records.values()):
            if record.state is RequestState.PENDING:
                withdrawn.append(record.request)
                del self.records[record.request.request_id]
        for worker in self.workers:
            for request, _waited in worker.steal(worker.num_waiting):
                record = self.records.pop(request.request_id)
                self._note_group_resolved(record)
                withdrawn.append(record.request)
        gone = {request.request_id for request in withdrawn}
        if gone:
            self._arrivals = [
                entry for entry in self._arrivals if entry[1] not in gone
            ]
            heapq.heapify(self._arrivals)
            self._deadlines = [
                entry for entry in self._deadlines if entry[1] not in gone
            ]
            heapq.heapify(self._deadlines)
        return sorted(withdrawn, key=lambda r: r.request_id)

    def subscribe(
        self, callback: Callable[[RequestEvent], None]
    ) -> None:
        """Observe every lifecycle event as it is emitted.

        Covers all worker engines plus the front-end's own bus (which
        carries terminations of requests that never reached a worker).
        """
        self.events.subscribe(callback)
        for worker in self.workers:
            worker.engine.events.subscribe(callback)

    def lifecycle_events(self) -> List[RequestEvent]:
        """Pool-wide lifecycle event trail (emission order).

        Events carry their worker id, engine cycle, and virtual-time
        stamp; emission order is deterministic under a fixed seed.
        """
        return list(self._events)

    # -- event loop --------------------------------------------------------

    def tick(self) -> None:
        """Run one discrete-event step (see module docstring)."""
        workers = self.open_tick()
        self.close_tick(workers, step_engines([w.engine for w in workers]))

    def open_tick(self) -> List[ServingWorker]:
        """Steps 1-5 of a tick; returns the workers with a cycle to run.

        :meth:`tick` hands their engines to one
        :func:`~repro.specdec.batch_engine.step_engines` call and their
        outcomes to :meth:`close_tick`; a fleet does the same with every
        replica's workers in one batch.
        """
        now = self.clock.now
        self._roll_swap()
        self._dispatch_arrivals(now)
        self._expire_deadlines(now)
        if self.work_stealing and len(self.workers) > 1:
            moves = steal_work(self.workers)
            for request_id, _donor, receiver, slot in moves:
                record = self.records[request_id]
                record.worker_id = receiver
                record.slot = slot
                record.stolen += 1
            self.stolen += len(moves)
        self._resume_parked()
        return [worker for worker in self.workers if worker.has_work]

    def close_tick(
        self,
        workers: Sequence[ServingWorker],
        outcomes: Sequence[EngineStep],
    ) -> None:
        """Record the cycles :meth:`open_tick`'s workers ran; advance
        the clock (step 7)."""
        now = self.clock.now
        completion = now + 1.0  # cycles complete at the end of the tick
        for worker, outcome in zip(workers, outcomes):
            for slot in outcome.admitted:
                self.records[slot.request.request_id].admit_time = now
            for slot in worker.engine.scheduler.live + outcome.retired:
                record = self.records[slot.request.request_id]
                if (
                    record.first_token_time is None
                    and len(slot.response) > 0
                ):
                    record.first_token_time = completion
                slo_name = record.request.slo.name
                self.class_slot_cycles[slo_name] = (
                    self.class_slot_cycles.get(slo_name, 0) + 1
                )
            for slot in outcome.retired:
                record = self.records[slot.request.request_id]
                record.finish_time = completion
                self._note_group_resolved(record)
        self.clock.advance(1.0)

    def run(
        self,
        requests: Sequence[ServingRequest] = (),
        max_ticks: int = 1_000_000,
    ) -> ServingReport:
        """Serve ``requests`` (plus earlier submissions) to completion.

        Args:
            requests: trace to submit before starting.
            max_ticks: safety bound on virtual time.

        Returns:
            The run's :class:`~repro.serving.metrics.ServingReport`.
        """
        for request in requests:
            self.submit(request)
        ticks = 0
        while (
            self._unresolved() or self.swap_in_progress
        ) and ticks < max_ticks:
            self.tick()
            ticks += 1
        if self._unresolved():
            raise ServingError(
                f"serving run did not drain within {max_ticks} ticks"
            )
        return self.report()

    def report(self) -> ServingReport:
        """Aggregate the current records into a report.

        Counters are not named here: each worker's ledger is copied
        whole, and the report's totals are sums over the copies.
        """
        capacity = self.workers[0].capacity
        return ServingReport(
            records=[
                self.records[request_id]
                for request_id in sorted(self.records)
            ],
            ticks=self.clock.now,
            worker_counters=[
                copy.deepcopy(w.engine.counters) for w in self.workers
            ],
            stolen=self.stolen,
            policy=self.dispatch.name,
            class_slot_cycles=dict(self.class_slot_cycles),
            pool_slot_capacity=(
                None if capacity is None
                else capacity * len(self.workers)
            ),
        )

    # -- internals ---------------------------------------------------------

    def _unresolved(self) -> bool:
        """Whether any request is pending, queued, running, or parked."""
        if any(w.has_work for w in self.workers):
            return True
        return any(
            r.state not in TERMINAL_STATES
            for r in self.records.values()
        )

    def _roll_swap(self) -> None:
        """Apply one pending drafter swap (pool roll or targeted)."""
        if not self._swap_queue:
            return
        worker_id, drafter, part_of_roll = self._swap_queue.popleft()
        self.workers[worker_id].swap_drafter(drafter)
        if part_of_roll:
            if not any(entry[2] for entry in self._swap_queue):
                self.drafter_swaps += 1
        else:
            self.worker_swaps += 1

    def _resume_parked(self) -> None:
        """Resume parked requests on workers with capacity to spare.

        A worker resumes its oldest-parked request while it can seat
        every queued request AND every resume in flight — resumed slots
        re-enter ahead of the waiting FIFO at the next cycle, so
        resuming into contended capacity would starve queued urgent
        traffic (the opposite of what preemption bought).
        """
        for worker in self.workers:
            # free_slots already nets out resume-queued slots, so each
            # resume shrinks it and the loop converges.
            while worker.num_parked and (
                worker.free_slots > worker.num_waiting
            ):
                request_id = worker.parked_ids[0]
                worker.resume(request_id)

    def _dispatch_arrivals(self, now: float) -> None:
        """Route every request whose arrival time has come."""
        while self._arrivals and self._arrivals[0][0] <= now:
            _, request_id = heapq.heappop(self._arrivals)
            record = self.records[request_id]
            if record.state is not RequestState.PENDING:
                continue  # cancelled before arrival
            request = record.request
            if (
                self.group_affinity
                and request.group is not None
                and request.group in self._group_worker
            ):
                index = self._group_worker[request.group]
            else:
                index = self.dispatch.choose(request, self.workers)
            if not 0 <= index < len(self.workers):
                raise ServingError(
                    f"dispatch policy {self.dispatch.name!r} chose "
                    f"worker {index} of {len(self.workers)}"
                )
            if self.group_affinity and request.group is not None:
                self._group_worker.setdefault(request.group, index)
                self._group_pending[request.group] = (
                    self._group_pending.get(request.group, 0) + 1
                )
            worker = self.workers[index]
            record.slot = worker.enqueue(
                make_serving_request(
                    request_id=request.request_id,
                    prompt=request.prompt,
                    max_new_tokens=request.max_new_tokens,
                    seed=request.seed,
                    segment=request.segment,
                    predicted_length=request.dispatch_length,
                ),
                urgent=(
                    self.preemption is not None
                    and self.preemption.is_urgent(request)
                ),
            )
            record.worker_id = worker.worker_id
            record.dispatch_time = now
            self._maybe_preempt(request, worker)

    def _maybe_preempt(
        self, request: ServingRequest, worker: ServingWorker
    ) -> None:
        """Park a live victim when ``request`` would otherwise queue.

        Consulted right after dispatch.  The freed slot goes to the
        head of the admission order, not necessarily to ``request``
        itself — the policy is therefore evaluated against that actual
        *beneficiary*.  Urgent arrivals enter the scheduler's urgent
        admission lane (ahead of any BATCH backlog), so the
        beneficiary of a park earned by an urgent arrival is the
        urgent traffic itself: a queue of urgent requests keeps
        earning preemptions (each park seats the next urgent head),
        while a non-urgent beneficiary declines the park (it would
        cost the victim latency for zero urgent-traffic benefit).
        One victim per arrival — preemption relieves head-of-line
        blocking, it does not drain whole batches.
        """
        if self.preemption is None:
            return
        # free_slots already nets out resume-queued slots, so it IS the
        # capacity available to the waiting FIFO next cycle.
        effective = worker.free_slots
        if effective >= worker.num_waiting:
            return  # request will be seated next cycle anyway
        waiting = list(worker.engine.scheduler.waiting)
        beneficiary = self.records[
            waiting[effective].request_id
        ].request
        live = worker._live_pairs()
        victim_id = self.preemption.choose_victim(beneficiary, live)
        if victim_id is None:
            return
        self._park(worker, victim_id, preempted=True)

    def _note_group_resolved(self, record: RequestRecord) -> None:
        """Release group-affinity state when a group's last dispatched
        member reaches a terminal state (long-lived pools would
        otherwise accumulate one pin per rollout group forever)."""
        group = record.request.group
        if (
            not self.group_affinity
            or group is None
            or record.dispatch_time is None
        ):
            return
        remaining = self._group_pending.get(group, 0) - 1
        if remaining <= 0:
            self._group_pending.pop(group, None)
            self._group_worker.pop(group, None)
        else:
            self._group_pending[group] = remaining

    def _park(
        self, worker: ServingWorker, request_id: int, preempted: bool
    ) -> None:
        """Single park path for both policy preemption and explicit
        :meth:`park` — the record bookkeeping stays in one place."""
        worker.park(request_id, preempted=preempted)
        self.records[request_id].preemptions += 1

    def _drop_arrival(self, request_id: int) -> None:
        """Remove a not-yet-dispatched request from the arrival queue."""
        self._arrivals = [
            entry for entry in self._arrivals if entry[1] != request_id
        ]
        heapq.heapify(self._arrivals)

    def _expire_deadlines(self, now: float) -> None:
        """Expire unfinished requests whose SLO deadline has passed.

        Deadlines live in a heap keyed by expiry time, so each tick pays
        O(expired) rather than a scan of every record ever submitted.
        Expiry is cancellation's SLO sibling: same mechanics, recorded
        as EXPIRED so reports separate missed deadlines from operator
        cancels.
        """
        while self._deadlines and self._deadlines[0][0] <= now:
            _, request_id = heapq.heappop(self._deadlines)
            record = self.records[request_id]
            if record.state not in TERMINAL_STATES:
                self._terminate(record, RequestState.EXPIRED, now)

    def _terminate(
        self, record: RequestRecord, to: RequestState, now: float
    ) -> None:
        """Single retire path of :meth:`cancel` and deadline expiry.

        A pending request leaves the arrival queue and its terminal
        event goes on the pool's own bus; a dispatched one is retired
        by its worker, whose slot the record reads from then on.
        """
        request_id = record.request.request_id
        expire = to is RequestState.EXPIRED
        if record.slot is None:
            self._drop_arrival(request_id)
            record.pre_dispatch = to
            self.events.emit(
                RequestEventKind.EXPIRED if expire
                else RequestEventKind.CANCELLED,
                request_id, 0, now,
            )
        else:
            worker = self.workers[record.worker_id]
            (worker.expire if expire else worker.cancel)(request_id)
        record.finish_time = now
        self._note_group_resolved(record)
