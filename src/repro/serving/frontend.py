"""The serving front-end: async request API over batched spec decode.

:class:`ServingEngine` turns the batched engine into an online system:
requests arrive over virtual time with SLO classes, a dispatch policy
routes them across N workers (each one
:class:`~repro.specdec.batch_engine.BatchedSpecDecodeEngine`, all of
them advanced one cycle per tick as one batch), queued
requests are work-stolen from backlogged workers, and requests can be
cancelled mid-decode — explicitly or by SLO deadline — without
perturbing a single committed token of any survivor.

Every lifecycle mutation — admit, cancel, expire, park, resume,
drafter swap — is a method of the worker's engine, and every worker's
lifecycle events (stamped with cycle and virtual time) publish onto the
pool's one bus, its trail (:meth:`ServingEngine.lifecycle_events`).  A
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

The pool is a :class:`~repro.serving.clock.TickDriver`: the clock, the
arrivals heap, the event bus, :meth:`~repro.serving.clock.TickDriver.run`
and the swap roll are the driver's, shared with the fleet tier.  One
:meth:`ServingEngine.tick` is one discrete-event step:

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
   a vanilla worker's rows are sequences with no nodes in that same
   forward — and each cycle is closed in worker order; real deployments
   run the workers on separate accelerators in parallel, and here the
   per-launch cost is paid once per tick.

Steps 1-5 are :meth:`ServingEngine.open_tick` and the records of step 6
are :meth:`ServingEngine.close_tick`; then ``tick`` advances the clock.
A pool inside a fleet reads the fleet's one clock, which only the fleet
tick advances.

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
``RolloutScheduler(ServingEngine(policy, drafter, num_workers=1, ...))``,
and with no drafter, strategy or managers the vanilla one:
``RolloutScheduler(ServingEngine(policy, None, temperature=...))``.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cache.manager import KVCacheManager
from repro.cache.prefix_index import common_prefix_len
from repro.drafter.base import Drafter
from repro.errors import ConfigError, ServingError
from repro.llm.model import TinyLM
from repro.llm.vocab import BOS_ID
from repro.rollout.adaptive import AdaptiveSdManager
from repro.serving.clock import TickDriver
from repro.serving.dispatch import (
    DispatchPolicy,
    PreemptionPolicy,
    RoundRobinDispatch,
    steal_work,
)
from repro.serving.metrics import RequestRecord, ServingReport
from repro.serving.request import (
    TERMINAL_STATES,
    RequestState,
    ServingRequest,
)
from repro.specdec.batch_engine import (
    BatchedSpecDecodeEngine,
    EngineStep,
    step_engines,
)
from repro.specdec.control import AdmissionPolicy, RequestEventKind
from repro.specdec.strategy import SdStrategy
from repro.specdec.tree import ChildMode


class ServingWorker:
    """One decode worker: its engine plus the dispatch view of it.

    The worker owns no lifecycle and no count of its own: the pool
    calls ``worker.engine`` (``cancel`` / ``expire`` / ``park`` /
    ``resume`` / ``swap_drafter``) and ``worker.engine.scheduler``
    (``push``, ``steal_waiting``, the counts) directly.  What remains
    here is the surface the dispatch policies, work stealing and
    preemption — and their test stubs — duck-type: :attr:`num_waiting`,
    :attr:`free_slots`, :attr:`backlog_tokens` and :meth:`prefix_match`.
    Each reads the scheduler's slots, and a slot carries the pool's
    own :class:`~repro.serving.request.ServingRequest` (SLO class and
    length estimate included), so the worker needs no path back into
    the pool's records.

    Args:
        worker_id: stable index of this worker in the pool (stamped
            onto the engine's lifecycle events).
        engine: the worker's batched engine (it holds its session from
            construction).
        time_fn: virtual-time source wired into the engine's event
            stream (the pool's clock).
    """

    def __init__(
        self,
        worker_id: int,
        engine: BatchedSpecDecodeEngine,
        time_fn: Callable[[], float],
    ) -> None:
        self.worker_id = worker_id
        self.engine = engine
        engine.events.worker_id = worker_id
        engine.time_fn = time_fn

    # -- load surface (read by dispatch policies) --------------------------

    @property
    def num_waiting(self) -> int:
        """Requests queued on this worker, not yet admitted."""
        return self.engine.scheduler.num_waiting

    @property
    def free_slots(self) -> int:
        """Live slots a newly queued request could take next cycle
        (:attr:`~repro.specdec.scheduler.ContinuousBatchScheduler.
        free_slots`)."""
        return self.engine.scheduler.free_slots

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
            slot.request.dispatch_length for slot in scheduler.waiting
        )
        return remaining + queued

    def prefix_match(self, prompt: Sequence[int]) -> int:
        """Longest prefix this worker already holds for ``prompt``.

        Probes the worker's prefix cache (when one is attached) and
        every in-flight request's prompt — live, parked, resuming, and
        queued; a queued same-prefix request is a co-admission
        opportunity even before it prefills.  The client prompt is
        lifted into the engine's token space (BOS applied) once, as a
        tuple like every slot's ``prompt``, so each probe compares one
        slice.
        Non-accounting: dispatch probes never skew hit rates.
        """
        tokens = (BOS_ID, *map(int, prompt))
        best = 0
        cache = self.engine.kv_cache
        if cache is not None:
            best = cache.prompt_match(tokens)
        scheduler = self.engine.scheduler
        for slots in (
            scheduler.live,
            scheduler.parked.values(),
            scheduler.resuming_slots,
            scheduler.waiting,
        ):
            for slot in slots:
                best = max(best, common_prefix_len(tokens, slot.prompt))
        return best


class ServingEngine(TickDriver):
    """SLO-aware online serving over N batched spec-decode workers.

    Args:
        target: the target model (shared across workers — one replica
            each in a real deployment; the algorithmic layer shares the
            weights object).
        drafter: the draft model (shared likewise); None for a pool
            with SD off (no strategy and no managers).
        num_workers: decode workers in the pool.
        strategy: static SD configuration.  Omit it when managers drive
            the per-cycle choice; omit both and SD is off: every cycle
            decodes vanilla (each live slot a sequence with no nodes in
            the tick's verify launch) — the VeRL-style baseline rides the
            same tick as the speculative pool.
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

    error = ServingError

    def __init__(
        self,
        target: TinyLM,
        drafter: Optional[Drafter],
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
        super().__init__()
        self.dispatch = dispatch or RoundRobinDispatch()
        self.preemption = preemption
        self.work_stealing = work_stealing
        self.managers = list(sd_managers) if sd_managers else []
        self.workers: List[ServingWorker] = []
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
            )
            # Worker events publish onto the pool's bus, which also
            # carries the terminations of requests that never reached a
            # worker: every submitted request ends in one terminal event.
            engine.events.subscribe(self.events.publish)
            self.workers.append(worker)
        self.records: Dict[int, RequestRecord] = {}
        self._deadlines: List[Tuple[float, int]] = []  # heap
        self.stolen = 0
        #: Targeted per-worker swaps applied (the drafter-zoo refresh
        #: path), counted apart from pool-wide rolls.
        self.worker_swaps = 0
        self.group_affinity = group_affinity
        self._group_worker: Dict[int, ServingWorker] = {}
        self._group_pending: Dict[int, int] = {}
        #: Slot-cycles decoded per SLO class (one live slot decoding for
        #: one tick = one slot-cycle) — the per-class utilization the
        #: co-location benchmark reads reclaimed-bubble capacity from.
        self.class_slot_cycles: Dict[str, int] = {}

    # -- request API -------------------------------------------------------

    def submit(self, request: ServingRequest) -> None:
        """Register an online request (dispatched once its time comes)."""
        self._enqueue(request, self.records)
        self.records[request.request_id] = RequestRecord(request=request)
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
        engine = self.workers[record.worker_id].engine
        if request_id in engine.scheduler.parked_ids:
            engine.resume(request_id)
        # else: already resume-queued (e.g. by the automatic resume
        # pass) — the request IS coming back, which is what True means.
        return True

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
        first applies replaces it (latest publication wins).  A later
        :meth:`swap_drafter` supersedes it.
        """
        self._check_drafter(drafter)
        if not 0 <= worker_id < len(self.workers):
            raise ServingError(
                f"worker_id {worker_id} out of range "
                f"({len(self.workers)} workers)"
            )
        worker = self.workers[worker_id]
        self._roll = deque(
            entry for entry in self._roll
            if entry[2] or entry[0] is not worker
        )
        self._roll.append((worker, drafter, False))

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
            scheduler = worker.engine.scheduler
            for request, _waited in scheduler.steal_waiting(
                scheduler.num_waiting
            ):
                record = self.records.pop(request.request_id)
                self._note_group_resolved(record)
                withdrawn.append(record.request)
        gone = {request.request_id for request in withdrawn}
        if gone:
            self._arrivals = _without(self._arrivals, gone)
            self._deadlines = _without(self._deadlines, gone)
        return sorted(withdrawn, key=lambda r: r.request_id)

    # -- event loop --------------------------------------------------------

    def tick(self) -> None:
        """Run one discrete-event step (see module docstring)."""
        workers = self.open_tick()
        self.close_tick(workers, step_engines([w.engine for w in workers]))
        self.clock.advance()

    def open_tick(self) -> List[ServingWorker]:
        """Steps 1-5 of a tick; returns the workers with a cycle to run.

        :meth:`tick` hands their engines to one
        :func:`~repro.specdec.batch_engine.step_engines` call and their
        outcomes to :meth:`close_tick`; a fleet does the same with every
        replica's workers in one batch.
        """
        now = self.clock.now
        self._roll_step()
        self._place_arrivals()
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
        return [
            worker for worker in self.workers
            if worker.engine.scheduler.has_work
        ]

    def close_tick(
        self,
        workers: Sequence[ServingWorker],
        outcomes: Sequence[EngineStep],
    ) -> None:
        """Record the cycles :meth:`open_tick`'s workers ran and settle
        the swap roll (the clock is the caller's to advance)."""
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
        self._settle_roll()

    def report(self) -> ServingReport:
        """Aggregate the current records into a report.

        Counters are not named here: each worker's ledger is copied
        whole, and the report's totals are sums over the copies.
        """
        capacity = self.workers[0].engine.max_batch_size
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

    def _busy(self) -> bool:
        """Whether any request is pending, queued, running, or parked."""
        if any(w.engine.scheduler.has_work for w in self.workers):
            return True
        return any(
            r.state not in TERMINAL_STATES
            for r in self.records.values()
        )

    def _roll_children(self) -> List[ServingWorker]:
        return self.workers

    def _swap_child(
        self, worker: ServingWorker, drafter: Drafter, part_of_roll: bool
    ) -> bool:
        worker.engine.swap_drafter(drafter)
        if not part_of_roll:
            self.worker_swaps += 1
        return True

    def _resume_parked(self) -> None:
        """Resume parked requests on workers with capacity to spare.

        A worker resumes its oldest-parked request while it can seat
        every queued request AND every resume in flight — resumed slots
        re-enter ahead of the waiting FIFO at the next cycle, so
        resuming into contended capacity would starve queued urgent
        traffic (the opposite of what preemption bought).
        """
        for worker in self.workers:
            scheduler = worker.engine.scheduler
            # free_slots already nets out resume-queued slots, so each
            # resume shrinks it and the loop converges.
            while scheduler.num_parked and (
                scheduler.free_slots > scheduler.num_waiting
            ):
                worker.engine.resume(scheduler.parked_ids[0])

    def _place(self, request_id: int) -> bool:
        """Dispatch one due arrival to a worker (a pool never waits)."""
        record = self.records[request_id]
        if record.state is not RequestState.PENDING:
            return True  # cancelled before arrival
        request = record.request
        group = request.group if self.group_affinity else None
        worker = self._group_worker.get(group)  # sticky group first
        if worker is None:
            worker = self._choose(self.dispatch, request, self.workers)
        if group is not None:
            self._group_worker.setdefault(group, worker)
            self._group_pending[group] = self._group_pending.get(group, 0) + 1
        record.slot = worker.engine.scheduler.push(
            request,
            urgent=(
                self.preemption is not None
                and self.preemption.is_urgent(request)
            ),
        )
        record.worker_id = worker.worker_id
        record.dispatch_time = self.clock.now
        self._maybe_preempt(request, worker)
        return True

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
        scheduler = worker.engine.scheduler
        beneficiary = scheduler.waiting[effective].request
        live = [
            (slot.request, slot.request.max_new_tokens - len(slot.response))
            for slot in scheduler.live
        ]
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
        worker.engine.park(request_id, preempted=preempted)
        self.records[request_id].preemptions += 1

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
            self._arrivals = _without(self._arrivals, {request_id})
            record.pre_dispatch = to
            self.events.emit(
                RequestEventKind.EXPIRED if expire
                else RequestEventKind.CANCELLED,
                request_id, 0, now,
            )
        else:
            engine = self.workers[record.worker_id].engine
            (engine.expire if expire else engine.cancel)(request_id)
        record.finish_time = now
        self._note_group_resolved(record)


def _without(
    heap: List[Tuple[float, int]], gone: Set[int]
) -> List[Tuple[float, int]]:
    """``heap`` with every entry of a request id in ``gone`` removed."""
    kept = [entry for entry in heap if entry[1] not in gone]
    heapq.heapify(kept)
    return kept
