"""Request scheduling for the batched speculative generation engine.

Continuous batching is a scheduling problem before it is a decoding
problem: requests wait in FIFO order (with an *urgent lane* jumping
latency-critical arrivals ahead of background backlog — see
:meth:`ContinuousBatchScheduler.push`), are admitted into a bounded pool
of live slots, decode for some number of draft/verify cycles, and retire
on EOS or at their length cap — freeing the slot for the next waiting
request.  This module owns that lifecycle so the decode engine
(:mod:`repro.specdec.batch_engine`) can focus on the per-cycle math.

WHICH waiting requests go live each wave is delegated to a pluggable
:class:`~repro.specdec.control.AdmissionPolicy` (the QUEUED -> RUNNING
edge made explicit): :class:`~repro.specdec.control.FifoAdmission`
takes the front of the queue and is the default;
:class:`~repro.specdec.control.PrefixAwareAdmission` co-admits
requests sharing a cached or in-flight prompt prefix so the engine's
prefill stage coalesces them into one launch per shared prefix.

Since the serving front-end (:mod:`repro.serving`) drives engines
cycle-at-a-time, the scheduler also supports the *online* lifecycle:
requests can be :meth:`~ContinuousBatchScheduler.push`-ed while decoding
is underway, :meth:`~ContinuousBatchScheduler.cancel`-led (mid-decode or
while still waiting), and waiting requests can be
:meth:`~ContinuousBatchScheduler.steal_waiting`-ed by another worker's
scheduler for load balancing.

A request has ONE record per scheduler — its :class:`SequenceSlot`,
created at :meth:`~ContinuousBatchScheduler.push` and dropped only when
the request is stolen.  Lifecycle state, queue stamps, the urgent flag
and the engine's cache pin all live on it; the waiting / live / parked /
resume containers only order the slots that are in those states.

Every request walks one explicit state machine, :class:`RequestState`
— the same enum a slot carries here and a serving pool's
:class:`~repro.serving.metrics.RequestRecord` reads through its slot::

    PENDING ──dispatch──▶ QUEUED ──admit──▶ RUNNING ──park──▶ PARKED
                                               ▲                │
                                               └─────resume─────┘
    {PENDING, QUEUED, RUNNING, PARKED} ──▶ FINISHED | CANCELLED | EXPIRED

PENDING belongs to the pool (submitted, not yet dispatched to any
worker); a scheduler's slot is born QUEUED at :meth:`push`.  FINISHED
is reached only from RUNNING.  Illegal transitions raise —
:meth:`~ContinuousBatchScheduler.park` of a queued request,
:meth:`~ContinuousBatchScheduler.resume` of a running one, anything out
of a terminal state.  Parking stashes the live slot whole
(committed tokens, target hidden hand-off, private random stream), so a
resumed sequence's remaining tokens are byte-identical to an
uninterrupted run; resumed slots re-enter ahead of the waiting FIFO at
the next admission wave, capacity permitting.  EXPIRED is the
deadline-driven sibling of CANCELLED: same mechanics, kept distinct so
SLO accounting can tell an operator's cancel from a missed deadline.

Each request carries its *own* random generator stream: the slot derives
it from ``request.seed`` at :meth:`~ContinuousBatchScheduler.push`
(batch runs draw the seeds from the caller's master generator).  That is
what makes the committed tokens
independent of scheduling: a sequence draws the same randomness whether it
decodes alone (``max_batch_size=1``) or interleaved with an arbitrary set
of neighbours, so batched and sequential execution are token-for-token
identical under a fixed seed.  The same property makes cancellation
non-perturbing: retiring one slot never touches any survivor's stream.

There is one request type, the serving pool's :class:`ServingRequest`
(defined here, next to :class:`RequestState`): the object a pool's
record holds is the object its slot holds.

The per-cycle :class:`BatchCycleReport` trail is the engine's contact
surface with the adaptive layer: it records the live-batch size the
:class:`~repro.rollout.adaptive.AdaptiveSdManager` saw, which strategy ran
and what it committed, plus the queue depth and admission waiting times
that the serving layer's dispatch policies act on.  A cycle's queue
depth is recorded there only (``BatchCycleReport.queue_depth``); the
run-wide :class:`~repro.specdec.metrics.SdRunMetrics` keeps the cycle
stats and each admitted request's wait.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.errors import ConfigError, SpecDecodeError
from repro.llm.vocab import BOS_ID
from repro.specdec.control import (
    AdmissionPolicy,
    AdmissionView,
    FifoAdmission,
)
from repro.specdec.strategy import SdStrategy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cache.manager import KVCacheManager


class RequestState(enum.Enum):
    """Lifecycle state of one request: the one enum a slot, a pool's
    record and every consumer read."""

    PENDING = "pending"      # submitted to a pool, not yet dispatched
    QUEUED = "queued"        # queued on a scheduler, not yet admitted
    RUNNING = "running"      # decoding in a live slot
    PARKED = "parked"        # suspended mid-decode, slot stashed
    FINISHED = "finished"    # EOS or length cap
    CANCELLED = "cancelled"  # explicit cancellation
    EXPIRED = "expired"      # deadline expiry


#: Legal lifecycle transitions; anything else raises SpecDecodeError.
#: PENDING is the pool's (a scheduler's slots start QUEUED).
_TRANSITIONS: Dict[RequestState, frozenset] = {
    RequestState.PENDING: frozenset(
        {RequestState.QUEUED, RequestState.CANCELLED, RequestState.EXPIRED}
    ),
    RequestState.QUEUED: frozenset(
        {RequestState.RUNNING, RequestState.CANCELLED, RequestState.EXPIRED}
    ),
    RequestState.RUNNING: frozenset(
        {
            RequestState.PARKED,
            RequestState.FINISHED,
            RequestState.CANCELLED,
            RequestState.EXPIRED,
        }
    ),
    RequestState.PARKED: frozenset(
        {RequestState.RUNNING, RequestState.CANCELLED, RequestState.EXPIRED}
    ),
    RequestState.FINISHED: frozenset(),
    RequestState.CANCELLED: frozenset(),
    RequestState.EXPIRED: frozenset(),
}

#: States nothing leaves (a tuple: ``in`` compares by identity, where
#: a set would call ``Enum.__hash__`` once per live slot per cycle).
TERMINAL_STATES = tuple(
    state for state, exits in _TRANSITIONS.items() if not exits
)


@dataclass(frozen=True)
class SloClass:
    """A service-level objective class.

    Targets are in virtual-clock ticks (decode cycles — see
    :mod:`repro.serving.clock`).

    Attributes:
        name: class label used in reports.
        ttft_target: time-to-first-token target.
        latency_target: end-to-end completion-latency target.
        deadline: optional hard deadline after arrival; the front-end
            cancels the request once it is this old and still unfinished
            (None = never auto-cancel).
    """

    name: str
    ttft_target: float
    latency_target: float
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("SLO class name must be non-empty")
        if self.ttft_target <= 0:
            raise ConfigError("ttft_target must be positive")
        if self.latency_target <= 0:
            raise ConfigError("latency_target must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError("deadline must be positive when set")


#: Latency-critical traffic (chat-style): tight TTFT and completion.
INTERACTIVE = SloClass("interactive", ttft_target=4.0, latency_target=48.0)
#: Default traffic class.
STANDARD = SloClass("standard", ttft_target=8.0, latency_target=96.0)
#: Throughput-oriented background traffic (RL rollouts, evals).
BATCH = SloClass("batch", ttft_target=32.0, latency_target=384.0)


@dataclass
class ServingRequest:
    """One generation request, from a pool's records down to the slot
    that decodes it (batch runs build them too, at arrival time 0).

    Attributes:
        request_id: unique id; the caller's prompt-list position for
            batch runs, a globally unique id for online requests.
        prompt: prompt token ids (no BOS: the slot prepends it).
        max_new_tokens: response-length cap.
        arrival_time: virtual time at which the request arrives.
        slo: the request's SLO class.
        predicted_length: predicted response length for dispatch (the
            cap is used when None — a perfect-oracle predictor).
        seed: seed of the request's private random stream.
        group: optional group tag.  GRPO rollout groups share one tag so
            the front-end can route a whole group to one worker
            (``group_affinity``) — grouped rollouts share their prompt
            by construction, which is what
            :class:`~repro.specdec.control.PrefixAwareAdmission` turns
            into one prefill launch per group.  None means ungrouped
            (ordinary traffic).
        segment: optional workload-segment label (length/prompt family).
            The engine counts a tagged request's accepted/drafted tokens
            per segment on its ledger, and segment-affinity dispatch
            can route it to the worker hosting the drafter specialized
            for the segment (the drafter-zoo path).  None means
            unsegmented.
    """

    request_id: int
    prompt: List[int]
    max_new_tokens: int
    arrival_time: float
    slo: SloClass = STANDARD
    predicted_length: Optional[int] = None
    seed: int = 0
    group: Optional[int] = None
    segment: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ConfigError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        if self.arrival_time < 0:
            raise ConfigError(
                f"arrival_time must be >= 0, got {self.arrival_time}"
            )
        if (
            self.predicted_length is not None
            and self.predicted_length < 1
        ):
            raise ConfigError("predicted_length must be >= 1 when set")

    @property
    def dispatch_length(self) -> int:
        """Length estimate the dispatcher plans with."""
        if self.predicted_length is not None:
            return self.predicted_length
        return self.max_new_tokens


@dataclass
class SequenceSlot:
    """Everything one worker knows about one request it owns.

    Created when the request is pushed and kept until it is stolen;
    the scheduler, the engine and the serving worker each write their
    per-request facts here instead of in id-keyed tables of their own.
    At creation the slot derives what decoding needs from the request:
    the BOS-prefixed prompt and the private stream
    ``default_rng(request.seed)``.  Once the slot is terminal and its
    terminal event is out, :meth:`release` sets ``sequence``, ``rng``,
    ``hidden`` and ``cache_key`` to None; what stays is what records,
    results and the rollout scheduler read.

    Attributes:
        request: the request this slot belongs to (a pool's record
            holds the same object).
        prompt: BOS + the request's prompt tokens (set at creation).
        sequence: prompt + committed tokens.
        rng: the request's private random stream (set at creation).
        response: committed response tokens (terminal EOS included).
        hidden: exact target hidden stack (num_layers, hidden_size) at the
            second-to-last position — the drafter hand-off.
        done: True once EOS was committed.
        state: the request's lifecycle state on this scheduler.
        urgent: True while the request waits in the urgent admission
            lane.
        since: scheduler cycle the current QUEUED or PARKED spell
            began (net of cycles already waited on a donor scheduler).
        wait_cycles: scheduler cycles the request spent in the waiting
            queue before admission.
        parked_cycles: scheduler cycles the request spent parked
            (accumulated across park/resume rounds).
        cache_key: prefix-cache key the engine pinned for this slot at
            prefill (None when there was nothing to pin or the pin was
            rejected).
        cache_pinned: whether the slot holds a ref on ``cache_key``
            right now (released while parked, re-taken at resume).
    """

    request: ServingRequest
    response: List[int] = field(default_factory=list, init=False)
    hidden: Optional[np.ndarray] = field(default=None, init=False)
    done: bool = field(default=False, init=False)
    state: RequestState = field(default=RequestState.QUEUED, init=False)
    urgent: bool = False
    since: int = 0
    wait_cycles: int = field(default=0, init=False)
    parked_cycles: int = field(default=0, init=False)
    cache_key: Optional[Tuple[int, ...]] = field(default=None, init=False)
    cache_pinned: bool = field(default=False, init=False)
    prompt: Tuple[int, ...] = field(init=False)
    sequence: Optional[List[int]] = field(init=False)
    rng: Optional[np.random.Generator] = field(init=False)

    def __post_init__(self) -> None:
        self.prompt = (BOS_ID, *map(int, self.request.prompt))
        self.sequence = list(self.prompt)
        self.rng = np.random.default_rng(self.request.seed)

    def release(self) -> None:
        """Drop the decode-time state no reader touches once the slot
        is terminal (the engine calls it after the terminal event)."""
        self.sequence = self.rng = self.hidden = self.cache_key = None

    @property
    def cancelled(self) -> bool:
        """Whether the request was cancelled (the partial response up
        to the cancellation boundary is retained)."""
        return self.state is RequestState.CANCELLED

    @property
    def expired(self) -> bool:
        """Whether the request was retired by deadline expiry
        (mechanically a cancellation; kept distinct for SLO
        accounting)."""
        return self.state is RequestState.EXPIRED

    @property
    def finished(self) -> bool:
        """Whether this slot should retire (EOS, cap, or already
        terminal: cancelled / expired)."""
        return (
            self.done
            or len(self.response) >= self.request.max_new_tokens
            or self.state in TERMINAL_STATES
        )

    def commit(self, tokens: List[int], eos_id: int) -> int:
        """Append committed tokens, truncating at EOS and the length cap.

        Returns the number of tokens actually committed.
        """
        committed = 0
        for token in tokens:
            self.response.append(token)
            self.sequence.append(token)
            committed += 1
            if token == eos_id:
                self.done = True
                break
            if len(self.response) >= self.request.max_new_tokens:
                break
        return committed


@dataclass(frozen=True)
class BatchCycleReport:
    """One engine cycle as seen by the adaptive and serving layers.

    Attributes:
        index: cycle number (0-based, admission waves included).
        live_batch: sequences decoding in this cycle.
        admitted: requests admitted from the waiting queue before it.
        resumed: parked requests re-admitted into live slots before it.
        retired: sequences that finished during it.
        sd_active: whether this cycle ran speculative decoding.
        strategy: the SD strategy used (None for vanilla cycles).
        committed_tokens: tokens committed across the batch.
        drafted_tokens: draft tokens submitted for verification.
        verify_rows: rows in the batched target forward.
        queue_depth: requests still waiting after this cycle's admission.
        mean_wait_cycles: mean cycles the requests admitted before this
            cycle spent waiting (0.0 when nothing was admitted).
        draft_launches: batched drafter launches issued by this cycle's
            tree build (0 for vanilla cycles).
        draft_launches_saved: drafter launches avoided versus per-node
            drafting of the same trees.
    """

    index: int
    live_batch: int
    admitted: int
    retired: int
    sd_active: bool
    strategy: Optional[SdStrategy]
    committed_tokens: int
    drafted_tokens: int
    verify_rows: int
    queue_depth: int = 0
    mean_wait_cycles: float = 0.0
    resumed: int = 0
    draft_launches: int = 0
    draft_launches_saved: int = 0


class ContinuousBatchScheduler:
    """Policy-driven admission into a bounded pool of live decoding slots.

    Args:
        requests: generation requests in submission order (more can be
            :meth:`push`-ed later).
        max_batch_size: live-slot capacity (None = unbounded, i.e. every
            request decodes from cycle one; 1 = fully sequential).
        admission: the :class:`~repro.specdec.control.AdmissionPolicy`
            selecting WHICH waiting requests enter free slots each wave
            (:class:`~repro.specdec.control.FifoAdmission`, the front
            of the queue, when omitted).
        cache: optional per-worker prefix cache exposed to the
            admission policy through its view (the scheduler itself
            never touches it — prefill reuse lives in the engine).
    """

    def __init__(
        self,
        requests: Sequence[ServingRequest] = (),
        max_batch_size: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        cache: Optional["KVCacheManager"] = None,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise SpecDecodeError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if admission is not None and not isinstance(
            admission, AdmissionPolicy
        ):
            raise SpecDecodeError(
                f"admission must be an AdmissionPolicy, "
                f"got {type(admission)!r}"
            )
        self.max_batch_size = max_batch_size
        self.admission: AdmissionPolicy = admission or FifoAdmission()
        self.cache = cache
        #: request_id -> the request's one record here, in submission
        #: order.  The four containers below only ORDER the non-terminal
        #: ones; every per-request fact lives on the slot.
        self._slots: Dict[int, SequenceSlot] = {}
        self.waiting: Deque[SequenceSlot] = deque()
        self.live: List[SequenceSlot] = []
        self.parked: Dict[int, SequenceSlot] = {}  # insertion = park order
        self._resuming: Deque[SequenceSlot] = deque()
        self._cycle = 0
        for request in requests:
            self.push(request)

    # -- state -------------------------------------------------------------

    @property
    def num_live(self) -> int:
        """Sequences currently decoding."""
        return len(self.live)

    @property
    def num_waiting(self) -> int:
        """Requests not yet admitted."""
        return len(self.waiting)

    @property
    def num_parked(self) -> int:
        """Requests suspended mid-decode (resume queue excluded)."""
        return len(self.parked)

    @property
    def num_resuming(self) -> int:
        """Parked requests queued for re-admission."""
        return len(self._resuming)

    @property
    def parked_ids(self) -> List[int]:
        """Parked request ids in park order (resume queue excluded)."""
        return list(self.parked)

    @property
    def resuming_slots(self) -> List[SequenceSlot]:
        """Slots queued for re-admission, in resume order.

        These occupy neither the live pool nor the parked stash, but
        they WILL take live slots ahead of the waiting FIFO at the next
        admission wave — load accounting must count them.
        """
        return list(self._resuming)

    @property
    def free_slots(self) -> int:
        """Live slots a NEWLY queued request could take next cycle.

        Resume-queued slots are subtracted: they re-enter the live pool
        ahead of the waiting FIFO at the next admission wave, so a slot
        they will take is not free to anyone else.  Admission, dispatch,
        work stealing and the preemption trigger all read this (an
        unbounded pool reports an effectively infinite 1 000 000).
        """
        limit = (
            1_000_000 if self.max_batch_size is None
            else self.max_batch_size
        )
        return max(0, limit - len(self.live) - len(self._resuming))

    @property
    def has_work(self) -> bool:
        """Whether any request is live, waiting, or queued to resume.

        Parked requests are deliberately NOT work: the engine cannot
        progress them until someone resumes (or cancels) them.
        """
        return (
            bool(self.live) or bool(self.waiting) or bool(self._resuming)
        )

    @property
    def cycle(self) -> int:
        """The scheduler's cycle counter (advanced by :meth:`tick`)."""
        return self._cycle

    def _slot(self, request_id: int) -> SequenceSlot:
        try:
            return self._slots[request_id]
        except KeyError:
            raise SpecDecodeError(
                f"unknown request_id {request_id}"
            ) from None

    def state(self, request_id: int) -> RequestState:
        """The request's lifecycle state (raises for unknown ids)."""
        return self._slot(request_id).state

    def _transition(
        self, slot: SequenceSlot, to: RequestState
    ) -> None:
        """Apply a lifecycle transition, rejecting illegal edges."""
        if to not in _TRANSITIONS[slot.state]:
            raise SpecDecodeError(
                f"illegal lifecycle transition {slot.state.value} -> "
                f"{to.value} for request {slot.request.request_id}"
            )
        slot.state = to

    def _urgent_lane(self) -> int:
        """Length of the waiting queue's leading urgent run.

        Urgent requests are only ever inserted at the end of that run
        and removals keep queue order, so the run IS the urgent lane.
        """
        count = 0
        for slot in self.waiting:
            if not slot.urgent:
                break
            count += 1
        return count

    # -- lifecycle ---------------------------------------------------------

    def push(
        self,
        request: ServingRequest,
        waited: int = 0,
        urgent: bool = False,
    ) -> SequenceSlot:
        """Append a request to the waiting queue (online admission).

        Args:
            request: the request to enqueue.
            waited: cycles the request already waited elsewhere (set by
                work stealing so admission waits accumulate across the
                donor and receiver schedulers).
            urgent: enter the urgent admission lane — the request is
                queued ahead of every non-urgent waiting request (FIFO
                among urgent ones), so latency-critical traffic never
                queues behind a BATCH backlog.  The serving layer sets
                this from the preemption policy's urgency test; plain
                batch decoding never does.

        Returns:
            The request's new QUEUED slot (a serving pool's record
            reads its state and response through it).
        """
        request_id = request.request_id
        if request_id in self._slots:
            raise SpecDecodeError(
                f"duplicate request_id {request_id} pushed to scheduler"
            )
        slot = self._slots[request_id] = SequenceSlot(
            request=request,
            urgent=urgent,
            since=self._cycle - int(waited),
        )
        if urgent:
            self.waiting.insert(self._urgent_lane(), slot)
        else:
            self.waiting.append(slot)
        return slot

    def _capacity_free(self) -> bool:
        return (
            self.max_batch_size is None
            or len(self.live) < self.max_batch_size
        )

    def readmit_parked(self) -> List[SequenceSlot]:
        """Re-admit resumed slots into the live pool, returning them.

        Resumed slots take priority over the waiting FIFO (they already
        hold committed tokens and a warm hidden hand-off; making them
        wait behind fresh admissions would stall mid-flight sequences
        behind prefill work), but still respect the slot capacity.
        Called by the engine at the top of every cycle, before
        :meth:`admit`.
        """
        readmitted: List[SequenceSlot] = []
        while self._resuming and self._capacity_free():
            slot = self._resuming.popleft()
            slot.parked_cycles += self._cycle - slot.since
            self._transition(slot, RequestState.RUNNING)
            self.live.append(slot)
            readmitted.append(slot)
        return readmitted

    def admit(self) -> List[SequenceSlot]:
        """Move policy-selected waiting requests into free slots.

        The admission policy picks WHICH waiting requests go live this
        wave and in what order; this method owns the mechanics:
        capacity accounting, wait bookkeeping, and the lifecycle
        transition.

        Slots that a queued resume will take are NOT free to the
        waiting FIFO (:attr:`free_slots`): resumed sequences re-enter
        ahead of fresh admissions by contract, so admission reserves
        their capacity even when :meth:`readmit_parked` has not run yet
        this cycle.
        """
        if not self.waiting:
            return []
        capacity: Optional[int] = None
        if self.max_batch_size is not None:
            capacity = self.free_slots
            if capacity == 0:
                return []
        view = AdmissionView(
            waiting=tuple(self.waiting),
            capacity=capacity,
            live=tuple(self.live),
            cache=self.cache,
            cycle=self._cycle,
        )
        indices = list(self.admission.select(view))
        chosen: set = set()
        for index in indices:
            if not 0 <= index < len(view.waiting):
                raise SpecDecodeError(
                    f"admission policy {self.admission.name!r} selected "
                    f"index {index} of {len(view.waiting)} waiting"
                )
            if index in chosen:
                raise SpecDecodeError(
                    f"admission policy {self.admission.name!r} selected "
                    f"index {index} twice"
                )
            chosen.add(index)
        if capacity is not None and len(indices) > capacity:
            raise SpecDecodeError(
                f"admission policy {self.admission.name!r} selected "
                f"{len(indices)} requests for {capacity} free slots"
            )
        self.waiting = deque(
            slot
            for index, slot in enumerate(view.waiting)
            if index not in chosen
        )
        admitted: List[SequenceSlot] = []
        for index in indices:
            slot = view.waiting[index]
            slot.urgent = False
            slot.wait_cycles = self._cycle - slot.since
            self._transition(slot, RequestState.RUNNING)
            self.live.append(slot)
            admitted.append(slot)
        return admitted

    def park(self, request_id: int) -> SequenceSlot:
        """Suspend a live request at the cycle boundary.

        The slot is stashed whole — committed tokens, the exact target
        hidden hand-off, and the request's private random stream — so a
        later :meth:`resume` continues decoding byte-identically to an
        uninterrupted run.  Only RUNNING requests can be parked; anything
        else raises (the state machine is explicit on purpose).

        Returns:
            The parked slot (still owned by this scheduler).
        """
        slot = self._slot(request_id)
        if slot.state is not RequestState.RUNNING:
            raise SpecDecodeError(
                f"park() requires a RUNNING request; {request_id} is "
                f"{slot.state.value}"
            )
        self._transition(slot, RequestState.PARKED)
        self.live.remove(slot)
        self.parked[request_id] = slot
        slot.since = self._cycle
        return slot

    def resume(self, request_id: int) -> None:
        """Queue a parked request for re-admission.

        The slot re-enters the live pool through :meth:`readmit_parked`
        at the next admission wave (ahead of the waiting FIFO), capacity
        permitting.  Resuming a request that is not parked raises.
        """
        slot = self.parked.pop(request_id, None)
        if slot is None:
            state = self.state(request_id)
            detail = (
                "already resuming"
                if state is RequestState.PARKED
                else state.value
            )
            raise SpecDecodeError(
                f"resume() requires a PARKED request; {request_id} is "
                f"{detail}"
            )
        self._resuming.append(slot)

    def tick(self) -> None:
        """Advance the cycle counter (called once per engine cycle)."""
        self._cycle += 1

    def retire_finished(self) -> List[SequenceSlot]:
        """Remove finished slots from the live pool, returning them."""
        retired = [slot for slot in self.live if slot.finished]
        if retired:
            self.live = [s for s in self.live if not s.finished]
            for slot in retired:
                self._transition(slot, RequestState.FINISHED)
        return retired

    def cancel(self, request_id: int) -> Optional[SequenceSlot]:
        """Cancel a waiting, live, or parked request at the cycle boundary.

        A live slot is removed from the pool immediately (its partial
        response is retained on the returned slot); a parked or resuming
        slot retires with whatever it had committed before parking; a
        waiting request retires with an empty response.  Because every
        request owns a private random stream and batched target rows are
        row-identical, cancelling one request never perturbs any
        survivor's committed tokens.

        Returns:
            The cancelled slot, or None when the request is unknown or
            already finished.
        """
        return self._terminate(request_id, RequestState.CANCELLED)

    def expire(self, request_id: int) -> Optional[SequenceSlot]:
        """Retire a request as deadline-expired (cancel's SLO sibling).

        Identical mechanics to :meth:`cancel`; the lifecycle lands on
        EXPIRED, so SLO accounting can distinguish a missed deadline
        from an operator cancel.
        """
        return self._terminate(request_id, RequestState.EXPIRED)

    def _terminate(
        self, request_id: int, to: RequestState
    ) -> Optional[SequenceSlot]:
        slot = self._slots.get(request_id)
        if slot is None or slot.state in TERMINAL_STATES:
            return None
        if slot.state is RequestState.QUEUED:
            self.waiting.remove(slot)
            slot.urgent = False
        elif slot.state is RequestState.RUNNING:
            self.live.remove(slot)
        else:  # PARKED: in the stash or already queued to resume
            if self.parked.pop(request_id, None) is None:
                self._resuming.remove(slot)
            slot.parked_cycles += self._cycle - slot.since
        self._transition(slot, to)
        return slot

    def steal_waiting(
        self, count: int = 1
    ) -> List[Tuple[ServingRequest, int]]:
        """Give up to ``count`` waiting requests to another scheduler.

        Requests are taken from the *back* of the queue (most recently
        enqueued) so the FIFO order of long-waiting requests is preserved
        on the donor.  Stolen requests are fully disowned: their slots
        are dropped, they disappear from this scheduler's result order,
        and they must be ``push``-ed to the stealing worker's scheduler.
        A queued request has drawn nothing from its stream, so the
        receiver's new slot derives an identical one.

        Returns:
            ``(request, waited)`` pairs — ``waited`` is the cycles the
            request spent queued here, to be passed to the receiving
            scheduler's :meth:`push` so admission waits accumulate.
        """
        if count < 0:
            raise SpecDecodeError(f"count must be >= 0, got {count}")
        stolen: List[Tuple[ServingRequest, int]] = []
        while self.waiting and len(stolen) < count:
            slot = self.waiting.pop()
            del self._slots[slot.request.request_id]
            stolen.append((slot.request, self._cycle - slot.since))
        stolen.reverse()
        return stolen

    def results(self) -> List[SequenceSlot]:
        """Finished slots in submission order (call when work is drained).

        Cancelled and expired requests appear in order, in that state,
        with whatever partial response they had committed.  A parked
        request is neither work nor a result — the caller must resume or
        cancel it first, so a forgotten parked request fails loudly here
        instead of silently vanishing from the output.
        """
        if self.has_work:
            raise SpecDecodeError(
                "results() requires a drained scheduler "
                f"({self.num_live} live, {self.num_waiting} waiting)"
            )
        if self.parked:
            raise SpecDecodeError(
                "results() with requests still parked "
                f"({sorted(self.parked)}); resume or cancel them first"
            )
        return list(self._slots.values())
