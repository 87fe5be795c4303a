"""The engine control plane: lifecycle events + admission policies.

The paper's mid-rollout dynamics need more than start / step / cancel:
an adaptively refreshed drafter must be deployed *without* stalling
decode, and SLO-aware scheduling must be able to *pause* a long-tail
request rather than kill it.
:class:`~repro.specdec.batch_engine.BatchedSpecDecodeEngine`
carries that lifecycle itself (``admit`` / ``cancel`` / ``expire`` /
``park`` / ``resume`` / ``swap_drafter``) and
:class:`~repro.serving.frontend.ServingWorker` drives it directly; this
module holds what the two layers share:

* :class:`RequestEvent` / :class:`RequestEventKind` — the lifecycle
  event stream.  Every transition (admitted, parked, resumed,
  preempted, swapped, finished, cancelled, expired) is emitted with the
  engine cycle it happened at and, when the engine is driven by the
  serving layer, the virtual-time stamp — the observability surface the
  preemption benchmarks and the closed-loop RL <-> serving work build
  on.
* :class:`AdmissionPolicy` — the pluggable QUEUED -> RUNNING edge,
  mirroring the serving layer's dispatch/preemption policies:
  :class:`FifoAdmission` is the byte-identical default,
  :class:`PrefixAwareAdmission` co-admits requests sharing a cached or
  in-flight prompt prefix (:class:`~repro.cache.manager.KVCacheManager`)
  into one wave so the engine issues one prefill launch per shared
  prefix instead of one per group member.

Park/resume semantics: parking stashes the live
slot whole — its committed tokens, its exact target hidden hand-off and
its private random stream — so a resumed sequence consumes randomness
and hidden state exactly where it left off.  The remaining tokens of a
parked-and-resumed request are therefore byte-identical to an
uninterrupted run, which is what makes preemption *free* correctness-
wise: it trades latency across requests without touching any output.

Hot-swap semantics: per-slot draft state is rebuilt from the target
hidden hand-off at the start of every cycle (``Drafter.begin``), so a
drafter carried no cross-cycle state the engine needs to migrate —
swapping between ``step()`` calls is cycle-boundary safe by
construction, and every live request simply continues under the new
drafter.  Committed-token *distribution* is unchanged (speculative
decoding is lossless w.r.t. the target); the realized tokens may differ
after the swap because acceptance consumes each request's stream against
different proposals.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only (import cycle guard:
    # the scheduler imports the admission surface defined below)
    from repro.cache.manager import KVCacheManager
    from repro.specdec.scheduler import SequenceRequest, SequenceSlot


class RequestEventKind(enum.Enum):
    """What happened to a request (or, for SWAPPED, to the engine)."""

    ADMITTED = "admitted"    # queued -> running (first time)
    PARKED = "parked"        # running -> parked (caller-initiated)
    PREEMPTED = "preempted"  # running -> parked (policy-initiated)
    RESUMED = "resumed"      # parked -> running (re-admitted)
    SWAPPED = "swapped"      # engine drafter replaced (request_id None)
    FINISHED = "finished"    # EOS or length cap
    CANCELLED = "cancelled"  # explicit cancellation
    EXPIRED = "expired"      # SLO deadline passed


@dataclass(frozen=True)
class RequestEvent:
    """One lifecycle transition on the control plane.

    Attributes:
        kind: the transition.
        request_id: the affected request (None for engine-wide events
            such as a drafter swap).
        cycle: the engine cycle counter when the event fired.
        time: virtual-clock stamp (None when the engine runs outside a
            serving front-end — batch RL rollouts have no clock).
        worker_id: serving worker that emitted the event (None outside
            a worker pool).
        replica_id: fleet replica whose pool emitted the event (stamped
            by :meth:`~repro.fleet.engine.FleetEngine` when it forwards
            replica events onto its merged stream; None outside a
            fleet).
    """

    kind: RequestEventKind
    request_id: Optional[int]
    cycle: int
    time: Optional[float] = None
    worker_id: Optional[int] = None
    replica_id: Optional[int] = None


class EventBus:
    """Ordered, subscribable stream of :class:`RequestEvent`.

    Emission order is the engine's execution order, which is
    deterministic under a fixed seed — the event trail is therefore as
    reproducible as the committed tokens.  Subscribers are invoked
    synchronously at emit time (the serving front-end subscribes one
    callback per worker to build its pool-wide merged trail).

    Attributes:
        worker_id: stamped onto every emitted event (set by the serving
            worker that owns the engine; None for standalone engines).
    """

    def __init__(self, worker_id: Optional[int] = None) -> None:
        self.worker_id = worker_id
        self._events: List[RequestEvent] = []
        self._subscribers: List[Callable[[RequestEvent], None]] = []

    def subscribe(
        self, callback: Callable[[RequestEvent], None]
    ) -> None:
        """Register a callback invoked synchronously on every emit."""
        self._subscribers.append(callback)

    def emit(
        self,
        kind: RequestEventKind,
        request_id: Optional[int],
        cycle: int,
        time: Optional[float] = None,
    ) -> RequestEvent:
        """Record an event and fan it out to subscribers."""
        event = RequestEvent(
            kind=kind,
            request_id=request_id,
            cycle=cycle,
            time=time,
            worker_id=self.worker_id,
        )
        self._events.append(event)
        for callback in self._subscribers:
            callback(event)
        return event

    def publish(self, event: RequestEvent) -> RequestEvent:
        """Record an already-built event and fan it out unchanged.

        The forwarding counterpart of :meth:`emit`: a layer merging
        streams from lower-level buses (the fleet tier re-publishing
        replica events stamped with their ``replica_id``) must not
        re-stamp the event with this bus's ``worker_id``.
        """
        self._events.append(event)
        for callback in self._subscribers:
            callback(event)
        return event

    @property
    def events(self) -> List[RequestEvent]:
        """Snapshot of every event emitted so far (emission order)."""
        return list(self._events)

    def of_kind(self, kind: RequestEventKind) -> List[RequestEvent]:
        """Events of one kind, in emission order."""
        return [e for e in self._events if e.kind is kind]

    def clear(self) -> None:
        """Drop recorded events (subscribers stay registered)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


# -- admission (the QUEUED -> RUNNING edge, made pluggable) --------------


@dataclass(frozen=True)
class AdmissionView:
    """Read-only snapshot the scheduler hands an admission policy.

    Attributes:
        waiting: the waiting queue in FIFO order (urgent lane first —
            the scheduler maintains that invariant at push time).
        capacity: free live slots this wave (resume-queued slots
            already subtracted); None means unbounded.
        live: live slots currently decoding (their ``request.prompt``
            is the in-flight prefix set).
        urgent: request ids in the urgent admission lane.
        cache: the engine's prefix cache, when one is attached (probe
            with ``covers_prompt``/``prompt_match`` — non-accounting,
            and keyed on the prompt's effective context).
        cycle: the scheduler's cycle counter.
    """

    waiting: Tuple["SequenceRequest", ...]
    capacity: Optional[int]
    live: Tuple["SequenceSlot", ...]
    urgent: frozenset = frozenset()
    cache: Optional["KVCacheManager"] = None
    cycle: int = 0

    @property
    def limit(self) -> int:
        """Requests admissible this wave (capacity clamped to queue)."""
        if self.capacity is None:
            return len(self.waiting)
        return min(self.capacity, len(self.waiting))


class AdmissionPolicy(abc.ABC):
    """Chooses WHICH waiting requests enter live slots each wave.

    The pluggable protocol on the scheduler's explicit QUEUED -> RUNNING
    edge, mirroring the serving layer's
    :class:`~repro.serving.dispatch.DispatchPolicy` /
    :class:`~repro.serving.dispatch.PreemptionPolicy`: the scheduler
    owns the *mechanics* of admission (slot creation, lifecycle
    transitions, wait accounting) and delegates the *selection* here.

    Because every request carries a private random stream and batched
    target rows are row-identical, admission order changes latency and
    prefill batching but never any request's committed tokens (under a
    static strategy) — which is what lets a policy reorder admissions
    to coalesce shared-prefix prefills without touching outputs.

    Contract: :meth:`select` returns indices into ``view.waiting`` —
    unique, in admission order, at most ``view.limit`` of them.  The
    scheduler validates and raises on violations.  Returning fewer than
    ``view.limit`` indices deliberately leaves slots empty this wave
    (legal, but a policy that starves the queue will stall the engine —
    always admit the FIFO head when nothing better exists).
    """

    #: Label used in reports and benchmark tables.
    name: str = "admission"

    @abc.abstractmethod
    def select(self, view: AdmissionView) -> List[int]:
        """Indices of the waiting requests to admit, in order."""


class FifoAdmission(AdmissionPolicy):
    """Strict queue-order admission (the default).

    Takes from the front while capacity remains.  The urgent lane is
    already at the queue front, so urgent arrivals keep their priority.
    """

    name = "fifo"

    def select(self, view: AdmissionView) -> List[int]:
        return list(range(view.limit))


class PrefixAwareAdmission(AdmissionPolicy):
    """Co-admit requests sharing a cached or in-flight prompt prefix.

    Grouped GRPO rollouts share their prompt by construction, yet FIFO
    admission can scatter a group across admission waves — each member
    then pays its own prefill launch.  This policy pulls waiting
    requests whose prompt matches an *anchor* — a request already
    selected this wave, a live slot's prompt, or a cached prefix —
    forward into the same wave, so the engine's prefill stage
    coalesces them into one launch per shared prefix.  Only *exact*
    prompt matches count as sharers — the matches the prefill stage can
    coalesce into one launch (the hidden hand-off depends on every
    prompt token) — so co-admission never reorders the queue without a
    prefill saving to show for it.

    Fairness invariants:

    * urgent-lane requests are admitted first, in FIFO order, before
      any prefix pull-forward — prefix batching must never delay
      latency-critical traffic;
    * the FIFO head is admitted unconditionally every wave (a
      unique-prompt request at the head can never be starved by a
      stream of later-queued sharers), remaining capacity prefers the
      earliest-queued prefix-sharer, and with no sharers the policy
      degrades to FIFO exactly.
    """

    name = "prefix-aware"

    def select(self, view: AdmissionView) -> List[int]:
        limit = view.limit
        if not limit:
            return []
        waiting = view.waiting
        prompts = [tuple(request.prompt) for request in waiting]
        selected: List[int] = []
        remaining = list(range(len(waiting)))
        # 1) Urgent lane first, strictly FIFO (it sits at the front).
        while (
            remaining
            and len(selected) < limit
            and waiting[remaining[0]].request_id in view.urgent
        ):
            selected.append(remaining.pop(0))
        # 2) Anchors: this wave's picks + in-flight prompts; the cache
        #    is probed directly (it already indexes its own prefixes).
        anchors = [prompts[index] for index in selected]
        anchors.extend(tuple(slot.request.prompt) for slot in view.live)

        def shares(prompt: Tuple[int, ...]) -> bool:
            if view.cache is not None and view.cache.covers_prompt(prompt):
                return True
            return any(anchor == prompt for anchor in anchors)

        # 3) The FIFO head goes unconditionally (starvation guard: a
        #    unique-prompt head must not be passed over forever by a
        #    stream of later-queued sharers)...
        if remaining and len(selected) < limit:
            head = remaining.pop(0)
            selected.append(head)
            anchors.append(prompts[head])
        # 4) ...then fill: earliest prefix-sharer, else FIFO order.
        while remaining and len(selected) < limit:
            pick = None
            for index in remaining:
                if shares(prompts[index]):
                    pick = index
                    break
            if pick is None:
                pick = remaining[0]
            remaining.remove(pick)
            selected.append(pick)
            anchors.append(prompts[pick])
        return selected
