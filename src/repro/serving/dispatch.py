"""SLO-aware multi-worker dispatch policies and work stealing.

The dispatcher decides which worker an arriving request joins.  Because
every request carries its own random stream, routing is *free* to be
smart: it changes latency and SLO attainment but never the committed
tokens.  Six policies span the design space the long-tail papers argue
about:

* :class:`RoundRobinDispatch` — the placement-oblivious baseline.
* :class:`LeastLoadedDispatch` — joins the worker with the smallest
  *predicted* outstanding work (live remaining + queued predicted
  tokens), the classic join-shortest-queue improvement made
  distribution-aware through the per-request length predictions.
* :class:`LongTailDispatch` — segregates predicted-long requests onto
  dedicated tail workers so a 30k-token straggler never heads-of-line
  blocks a stream of short interactive requests (DARTS-style length-
  distribution shaping).
* :class:`PrefixAffinityDispatch` — routes arrivals to the worker whose
  prefix cache (or in-flight requests) already holds the longest shared
  prefix of their prompt, so prefills land as cache hits — the
  dispatch-side half of the prefix-cache subsystem (:mod:`repro.cache`).
* :class:`SegmentAffinityDispatch` — routes segment-tagged arrivals to
  the worker hosting their segment's specialist drafter (the drafter
  zoo's placement map).
* :class:`PreemptionAwareDispatch` — when the whole pool is saturated,
  routes urgent arrivals to the worker whose cheapest preemption victim
  has the fewest remaining tokens, minimising what a park costs.

:func:`steal_work` rebalances *queued* (not yet admitted) requests from
backlogged workers onto workers with free slots between cycles.
Stealing preserves determinism for the
same reason dispatch does: a waiting request's private stream has not
been consumed yet, so it decodes identically wherever it lands.

:class:`PreemptionPolicy` goes one step further than routing: it acts on
*live* requests.  When an urgent arrival would otherwise queue behind a
full worker (and so miss its SLO), :class:`SloPreemption` picks the
longest-backlog low-urgency victim — canonically a BATCH-class RL
rollout — to **park**: the victim's slot is stashed whole (tokens,
hidden hand-off, random stream) by the engine's ``park``, the urgent
request takes the freed slot, and the victim resumes byte-identically
once capacity frees up.  Preemption therefore trades latency *across* SLO
classes without touching a single committed token.

Policies duck-type their ``workers`` argument against the serving
front-end's :class:`~repro.serving.frontend.ServingWorker` surface
(``num_live``, ``num_waiting``, ``free_slots``, ``backlog_tokens``,
``steal``, ``enqueue``, ``prefix_match``, ``park_cost``).
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.serving.request import ServingRequest
from repro.specdec.scheduler import SequenceSlot


class DispatchPolicy(abc.ABC):
    """Chooses the worker an arriving request is routed to."""

    #: Label used in reports and benchmark tables.
    name: str = "dispatch"

    @abc.abstractmethod
    def choose(
        self, request: ServingRequest, workers: Sequence
    ) -> int:
        """Return the index of the worker ``request`` should join."""

    def _validate(self, workers: Sequence) -> None:
        if not workers:
            raise ConfigError("dispatch requires at least one worker")


class RoundRobinDispatch(DispatchPolicy):
    """Cyclic placement, oblivious to load and length (the baseline)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request: ServingRequest, workers: Sequence) -> int:
        self._validate(workers)
        index = self._next % len(workers)
        self._next += 1
        return index


class LeastLoadedDispatch(DispatchPolicy):
    """Join the worker with the least predicted outstanding work.

    Load is measured in predicted tokens still to decode (live slots'
    remaining caps + queued requests' predicted lengths), so one
    predicted-30k-token request weighs as much as a hundred short ones —
    which is the point: request *count* is a poor load proxy under a
    long-tail length distribution.
    """

    name = "least-loaded"

    def choose(self, request: ServingRequest, workers: Sequence) -> int:
        self._validate(workers)
        return min(
            range(len(workers)),
            key=lambda i: (workers[i].backlog_tokens, i),
        )


class LongTailDispatch(DispatchPolicy):
    """Segregate predicted-long requests onto dedicated tail workers.

    Workers are split into a head group (short requests) and a tail
    group (the last ``ceil(tail_fraction * N)`` workers).  Requests with
    ``dispatch_length >= threshold`` go to the tail group, the rest to
    the head group; within a group the least-backlogged worker wins.
    With one worker both groups collapse onto it.

    Args:
        threshold: predicted length at which a request counts as tail.
        tail_fraction: fraction of workers reserved for tail requests.
    """

    name = "long-tail"

    def __init__(
        self, threshold: int, tail_fraction: float = 0.5
    ) -> None:
        if threshold < 1:
            raise ConfigError(f"threshold must be >= 1, got {threshold}")
        if not 0.0 < tail_fraction < 1.0:
            raise ConfigError(
                f"tail_fraction must be in (0, 1), got {tail_fraction}"
            )
        self.threshold = threshold
        self.tail_fraction = tail_fraction

    def _groups(self, count: int) -> Tuple[range, range]:
        """(head, tail) worker-index ranges for a pool of ``count``."""
        if count == 1:
            return range(1), range(1)
        tail = min(count - 1, max(1, math.ceil(self.tail_fraction * count)))
        return range(count - tail), range(count - tail, count)

    def choose(self, request: ServingRequest, workers: Sequence) -> int:
        self._validate(workers)
        head, tail = self._groups(len(workers))
        group = tail if request.dispatch_length >= self.threshold else head
        return min(group, key=lambda i: (workers[i].backlog_tokens, i))


class PrefixAffinityDispatch(DispatchPolicy):
    """Route arrivals to the worker already holding their prompt prefix.

    The dispatch-side half of the prefix-cache subsystem: each worker
    is probed for the longest prefix its
    :class:`~repro.cache.manager.KVCacheManager` (or any in-flight
    request) shares with the arriving prompt
    (:meth:`~repro.serving.frontend.ServingWorker.prefix_match`), and
    the arrival joins the best-matching worker — so its prefill is a
    cache hit there instead of a cold recompute somewhere else.
    Where the pool's ``group_affinity`` needs a group tag, this
    matches on content: repeated system-prompt-style prefixes find
    their worker with no tag at all.

    Matches shorter than ``min_match`` tokens fall through to the
    ``fallback`` policy (least-loaded when omitted) — a one-token
    coincidence is not affinity, and with BOS applied every prompt
    trivially shares its first token.  Among equally matched workers
    the least-backlogged wins (ties to the lowest id), so affinity
    cannot pile every request onto one hot worker when matches tie.

    Args:
        fallback: policy for arrivals with no sufficient match.
        min_match: minimum shared leading tokens (BOS included when
            the front-end applies one) for affinity to bind.
    """

    name = "prefix-affinity"

    def __init__(
        self,
        fallback: Optional[DispatchPolicy] = None,
        min_match: int = 2,
    ) -> None:
        if min_match < 1:
            raise ConfigError(
                f"min_match must be >= 1, got {min_match}"
            )
        self.fallback = fallback or LeastLoadedDispatch()
        self.min_match = min_match

    def choose(self, request: ServingRequest, workers: Sequence) -> int:
        self._validate(workers)
        matches = [
            worker.prefix_match(request.prompt) for worker in workers
        ]
        best = max(matches)
        if best < self.min_match:
            return self.fallback.choose(request, workers)
        return min(
            (i for i, match in enumerate(matches) if match == best),
            key=lambda i: (workers[i].backlog_tokens, i),
        )


class SegmentAffinityDispatch(DispatchPolicy):
    """Route segment-tagged arrivals to their segment's home worker.

    The dispatch-side half of the drafter zoo: each worker can host a
    drafter specialized for one workload segment, and the zoo maintains
    the ``segment_worker`` placement map this policy routes by (the
    mapping object is shared — the zoo mutates it, dispatch reads it).
    Requests whose segment has no home worker, and untagged requests,
    fall through to the ``fallback`` policy (least-loaded when
    omitted).

    Because every request carries its own seeded random stream and
    speculative decoding is lossless, segment routing — like every
    other policy here — changes latency and *acceptance rates*, never
    the committed tokens.

    Args:
        segment_worker: live segment -> worker-index map (shared with
            whoever maintains the placement, e.g.
            :class:`~repro.longtail.zoo.DrafterZoo`).
        fallback: policy for unmapped or untagged arrivals.
    """

    name = "segment-affinity"

    def __init__(
        self,
        segment_worker: dict,
        fallback: Optional[DispatchPolicy] = None,
    ) -> None:
        self.segment_worker = segment_worker
        self.fallback = fallback or LeastLoadedDispatch()

    def choose(self, request: ServingRequest, workers: Sequence) -> int:
        self._validate(workers)
        segment = getattr(request, "segment", None)
        if segment is not None:
            index = self.segment_worker.get(segment)
            if index is not None and 0 <= index < len(workers):
                return index
        return self.fallback.choose(request, workers)


class PreemptionAwareDispatch(DispatchPolicy):
    """Route urgent arrivals where preemption will be cheapest.

    Dispatch policies normally ignore what preemption will do to the
    worker they pick; when every worker is saturated (zero free slots)
    that choice decides WHICH live request gets parked.  This policy
    routes an urgent arrival to the worker where the park will cost
    the fewest remaining predicted tokens, so preemption spends the
    least batch-latency per slot freed.  The cost per worker is the
    remaining tokens of the victim the preemption policy would REALLY
    choose there (:meth:`~repro.serving.frontend.ServingWorker.
    park_cost` evaluates the policy against the worker's live set),
    and urgency is that policy's own ``is_urgent`` test — routing and
    parking cannot drift apart.  Pass the pool's actual policy
    instance via ``policy`` (a default :class:`SloPreemption` when
    omitted).

    Workers where no park can happen (no eligible victim) are skipped
    entirely; non-urgent arrivals, and any arrival while a free slot
    exists somewhere, fall through to the ``fallback`` policy.

    Args:
        fallback: policy used outside the saturated-urgent case
            (least-loaded when omitted).
        policy: the pool's preemption policy; urgency and per-worker
            park costs are derived from it directly.
    """

    name = "preemption-aware"

    def __init__(
        self,
        fallback: Optional[DispatchPolicy] = None,
        policy: Optional["PreemptionPolicy"] = None,
    ) -> None:
        self.fallback = fallback or LeastLoadedDispatch()
        self.policy = policy or SloPreemption()

    def choose(self, request: ServingRequest, workers: Sequence) -> int:
        self._validate(workers)
        if not self.policy.is_urgent(request) or any(
            worker.free_slots > 0 for worker in workers
        ):
            return self.fallback.choose(request, workers)
        costs = [
            worker.park_cost(self.policy, request)
            for worker in workers
        ]
        if all(cost is None for cost in costs):
            return self.fallback.choose(request, workers)
        return min(
            (i for i, cost in enumerate(costs) if cost is not None),
            key=lambda i: (costs[i], workers[i].backlog_tokens, i),
        )


class PreemptionPolicy(abc.ABC):
    """Decides which live request (if any) to park for an arrival.

    Consulted by the front-end at dispatch time when the chosen worker
    has no free slot: the returned victim is parked on the worker's
    engine, freeing a slot the arrival is admitted into at the worker's
    next cycle.
    Returning None declines to preempt (the arrival queues normally).
    """

    #: Label used in reports and benchmark tables.
    name: str = "preemption"

    def is_urgent(self, request: ServingRequest) -> bool:
        """Whether ``request`` belongs in the urgent admission lane.

        Urgent arrivals are queued ahead of non-urgent backlog on their
        worker (FIFO among themselves), which is what makes the
        preemption trigger reachable when a BATCH floor — RL rollouts
        soaking idle capacity — has filled the waiting queue: the park
        must benefit the urgent request, not the backlog's FIFO head.
        The base policy marks nothing urgent (pure FIFO admission).
        """
        return False

    @abc.abstractmethod
    def choose_victim(
        self,
        request: ServingRequest,
        live: Sequence[Tuple[ServingRequest, int]],
    ) -> Optional[int]:
        """Pick the live request to park so ``request`` can run.

        Args:
            request: the arrival that would otherwise queue.
            live: ``(live_request, remaining_tokens)`` pairs for every
                sequence decoding on the chosen worker.

        Returns:
            The victim's request_id, or None to decline.
        """


class SloPreemption(PreemptionPolicy):
    """Park the longest-backlog low-urgency request for urgent traffic.

    An arrival is *urgent* when its TTFT target is at most
    ``urgent_ttft`` ticks (the INTERACTIVE class by default) — queuing
    behind a full worker for even a few cycles would blow that budget.
    Victims are live requests whose SLO class is in ``victim_classes``
    (BATCH-style background traffic by default — RL rollouts soaking
    idle capacity are exactly the requests designed to be paused); among
    them the one with the **largest remaining token backlog** is parked,
    because pausing the longest straggler frees a slot for the longest
    time per preemption.  Ties break to the lowest request id, keeping
    runs deterministic.

    Args:
        urgent_ttft: TTFT target (ticks) at or below which an arrival
            may preempt.
        victim_classes: SLO class names eligible to be parked.  None
            means any live request with a *strictly laxer* TTFT target
            than the arrival is eligible (pure urgency ordering).
    """

    name = "slo-preemption"

    def __init__(
        self,
        urgent_ttft: float = 4.0,
        victim_classes: Optional[Sequence[str]] = ("batch",),
    ) -> None:
        if urgent_ttft <= 0:
            raise ConfigError(
                f"urgent_ttft must be positive, got {urgent_ttft}"
            )
        self.urgent_ttft = urgent_ttft
        self.victim_classes = (
            None if victim_classes is None else frozenset(victim_classes)
        )

    def is_urgent(self, request: ServingRequest) -> bool:
        """Arrivals with a TTFT target at most ``urgent_ttft`` ticks."""
        return request.slo.ttft_target <= self.urgent_ttft

    def choose_victim(
        self,
        request: ServingRequest,
        live: Sequence[Tuple[ServingRequest, int]],
    ) -> Optional[int]:
        if request.slo.ttft_target > self.urgent_ttft:
            return None
        candidates = [
            (victim, remaining)
            for victim, remaining in live
            if (
                victim.slo.name in self.victim_classes
                if self.victim_classes is not None
                else victim.slo.ttft_target > request.slo.ttft_target
            )
        ]
        if not candidates:
            return None
        victim, _ = max(
            candidates,
            key=lambda pair: (pair[1], -pair[0].request_id),
        )
        return victim.request_id


def steal_work(
    workers: Sequence,
) -> List[Tuple[int, int, int, SequenceSlot]]:
    """Move queued requests from backlogged workers to free slots.

    One request moves per iteration: the donor is the worker with the
    deepest waiting queue among workers whose live slots are FULL (a
    worker with a free slot drains its own queue next cycle — stealing
    from it would just ping-pong requests), and the receiver is the
    worker with the most free slots left after covering its own queue
    (ties break to the lowest id, keeping runs deterministic).  Stops
    when no such pair remains.

    Returns:
        ``(request_id, donor_id, receiver_id, slot)`` for each moved
        request, ``slot`` being its new slot on the receiver — the
        front-end re-points its records with these.
    """
    moves: List[Tuple[int, int, int, SequenceSlot]] = []
    while True:
        donors = [
            w for w in workers
            if w.num_waiting > 0 and w.free_slots == 0
        ]
        receivers = [
            w for w in workers if w.free_slots > w.num_waiting
        ]
        if not donors or not receivers:
            break
        donor = max(
            donors, key=lambda w: (w.num_waiting, -w.worker_id)
        )
        receiver = min(
            receivers,
            key=lambda w: (w.num_waiting - w.free_slots, w.worker_id),
        )
        stolen = donor.steal(1)
        if not stolen:
            break
        request, waited = stolen[0]
        slot = receiver.enqueue(request, waited=waited)
        moves.append(
            (request.request_id, donor.worker_id, receiver.worker_id, slot)
        )
    return moves
