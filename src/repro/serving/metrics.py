"""Per-request latency/TTFT/SLO accounting for the serving front-end.

The front-end keeps one :class:`RequestRecord` per submitted request —
a view over the request's scheduler slot for its state and tokens —
and stamps its lifecycle transitions with virtual-clock times; the final
:class:`ServingReport` aggregates them into the numbers an online system
is judged by — p50/p99 completion latency, time-to-first-token, and SLO
attainment per class — plus per-worker utilisation, which is the signal
that closes the loop back into the adaptive SD layer (each worker's
:class:`~repro.rollout.adaptive.AdaptiveSdManager` already sees its own
live-batch size every cycle; the report shows what that bought).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serving.request import RequestState, ServingRequest
from repro.specdec.metrics import WorkerCounters
from repro.specdec.scheduler import SequenceSlot


@dataclass
class RequestRecord:
    """Lifecycle trace of one online request: a view over its slot.

    Once dispatched, the record holds the worker's
    :class:`~repro.specdec.scheduler.SequenceSlot` the request was
    queued as (re-pointed when work stealing moves it) and reads its
    ``state`` and ``response`` from there, so nothing copies the
    scheduler's transitions or tokens.  Before dispatch it reads its
    own ``pre_dispatch`` state.

    All times are virtual-clock ticks; ``None`` means the transition has
    not happened (yet).

    Attributes:
        request: the submitted request.
        pre_dispatch: the state while no worker holds the request —
            PENDING, or CANCELLED / EXPIRED when it was retired before
            dispatch.
        slot: the worker slot the request is queued on (None before
            dispatch).
        worker_id: worker the request was dispatched to (updated when
            work stealing moves it).
        dispatch_time: when the front-end routed it to a worker.
        admit_time: when the worker admitted it into a live slot.
        first_token_time: completion time of the cycle that committed its
            first response token.
        finish_time: completion time of its last cycle (finish or
            cancellation).
        stolen: times the request was moved by work stealing.
        preemptions: times the request was parked mid-decode (by the
            preemption policy or an explicit ``park``).
    """

    request: ServingRequest
    pre_dispatch: RequestState = RequestState.PENDING
    slot: Optional[SequenceSlot] = field(
        default=None, repr=False, compare=False
    )
    worker_id: Optional[int] = None
    dispatch_time: Optional[float] = None
    admit_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    stolen: int = 0
    preemptions: int = 0

    @property
    def state(self) -> RequestState:
        """Current lifecycle state (the slot's, once dispatched)."""
        return self.pre_dispatch if self.slot is None else self.slot.state

    @property
    def response(self) -> List[int]:
        """Committed response tokens: the tokens so far while RUNNING
        or PARKED, partial when cancelled, ``[]`` before dispatch.  The
        slot's own list — copy it before mutating."""
        return [] if self.slot is None else self.slot.response

    # -- derived -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the request completed normally."""
        return self.state is RequestState.FINISHED

    @property
    def cancelled(self) -> bool:
        """Whether the request was cancelled (explicitly or by deadline)."""
        return self.state in (
            RequestState.CANCELLED,
            RequestState.EXPIRED,
        )

    @property
    def expired(self) -> bool:
        """Whether the request was retired by deadline expiry."""
        return self.state is RequestState.EXPIRED

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-completion latency (None while unresolved)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.request.arrival_time

    @property
    def ttft(self) -> Optional[float]:
        """Arrival-to-first-token time (None before the first token)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.request.arrival_time

    @property
    def queue_wait(self) -> Optional[float]:
        """Arrival-to-admission wait (None while queued)."""
        if self.admit_time is None:
            return None
        return self.admit_time - self.request.arrival_time

    @property
    def ttft_met(self) -> bool:
        """Whether the TTFT target was met."""
        ttft = self.ttft
        return ttft is not None and ttft <= self.request.slo.ttft_target

    @property
    def latency_met(self) -> bool:
        """Whether the completion-latency target was met (finished only)."""
        latency = self.latency
        return (
            self.finished
            and latency is not None
            and latency <= self.request.slo.latency_target
        )

    @property
    def slo_met(self) -> bool:
        """Both targets met; cancelled requests never meet their SLO."""
        return self.latency_met and self.ttft_met


def _percentile(values: Sequence[float], q: float) -> float:
    """np.percentile with an empty-input guard (returns 0.0)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class ServingReport:
    """Aggregate outcome of one serving run.

    Attributes:
        records: per-request lifecycle records in request-id order.
        ticks: virtual time the run spanned.
        worker_counters: one :class:`~repro.specdec.metrics.
            WorkerCounters` snapshot per worker — the ledger every
            launch/prefill/draft/segment/cache total below is a sum
            over (:attr:`totals`).
        stolen: queued requests moved between workers by work stealing.
        policy: dispatch-policy name (labelling only).
        class_slot_cycles: slot-cycles decoded per SLO class (one live
            slot decoding for one tick = one slot-cycle) — the signal
            that shows which class the pool's capacity actually went
            to, rather than the aggregate ``utilization``.
        pool_slot_capacity: total live slots across the pool (None when
            per-worker capacity is unbounded).
    """

    records: List[RequestRecord]
    ticks: float
    worker_counters: List[WorkerCounters] = field(default_factory=list)
    stolen: int = 0
    policy: str = ""
    class_slot_cycles: Dict[str, int] = field(default_factory=dict)
    pool_slot_capacity: Optional[int] = None

    # -- slices ------------------------------------------------------------

    @property
    def finished_records(self) -> List[RequestRecord]:
        """Requests that completed normally."""
        return [r for r in self.records if r.finished]

    @property
    def cancelled_records(self) -> List[RequestRecord]:
        """Requests that were cancelled (deadline expiries included)."""
        return [r for r in self.records if r.cancelled]

    @property
    def expired_records(self) -> List[RequestRecord]:
        """Requests retired by deadline expiry."""
        return [r for r in self.records if r.expired]

    @property
    def preemptions(self) -> int:
        """Park events across all requests (policy + explicit)."""
        return sum(r.preemptions for r in self.records)

    @property
    def latencies(self) -> List[float]:
        """Completion latencies of finished requests."""
        return [
            r.latency for r in self.finished_records
            if r.latency is not None
        ]

    @property
    def ttfts(self) -> List[float]:
        """TTFTs of every request that produced at least one token."""
        return [r.ttft for r in self.records if r.ttft is not None]

    # -- headline numbers --------------------------------------------------

    def latency_percentile(self, q: float) -> float:
        """Completion-latency percentile over finished requests."""
        return _percentile(self.latencies, q)

    def ttft_percentile(self, q: float) -> float:
        """TTFT percentile over requests that produced a token."""
        return _percentile(self.ttfts, q)

    @property
    def p50_latency(self) -> float:
        """Median completion latency."""
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        """Tail completion latency — the long-tail headline number."""
        return self.latency_percentile(99.0)

    @property
    def slo_attainment(self) -> float:
        """Fraction of ALL requests meeting their SLO (cancelled = miss)."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.slo_met) / len(self.records)

    @property
    def total_tokens(self) -> int:
        """Tokens committed across all requests (partials included)."""
        return sum(len(r.response) for r in self.records)

    @property
    def throughput(self) -> float:
        """Committed tokens per tick of virtual time."""
        if self.ticks <= 0:
            return 0.0
        return self.total_tokens / self.ticks

    @property
    def totals(self) -> WorkerCounters:
        """The pool's ledger: every worker's counters added up."""
        return sum(self.worker_counters, WorkerCounters())

    @property
    def utilization(self) -> List[float]:
        """Busy fraction per worker (cycles executed / elapsed ticks)."""
        if self.ticks <= 0:
            return [0.0 for _ in self.worker_counters]
        return [w.busy_cycles / self.ticks for w in self.worker_counters]

    @property
    def prefix_hit_rate(self) -> float:
        """Pool-wide exact prefix-cache hit rate (0.0 with no lookups).

        Hits over lookups across every worker's cache; same-wave
        shared-prefix coalescing is not a cache consultation and is
        accounted in :attr:`prefill_launches_saved` instead.
        """
        return self.totals.cache.hit_rate

    def worker_prefix_hit_rates(self) -> List[float]:
        """Per-worker exact prefix-cache hit rates."""
        return [w.cache.hit_rate for w in self.worker_counters]

    @property
    def prefill_launches(self) -> int:
        """Per-sequence prefill forwards the pool computed."""
        return self.totals.prefill_launches

    @property
    def prefill_launches_saved(self) -> int:
        """Prefill forwards the pool avoided via the prefix cache.

        Exact-prompt cache hits plus same-wave duplicates coalesced
        into one launch per shared prefix — the amortisation headline
        of the prefix-cache subsystem (0 when no cache is attached).
        """
        return self.totals.prefill_launches_saved

    @property
    def prefill_tokens(self) -> int:
        """Prompt tokens the pool actually prefilled.

        The token-granular cost the paged block cache shrinks: each
        computed prompt is charged only its suffix beyond cached block
        coverage, so this drops below the launch-equivalent total
        whenever partial prefixes are reused.
        """
        return self.totals.prefill_tokens

    @property
    def prefill_tokens_saved(self) -> int:
        """Prompt tokens the pool avoided prefilling.

        Exact hits and same-wave duplicates save their whole effective
        context; block-granular admission saves the covered prefix of
        partial matches (0 when no cache is attached).
        """
        return self.totals.prefill_tokens_saved

    @property
    def cache_demotions(self) -> int:
        """Blocks demoted HOT -> COLD across every worker's cache."""
        return self.totals.cache.demotions

    @property
    def cache_promotions(self) -> int:
        """COLD blocks promoted back to HOT across the pool."""
        return self.totals.cache.promotions

    @property
    def cache_cold_hits(self) -> int:
        """Touches served by COLD-tier blocks across the pool."""
        return self.totals.cache.cold_hits

    @property
    def cache_cold_evictions(self) -> int:
        """Blocks dropped out of the COLD tier across the pool."""
        return self.totals.cache.cold_evictions

    @property
    def segment_acceptance(self) -> Dict[str, float]:
        """Per-segment draft-token acceptance rate.

        Accepted over drafted for every segment-tagged request —
        the drafter-zoo scoreboard's headline: a specialist drafter
        routed to its segment should beat the shared drafter's rate
        on that same segment's traffic.  Segments that drafted
        nothing report 0.0.
        """
        totals = self.totals
        return {
            segment: (
                totals.segment_accepted.get(segment, 0) / drafted
                if drafted
                else 0.0
            )
            for segment, drafted in sorted(totals.segment_drafted.items())
        }

    @property
    def draft_launches(self) -> int:
        """Batched drafter launches the pool issued."""
        return self.totals.draft_launches

    @property
    def draft_launches_saved(self) -> int:
        """Drafter launches the pool avoided versus per-node drafting.

        The flat lock-step tree build issues one batched call per round
        for a worker's whole live batch; this is the per-node baseline's
        call count minus those launches, each worker charged as if it
        drafted alone (its rows ride one pool- or fleet-wide call).
        """
        return self.totals.draft_launches_saved

    @property
    def class_utilization(self) -> Dict[str, float]:
        """Fraction of the pool's slot capacity each SLO class decoded.

        Slot-cycles per class over the pool's total slot-cycles
        (``pool_slot_capacity * ticks``; one slot per worker when the
        capacity is unbounded).  This is the per-class split the
        aggregate :attr:`utilization` hides — the co-location benchmark
        reads reclaimed-bubble capacity directly off the BATCH entry.
        """
        slots = self.pool_slot_capacity or len(self.worker_counters)
        denominator = self.ticks * max(slots, 1)
        if denominator <= 0:
            return {name: 0.0 for name in self.class_slot_cycles}
        return {
            name: cycles / denominator
            for name, cycles in sorted(self.class_slot_cycles.items())
        }

    def per_class(self) -> Dict[str, Dict[str, float]]:
        """Latency/TTFT/attainment/utilization breakdown per SLO class."""
        out: Dict[str, Dict[str, float]] = {}
        by_class: Dict[str, List[RequestRecord]] = {}
        for record in self.records:
            by_class.setdefault(record.request.slo.name, []).append(record)
        class_utilization = self.class_utilization
        for name, records in sorted(by_class.items()):
            finished = [
                r.latency for r in records
                if r.finished and r.latency is not None
            ]
            ttfts = [r.ttft for r in records if r.ttft is not None]
            out[name] = {
                "requests": float(len(records)),
                "finished": float(sum(1 for r in records if r.finished)),
                "cancelled": float(sum(1 for r in records if r.cancelled)),
                "p50_latency": _percentile(finished, 50.0),
                "p99_latency": _percentile(finished, 99.0),
                "p99_ttft": _percentile(ttfts, 99.0),
                "slo_attainment": (
                    sum(1 for r in records if r.slo_met) / len(records)
                ),
                "slot_cycles": float(
                    self.class_slot_cycles.get(name, 0)
                ),
                "utilization": class_utilization.get(name, 0.0),
            }
        return out

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline numbers (benchmark rows)."""
        return {
            "requests": float(len(self.records)),
            "finished": float(len(self.finished_records)),
            "cancelled": float(len(self.cancelled_records)),
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "p99_ttft": self.ttft_percentile(99.0),
            "slo_attainment": self.slo_attainment,
            "throughput": self.throughput,
            "ticks": float(self.ticks),
            "stolen": float(self.stolen),
            "expired": float(len(self.expired_records)),
            "preempted": float(self.preemptions),
            "prefix_hit_rate": self.prefix_hit_rate,
            "prefill_launches": float(self.prefill_launches),
            "prefill_launches_saved": float(self.prefill_launches_saved),
            "prefill_tokens": float(self.prefill_tokens),
            "prefill_tokens_saved": float(self.prefill_tokens_saved),
            "draft_launches": float(self.draft_launches),
            "draft_launches_saved": float(self.draft_launches_saved),
        }
