"""Online serving requests: arrivals, SLO classes, and trace synthesis.

A :class:`ServingRequest` is what a client submits to the front-end: a
prompt, a response-length cap, an arrival time, an SLO class, and an
optional *predicted* response length that the dispatcher's distribution-
aware policies act on (the paper's long-tail argument is exactly that
knowing — even approximately — which requests will run long changes
where they should be scheduled).

Every request carries its own RNG ``seed``.  The worker engine derives
the request's private random stream from it, which is what makes the
committed tokens independent of the dispatch policy, the worker the
request lands on, admission timing, work stealing, and neighbours'
cancellations — the serving-layer extension of the batched engine's
losslessness guarantee.

A request's lifecycle is :class:`~repro.specdec.scheduler.RequestState`,
the one enum the scheduler's slots carry: a pool's record reads it
through the slot its request was queued as, and holds a state of its
own only before dispatch (PENDING, or CANCELLED / EXPIRED when the
request was retired before reaching a worker).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ServingError
# The lifecycle enum is the scheduler's own, imported (not aliased) so
# ``from repro.serving.request import RequestState`` keeps working.
from repro.specdec.scheduler import RequestState, TERMINAL_STATES  # noqa: F401
from repro.workload.lengths import LengthModel


class RequestIdAllocator:
    """Fleet-safe request-id namespace shared by every replica.

    One allocator hands out globally-unique contiguous id blocks to any
    number of :class:`~repro.serving.frontend.ServingEngine` replicas
    (and programmatic clients like the RL rollout backend) so two
    replicas can never mint the same id.  Allocation is guarded by a
    lock — replicas driven from concurrent threads are safe — and
    :meth:`observe` bumps the namespace past externally-assigned ids
    (trace-synthesized requests), so mixed trace + programmatic traffic
    stays collision-free too.

    Args:
        start: first id the allocator may hand out.
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ConfigError(f"start must be >= 0, got {start}")
        self._next = int(start)
        self._lock = threading.Lock()

    @property
    def next_id(self) -> int:
        """The next id that would be handed out (inspection only)."""
        return self._next

    def allocate(self, count: int) -> range:
        """Reserve ``count`` fresh ids as one contiguous block."""
        if count < 1:
            raise ServingError(f"count must be >= 1, got {count}")
        with self._lock:
            first = self._next
            self._next = first + count
        return range(first, first + count)

    def observe(self, request_id: int) -> None:
        """Advance the namespace past an externally-assigned id."""
        with self._lock:
            self._next = max(self._next, int(request_id) + 1)


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
    """One online generation request.

    Attributes:
        request_id: globally unique id.
        prompt: prompt token ids (BOS applied by the front-end).
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
            Segment-tagged requests get per-segment acceptance counters
            on :class:`~repro.serving.metrics.ServingReport`, and
            segment-affinity dispatch can route them to the worker
            hosting the drafter specialized for the segment (the
            drafter-zoo path).  None means unsegmented.
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


def poisson_trace(
    rng: np.random.Generator,
    num_requests: int,
    mean_interarrival: float,
    length_model: LengthModel,
    vocab_size: int,
    prompt_len: int = 4,
    slo_mix: Sequence[Tuple[SloClass, float]] = ((STANDARD, 1.0),),
    predictor_noise: float = 0.0,
    start_id: int = 0,
) -> List[ServingRequest]:
    """Synthesize a Poisson-arrival request trace with long-tail lengths.

    Arrivals are a Poisson process (exponential inter-arrival times with
    the given mean); each request's response cap is drawn from
    ``length_model`` — use a heavy-tailed model
    (:class:`~repro.workload.lengths.LognormalLengths` /
    :class:`~repro.workload.lengths.ParetoLengths`) to reproduce the
    paper's rollout length distribution as an *online* workload.

    Args:
        rng: master generator (arrivals, lengths, prompts, seeds, SLO
            assignment all derive from it — one seed fixes the trace).
        num_requests: number of requests.
        mean_interarrival: mean ticks between arrivals.
        length_model: response-length distribution; the sampled length is
            the request's ``max_new_tokens`` (the paper's per-request
            "customized max length").
        vocab_size: token ids are drawn uniformly from ``[3, vocab_size)``
            (skipping PAD/BOS/EOS).
        prompt_len: prompt length in tokens.
        slo_mix: (slo, weight) pairs requests are assigned from.
        predictor_noise: lognormal sigma of the multiplicative noise on
            ``predicted_length`` (0.0 = oracle predictor).
        start_id: first request id.

    Returns:
        Requests sorted by arrival time.
    """
    if num_requests < 1:
        raise ConfigError(f"num_requests must be >= 1, got {num_requests}")
    if mean_interarrival <= 0:
        raise ConfigError("mean_interarrival must be positive")
    if predictor_noise < 0:
        raise ConfigError("predictor_noise must be non-negative")
    if not slo_mix:
        raise ConfigError("slo_mix must be non-empty")
    slos = [slo for slo, _ in slo_mix]
    weights = np.asarray([w for _, w in slo_mix], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ConfigError("slo_mix weights must be non-negative, sum > 0")
    weights = weights / weights.sum()

    gaps = rng.exponential(mean_interarrival, size=num_requests)
    arrivals = np.cumsum(gaps) - gaps[0]  # first request arrives at t=0
    lengths = length_model.sample(rng, num_requests)
    slo_picks = rng.choice(len(slos), size=num_requests, p=weights)
    requests: List[ServingRequest] = []
    for i in range(num_requests):
        length = int(lengths[i])
        predicted = length
        if predictor_noise > 0:
            predicted = int(
                np.clip(
                    round(length * rng.lognormal(0.0, predictor_noise)),
                    1,
                    None,
                )
            )
        requests.append(
            ServingRequest(
                request_id=start_id + i,
                prompt=list(
                    rng.integers(3, vocab_size, size=prompt_len)
                ),
                max_new_tokens=length,
                arrival_time=float(arrivals[i]),
                slo=slos[int(slo_picks[i])],
                predicted_length=predicted,
                seed=int(rng.integers(0, np.iinfo(np.int64).max)),
            )
        )
    return requests
