"""Online serving requests: id allocation and trace synthesis.

A :class:`ServingRequest` is what a client submits to the front-end: a
prompt, a response-length cap, an arrival time, an SLO class, and an
optional *predicted* response length that the dispatcher's distribution-
aware policies act on (the paper's long-tail argument is exactly that
knowing — even approximately — which requests will run long changes
where they should be scheduled).  The class, the SLO classes
(:class:`SloClass`, ``INTERACTIVE`` / ``STANDARD`` / ``BATCH``) and the
lifecycle enum :class:`RequestState` live in
:mod:`repro.specdec.scheduler` and are re-exported here: the request a
pool records is the request its worker's slot decodes.

Every request carries its own RNG ``seed``.  The slot a worker queues
it as derives the request's private random stream from it, which is
what makes the committed tokens independent of the dispatch policy, the
worker the request lands on, admission timing, work stealing, and
neighbours' cancellations — the serving-layer extension of the batched
engine's losslessness guarantee.

A pool's record reads the request's lifecycle through the slot its
request was queued as, and holds a state of its own only before
dispatch (PENDING, or CANCELLED / EXPIRED when the request was retired
before reaching a worker).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ServingError
# The request type, its SLO classes and the lifecycle enum are the
# scheduler's own, imported (not aliased) so
# ``from repro.serving.request import ServingRequest`` keeps working.
from repro.specdec.scheduler import (  # noqa: F401
    BATCH,
    INTERACTIVE,
    STANDARD,
    TERMINAL_STATES,
    RequestState,
    ServingRequest,
    SloClass,
)
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
    stays collision-free too.  Ids start at 0.
    """

    def __init__(self) -> None:
        self._next = 0
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


def poisson_trace(
    rng: np.random.Generator,
    num_requests: int,
    mean_interarrival: float,
    length_model: LengthModel,
    vocab_size: int,
    prompt_len: int = 4,
    slo_mix: Sequence[Tuple[SloClass, float]] = ((STANDARD, 1.0),),
    start_id: int = 0,
) -> List[ServingRequest]:
    """Synthesize a Poisson-arrival request trace with long-tail lengths.

    Arrivals are a Poisson process (exponential inter-arrival times with
    the given mean); each request's response cap is drawn from
    ``length_model`` — use a heavy-tailed model
    (:class:`~repro.workload.lengths.LognormalLengths`) to reproduce the
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
        start_id: first request id.

    Returns:
        Requests sorted by arrival time, each predicted at its true
        length (an oracle predictor).
    """
    if num_requests < 1:
        raise ConfigError(f"num_requests must be >= 1, got {num_requests}")
    if mean_interarrival <= 0:
        raise ConfigError("mean_interarrival must be positive")
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
        requests.append(
            ServingRequest(
                request_id=start_id + i,
                prompt=[
                    int(t)
                    for t in rng.integers(3, vocab_size, size=prompt_len)
                ],
                max_new_tokens=length,
                arrival_time=float(arrivals[i]),
                slo=slos[int(slo_picks[i])],
                predicted_length=length,
                seed=int(rng.integers(0, np.iinfo(np.int64).max)),
            )
        )
    return requests
