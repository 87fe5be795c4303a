"""The scenario zoo: load shapes that exercise elastic autoscaling.

Steady Poisson traffic (:func:`~repro.workload.traces.fleet_trace`)
tells you nothing about a *controller* — any static fleet sized for
the mean serves it.  Autoscaling earns its keep on load that moves,
so the zoo synthesizes the three canonical shapes the scoreboard
(``benchmarks/test_autoscale.py``) judges policies on:

* :func:`diurnal_trace` — a slow sinusoidal day/night cycle
  (nonhomogeneous Poisson via Lewis thinning): the autoscaler should
  track the wave, shedding replicas overnight and re-adding them for
  the peak, without reacting to every ripple.
* :func:`flash_crowd_trace` — a calm baseline shattered by a sudden
  crowd: arrival rate jumps an order of magnitude inside a short
  window, spread over several fresh prefix families so added replicas
  actually receive ring arcs.  The scale-out latency race: SLOs are
  lost during warm-up, cost is lost by never scaling back down.
* :func:`adversarial_longtail_trace` — the policy-stress shape: an
  oscillating square wave of bursts whose period sits near the
  hysteresis cooldowns, riding over a floor of long-tailed BATCH
  stragglers that keep backlog from ever reaching zero.  A naive
  threshold controller thrashes membership every period; a correct
  hysteresis band holds through the oscillation.

Every scenario is seeded (one generator fixes the whole trace) and
returns plain :class:`~repro.serving.request.ServingRequest` lists
sorted by arrival, with ids from 0.  Every request shares a
``PREFIX_LEN``-token tenant prefix and has no private suffix, and
short-lived traffic draws its lengths from ``SHORT_LENGTHS``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.specdec.scheduler import BATCH, STANDARD, ServingRequest, SloClass
from repro.workload.lengths import LognormalLengths
from repro.workload.traces import (
    _prefix_families,
    _requests_from_arrivals,
)

#: Tenant-prefix tokens every zoo request shares with its family.
PREFIX_LEN = 4
#: Response lengths of the zoo's short-lived traffic.
SHORT_LENGTHS = LognormalLengths(median=5.0, sigma=0.4, cap=12)
#: SLO class of the diurnal and adversarial traces' short-lived
#: traffic: loose enough that a right-sized fleet attains it, tight
#: enough that an undersized fleet visibly misses.
SCENARIO_SLO = SloClass("scenario", ttft_target=12.0, latency_target=96.0)

#: :func:`diurnal_trace`'s cycle: ticks per day/night period, mean ticks
#: between arrivals at peak, the trough rate as a fraction of the peak
#: rate, and its tenant prefix families.
DIURNAL_PERIOD = 120.0
DIURNAL_PEAK_INTERARRIVAL = 0.6
DIURNAL_TROUGH_RATIO = 0.1
DIURNAL_FAMILIES = 8

#: :func:`flash_crowd_trace`'s calm baseline (tenant prefix families and
#: mean ticks between arrivals) and the crowd's fresh prefix families.
BASE_FAMILIES = 4
BASE_INTERARRIVAL = 4.0
CROWD_FAMILIES = 6

#: :func:`adversarial_longtail_trace`'s square wave: dense bursts, the
#: arrivals per burst, the mean ticks between arrivals inside a burst
#: and the dead ticks between bursts; then its BATCH-class stragglers
#: and the tenant prefix families the bursts draw from.
NUM_BURSTS = 4
BURST_REQUESTS = 20
BURST_INTERARRIVAL = 0.3
LULL_TICKS = 25.0
NUM_LONGTAIL = 6
ADVERSARIAL_FAMILIES = 6


def _thinned_arrivals(
    rng: np.random.Generator,
    num_requests: int,
    peak_rate: float,
    rate_at,
) -> List[float]:
    """Nonhomogeneous Poisson arrivals by Lewis thinning.

    Candidate arrivals are drawn from a homogeneous process at
    ``peak_rate`` and kept with probability ``rate_at(t)/peak_rate`` —
    the standard exact sampler for a time-varying rate.
    """
    arrivals: List[float] = []
    t = 0.0
    while len(arrivals) < num_requests:
        t += float(rng.exponential(1.0 / peak_rate))
        if rng.random() <= rate_at(t) / peak_rate:
            arrivals.append(t)
    return arrivals


def diurnal_trace(
    rng: np.random.Generator,
    vocab_size: int,
    num_requests: int,
) -> List[ServingRequest]:
    """A sinusoidal day/night arrival cycle (nonhomogeneous Poisson).

    The arrival rate follows ``λ(t) = λ_peak · (r + (1-r)·(1+sin)/2)``
    with trough ratio ``r = DIURNAL_TROUGH_RATIO`` — a smooth wave from
    ``r·λ_peak`` (night) to ``λ_peak`` (midday) over
    ``DIURNAL_PERIOD`` ticks, sampled exactly by thinning.  Arrivals
    draw from ``DIURNAL_FAMILIES`` tenant prefix families, so the trace
    routes like fleet traffic; every request is ``SCENARIO_SLO``.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.
        num_requests: arrivals in the trace.

    Returns:
        Requests sorted by arrival time.
    """
    if num_requests < 1:
        raise ConfigError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    peak_rate = 1.0 / DIURNAL_PEAK_INTERARRIVAL

    def rate_at(t: float) -> float:
        phase = (1.0 + np.sin(2.0 * np.pi * t / DIURNAL_PERIOD)) / 2.0
        return peak_rate * (
            DIURNAL_TROUGH_RATIO + (1.0 - DIURNAL_TROUGH_RATIO) * phase
        )

    arrivals = _thinned_arrivals(
        rng, num_requests, peak_rate, rate_at
    )
    families = _prefix_families(
        rng, vocab_size, DIURNAL_FAMILIES, PREFIX_LEN
    )
    return _requests_from_arrivals(
        rng, vocab_size, arrivals, families, 0, SHORT_LENGTHS,
        SCENARIO_SLO, 0,
    )


def flash_crowd_trace(
    rng: np.random.Generator,
    vocab_size: int,
    num_base: int,
    num_crowd: int,
    crowd_interarrival: float = 0.25,
    slo: Optional[SloClass] = None,
) -> List[ServingRequest]:
    """A calm baseline shattered by a sudden crowd.

    ``num_base`` requests arrive as a slow Poisson stream (mean gap
    ``BASE_INTERARRIVAL``) over ``BASE_FAMILIES`` tenant prefixes; from
    the middle of the base stream's horizon ``num_crowd`` requests slam
    in at ``crowd_interarrival`` spread over ``CROWD_FAMILIES`` *fresh*
    prefix families — a viral link, not hot-spotting of an existing
    tenant, so scale-out capacity actually receives ring arcs instead
    of watching one hot key stay pinned to its owner.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.
        num_base: baseline arrivals.
        num_crowd: crowd arrivals inside the burst window.
        crowd_interarrival: mean ticks between crowd arrivals.
        slo: SLO class of every request (STANDARD when omitted).

    Returns:
        Requests of both streams merged and sorted by arrival time
        (ids: baseline first, then crowd).
    """
    if num_base < 1 or num_crowd < 1:
        raise ConfigError("num_base and num_crowd must be >= 1")
    if crowd_interarrival <= 0:
        raise ConfigError("crowd_interarrival must be positive")
    slo = slo or STANDARD

    base_gaps = rng.exponential(BASE_INTERARRIVAL, size=num_base)
    base_arrivals = np.cumsum(base_gaps) - base_gaps[0]
    crowd_start = float(base_arrivals[-1]) / 2.0
    crowd_gaps = rng.exponential(crowd_interarrival, size=num_crowd)
    crowd_arrivals = crowd_start + np.cumsum(crowd_gaps)

    base = _requests_from_arrivals(
        rng,
        vocab_size,
        [float(t) for t in base_arrivals],
        _prefix_families(rng, vocab_size, BASE_FAMILIES, PREFIX_LEN),
        0,
        SHORT_LENGTHS,
        slo,
        0,
    )
    crowd = _requests_from_arrivals(
        rng,
        vocab_size,
        [float(t) for t in crowd_arrivals],
        _prefix_families(rng, vocab_size, CROWD_FAMILIES, PREFIX_LEN),
        0,
        SHORT_LENGTHS,
        slo,
        num_base,
    )
    return sorted(
        base + crowd, key=lambda r: (r.arrival_time, r.request_id)
    )


def adversarial_longtail_trace(
    rng: np.random.Generator,
    vocab_size: int,
) -> List[ServingRequest]:
    """Oscillating bursts over a long-tail floor (the thrash trap).

    ``NUM_BURSTS`` dense bursts alternate with dead lulls of
    ``LULL_TICKS`` — a square-wave load whose period is deliberately
    close to typical scaling cooldowns, so a controller without a
    hysteresis band scales out on every burst and in on every lull,
    paying ring movement and cold prefills each time.  Underneath,
    ``NUM_LONGTAIL`` BATCH-class stragglers with long-tailed response
    lengths (a heavy lognormal: the paper's long-tail rollouts) keep
    the fleet's backlog from ever reaching zero, tempting premature
    scale-in mid-burst shadow.  Burst requests are ``SCENARIO_SLO``.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.

    Returns:
        Requests of both kinds merged and sorted by arrival time
        (ids: bursts first, then stragglers).
    """
    families = _prefix_families(
        rng, vocab_size, ADVERSARIAL_FAMILIES, PREFIX_LEN
    )

    arrivals: List[float] = []
    t = 0.0
    for _ in range(NUM_BURSTS):
        gaps = rng.exponential(
            BURST_INTERARRIVAL, size=BURST_REQUESTS
        )
        for gap in gaps:
            t += float(gap)
            arrivals.append(t)
        t += LULL_TICKS
    horizon = arrivals[-1]
    bursts = _requests_from_arrivals(
        rng, vocab_size, arrivals, families, 0, SHORT_LENGTHS,
        SCENARIO_SLO, 0,
    )

    tail_arrivals = sorted(
        float(t) for t in rng.uniform(0.0, horizon, NUM_LONGTAIL)
    )
    stragglers = _requests_from_arrivals(
        rng,
        vocab_size,
        tail_arrivals,
        families,
        0,
        LognormalLengths(median=40.0, sigma=0.9, cap=160),
        BATCH,
        len(bursts),
    )
    return sorted(
        bursts + stragglers,
        key=lambda r: (r.arrival_time, r.request_id),
    )
