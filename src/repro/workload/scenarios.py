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
#: Tenant prefix families of :func:`flash_crowd_trace`'s calm baseline.
BASE_FAMILIES = 4


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
    period: float = 200.0,
    peak_interarrival: float = 0.5,
    trough_ratio: float = 0.12,
    num_families: int = 8,
    slo: Optional[SloClass] = None,
) -> List[ServingRequest]:
    """A sinusoidal day/night arrival cycle (nonhomogeneous Poisson).

    The arrival rate follows ``λ(t) = λ_peak · (r + (1-r)·(1+sin)/2)``
    with trough ratio ``r`` — a smooth wave from ``r·λ_peak`` (night)
    to ``λ_peak`` (midday), sampled exactly by thinning.  Arrivals
    draw from ``num_families`` tenant prefix families, so the trace
    routes like fleet traffic.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.
        num_requests: arrivals in the trace.
        period: ticks per full day/night cycle.
        peak_interarrival: mean ticks between arrivals at peak.
        trough_ratio: trough rate as a fraction of the peak rate, in
            ``(0, 1]``.
        num_families: distinct tenant prefix families.
        slo: SLO class of every request (STANDARD when omitted).

    Returns:
        Requests sorted by arrival time.
    """
    if num_requests < 1:
        raise ConfigError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    if period <= 0 or peak_interarrival <= 0:
        raise ConfigError(
            "period and peak_interarrival must be positive"
        )
    if not 0.0 < trough_ratio <= 1.0:
        raise ConfigError(
            f"trough_ratio must be in (0, 1], got {trough_ratio}"
        )
    if num_families < 1:
        raise ConfigError(
            f"num_families must be >= 1, got {num_families}"
        )
    peak_rate = 1.0 / peak_interarrival

    def rate_at(t: float) -> float:
        phase = (1.0 + np.sin(2.0 * np.pi * t / period)) / 2.0
        return peak_rate * (
            trough_ratio + (1.0 - trough_ratio) * phase
        )

    arrivals = _thinned_arrivals(
        rng, num_requests, peak_rate, rate_at
    )
    families = _prefix_families(
        rng, vocab_size, num_families, PREFIX_LEN
    )
    return _requests_from_arrivals(
        rng, vocab_size, arrivals, families, 0, SHORT_LENGTHS,
        slo or STANDARD, 0,
    )


def flash_crowd_trace(
    rng: np.random.Generator,
    vocab_size: int,
    num_base: int,
    num_crowd: int,
    base_interarrival: float = 4.0,
    crowd_interarrival: float = 0.25,
    crowd_families: int = 6,
    slo: Optional[SloClass] = None,
) -> List[ServingRequest]:
    """A calm baseline shattered by a sudden crowd.

    ``num_base`` requests arrive as a slow Poisson stream over
    ``BASE_FAMILIES`` tenant prefixes; from the middle of the base
    stream's horizon ``num_crowd`` requests slam in at
    ``crowd_interarrival`` spread over ``crowd_families`` *fresh*
    prefix families — a viral link, not hot-spotting of an existing
    tenant, so scale-out capacity actually receives ring arcs instead
    of watching one hot key stay pinned to its owner.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.
        num_base: baseline arrivals.
        num_crowd: crowd arrivals inside the burst window.
        base_interarrival: mean ticks between baseline arrivals.
        crowd_interarrival: mean ticks between crowd arrivals.
        crowd_families: the crowd's tenant prefix families (freshly
            drawn — all cold).
        slo: SLO class of every request (STANDARD when omitted).

    Returns:
        Requests of both streams merged and sorted by arrival time
        (ids: baseline first, then crowd).
    """
    if num_base < 1 or num_crowd < 1:
        raise ConfigError("num_base and num_crowd must be >= 1")
    if base_interarrival <= 0 or crowd_interarrival <= 0:
        raise ConfigError("interarrival means must be positive")
    if crowd_families < 1:
        raise ConfigError("family counts must be >= 1")
    slo = slo or STANDARD

    base_gaps = rng.exponential(base_interarrival, size=num_base)
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
        _prefix_families(rng, vocab_size, crowd_families, PREFIX_LEN),
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
    num_bursts: int = 4,
    burst_requests: int = 24,
    burst_interarrival: float = 0.25,
    lull_ticks: float = 30.0,
    num_longtail: int = 6,
    num_families: int = 6,
    slo: Optional[SloClass] = None,
) -> List[ServingRequest]:
    """Oscillating bursts over a long-tail floor (the thrash trap).

    ``num_bursts`` dense bursts alternate with dead lulls of
    ``lull_ticks`` — a square-wave load whose period is deliberately
    close to typical scaling cooldowns, so a controller without a
    hysteresis band scales out on every burst and in on every lull,
    paying ring movement and cold prefills each time.  Underneath,
    ``num_longtail`` BATCH-class stragglers with long-tailed response
    lengths (a heavy lognormal: the paper's long-tail rollouts) keep
    the fleet's backlog from ever reaching zero, tempting premature
    scale-in mid-burst shadow.

    Args:
        rng: master generator (one seed fixes the whole trace).
        vocab_size: token ids drawn from ``[3, vocab_size)``.
        num_bursts: dense burst windows.
        burst_requests: arrivals per burst.
        burst_interarrival: mean ticks between arrivals inside a burst.
        lull_ticks: dead time between consecutive bursts.
        num_longtail: BATCH-class stragglers spread over the horizon.
        num_families: tenant prefix families the bursts draw from.
        slo: SLO class of burst requests (STANDARD when omitted).

    Returns:
        Requests of both kinds merged and sorted by arrival time
        (ids: bursts first, then stragglers).
    """
    if num_bursts < 1 or burst_requests < 1:
        raise ConfigError(
            "num_bursts and burst_requests must be >= 1"
        )
    if burst_interarrival <= 0 or lull_ticks < 0:
        raise ConfigError(
            "burst_interarrival must be positive and lull_ticks >= 0"
        )
    if num_longtail < 0:
        raise ConfigError(
            f"num_longtail must be >= 0, got {num_longtail}"
        )
    slo = slo or STANDARD
    families = _prefix_families(
        rng, vocab_size, num_families, PREFIX_LEN
    )

    arrivals: List[float] = []
    t = 0.0
    for _ in range(num_bursts):
        gaps = rng.exponential(
            burst_interarrival, size=burst_requests
        )
        for gap in gaps:
            t += float(gap)
            arrivals.append(t)
        t += lull_ticks
    horizon = arrivals[-1]
    bursts = _requests_from_arrivals(
        rng, vocab_size, arrivals, families, 0, SHORT_LENGTHS, slo, 0
    )

    stragglers: List[ServingRequest] = []
    if num_longtail:
        tail_arrivals = sorted(
            float(t) for t in rng.uniform(0.0, horizon, num_longtail)
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
