"""Shared utilities: seeded RNG management, statistics helpers, logging."""

from repro.utils.rng import (
    RngFactory,
    as_generator,
    spawn_generators,
    stable_digest,
)
from repro.utils.stats import (
    OnlineMeanVar,
    SlidingWindow,
    describe,
    exponential_moving_average,
    geometric_mean,
    percentile,
)

__all__ = [
    "RngFactory",
    "as_generator",
    "spawn_generators",
    "stable_digest",
    "OnlineMeanVar",
    "SlidingWindow",
    "describe",
    "exponential_moving_average",
    "geometric_mean",
    "percentile",
]
