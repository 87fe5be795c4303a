"""Shared utilities: process-stable seed digests and statistics helpers."""

from repro.utils.rng import stable_digest
from repro.utils.stats import (
    OnlineMeanVar,
    SlidingWindow,
    describe,
    exponential_moving_average,
    geometric_mean,
    percentile,
)

__all__ = [
    "stable_digest",
    "OnlineMeanVar",
    "SlidingWindow",
    "describe",
    "exponential_moving_average",
    "geometric_mean",
    "percentile",
]
