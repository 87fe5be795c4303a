"""Shared utilities: process-stable seed digests and statistics helpers."""

from repro.utils.rng import stable_digest
from repro.utils.stats import SlidingWindow, geometric_mean

__all__ = [
    "stable_digest",
    "SlidingWindow",
    "geometric_mean",
]
