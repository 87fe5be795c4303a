"""Long-tail response-length models (paper Figure 1a, Figure 2).

Reasoning-RL rollouts exhibit a persistent long tail: most responses are
short, a few run to the configured maximum.  The cluster simulator and the
rollout engine sample per-request lengths from :class:`LognormalLengths`,
the paper's observed shape, behind the :class:`LengthModel` interface.
It caps at ``max_length`` (the paper's "customized max length"), which
produces the PDF spike at the cap seen in Figure 1(a).
:func:`length_statistics` computes the per-step series of Figure 2.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigError


class LengthModel(abc.ABC):
    """Samples response lengths (tokens) for rollout requests."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` integer lengths in ``[1, max_length]``."""

    @property
    @abc.abstractmethod
    def max_length(self) -> int:
        """The generation cap."""


@dataclass(frozen=True)
class LognormalLengths(LengthModel):
    """Lognormal body with a hard cap — the paper's observed shape.

    Attributes:
        median: median response length in tokens.
        sigma: log-space standard deviation (1.0–1.3 matches the traces;
            larger values thicken the tail).
        cap: maximum generation length.
    """

    median: float = 2500.0
    sigma: float = 1.1
    cap: int = 30_000

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ConfigError(f"median must be positive, got {self.median}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")

    @property
    def max_length(self) -> int:
        return self.cap

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ConfigError(f"count must be non-negative, got {count}")
        raw = rng.lognormal(mean=np.log(self.median), sigma=self.sigma,
                            size=count)
        return np.clip(np.ceil(raw), 1, self.cap).astype(np.int64)


def length_statistics(lengths: Sequence[int]) -> Dict[str, float]:
    """The per-step statistics Figure 2 plots: max / p75 / p50 and the
    under-utilisation gap between p75 and max."""
    arr = np.asarray(list(lengths), dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("lengths must be non-empty")
    p50 = float(np.percentile(arr, 50))
    p75 = float(np.percentile(arr, 75))
    longest = float(arr.max())
    return {
        "max": longest,
        "p75": p75,
        "p50": p50,
        "q3_max_gap": longest - p75,
        "mean": float(arr.mean()),
    }
