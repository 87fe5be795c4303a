"""Small statistics helpers used across the simulator and benchmarks."""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Sequence

import numpy as np


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values (paper's Geomean column)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


class SlidingWindow:
    """Fixed-capacity window of recent observations (deque-backed).

    The BEG-MAB tuner keeps one window of rewards and one of accept lengths
    per strategy; the window median is the exploitation criterion
    (Algorithm 1, line 19).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._window: Deque[float] = deque(maxlen=capacity)

    def append(self, value: float) -> None:
        """Add one observation, evicting the oldest when full."""
        self._window.append(float(value))

    def __len__(self) -> int:
        return len(self._window)

    def __iter__(self):
        return iter(self._window)

    @property
    def is_empty(self) -> bool:
        """Whether no observation has been recorded yet."""
        return not self._window

    def median(self) -> float:
        """Median of the retained observations."""
        if not self._window:
            raise ValueError("median of empty window")
        return float(np.median(np.asarray(self._window)))

    def mean(self) -> float:
        """Mean of the retained observations."""
        if not self._window:
            raise ValueError("mean of empty window")
        return float(np.mean(np.asarray(self._window)))

    def values(self) -> List[float]:
        """Snapshot of retained observations, oldest first."""
        return list(self._window)
