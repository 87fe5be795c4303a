"""Online DataBuffer with one-step-offset sampling (paper §4.2).

Spot training must start before the long-tail stragglers of the current
rollout finish, so the buffer mixes two sources:

* **current partial set** — sequences already finished in this RL step
  (mostly short, by definition of the long tail);
* **previous step's long sequences** — slightly stale but covering the
  length regime the partial set lacks (the "one-step offset" sampling).

The buffer persists across RL steps and evicts oldest-step-first when the
token budget is exceeded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.drafter.training import TrainingSequence
from repro.errors import DataBufferError


@dataclass(frozen=True)
class BufferStats:
    """Occupancy snapshot.

    Attributes:
        num_sequences: stored sequences.
        total_tokens: stored tokens (eviction unit).
        steps: distinct RL step indices present.
        current_step: the step the buffer is collecting for.
    """

    num_sequences: int
    total_tokens: int
    steps: List[int]
    current_step: int


class OnlineDataBuffer:
    """Host-memory cache of rollout sequences + hidden states.

    Args:
        capacity_tokens: eviction threshold (sum of sequence lengths).
        long_fraction: fraction of a sampled batch drawn from the
            previous step's longest sequences.
    """

    def __init__(
        self, capacity_tokens: int = 1_000_000, long_fraction: float = 0.5
    ) -> None:
        if capacity_tokens < 1:
            raise DataBufferError("capacity_tokens must be >= 1")
        if not 0.0 <= long_fraction <= 1.0:
            raise DataBufferError("long_fraction must be in [0, 1]")
        self.capacity_tokens = capacity_tokens
        self.long_fraction = long_fraction
        self._by_step: "OrderedDict[int, List[TrainingSequence]]" = (
            OrderedDict()
        )
        self._total_tokens = 0
        self._current_step = 0

    # -- lifecycle ---------------------------------------------------------

    def begin_step(self, step: int) -> None:
        """Mark the start of RL step ``step``.

        Steps must be non-decreasing; the buffer keeps earlier steps until
        eviction reclaims them.
        """
        if step < self._current_step:
            raise DataBufferError(
                f"steps must be non-decreasing: {step} < "
                f"{self._current_step}"
            )
        self._current_step = step
        self._by_step.setdefault(step, [])

    def add(self, sequences: Sequence[TrainingSequence]) -> None:
        """Add finished sequences for the current step and maybe evict."""
        bucket = self._by_step.setdefault(self._current_step, [])
        for seq in sequences:
            stamped = TrainingSequence(
                tokens=seq.tokens,
                hidden_stacks=seq.hidden_stacks,
                step_index=self._current_step,
            )
            bucket.append(stamped)
            self._total_tokens += stamped.length
        self._evict()

    # -- sampling ------------------------------------------------------------

    def sample_sequences(
        self,
        count: int,
        rng: np.random.Generator,
    ) -> List[TrainingSequence]:
        """One-step-offset sampling of training sequences.

        Up to ``long_fraction * count`` sequences come from the previous
        step, longest first; the rest are drawn uniformly from the current
        step's partial set.  Shortfalls on either side are backfilled from
        the other.

        Raises:
            DataBufferError: when the buffer is empty.
        """
        if count < 1:
            raise DataBufferError("count must be >= 1")
        current = list(self._by_step.get(self._current_step, []))
        previous = self._previous_step_sequences()
        if not current and not previous:
            raise DataBufferError("buffer is empty")

        want_long = int(round(count * self.long_fraction))
        long_pool = sorted(previous, key=lambda s: -s.length)
        long_pick = long_pool[:want_long]

        remaining = count - len(long_pick)
        current_pick: List[TrainingSequence] = []
        if current and remaining > 0:
            take = min(remaining, len(current))
            idx = rng.choice(len(current), size=take, replace=False)
            current_pick = [current[i] for i in idx]
        shortfall = count - len(long_pick) - len(current_pick)
        if shortfall > 0:
            extra = long_pool[len(long_pick) : len(long_pick) + shortfall]
            long_pick = long_pick + extra
        picked = long_pick + current_pick
        if not picked:
            raise DataBufferError("buffer is empty")
        return picked

    # -- introspection -----------------------------------------------------

    @property
    def total_tokens(self) -> int:
        """Stored tokens across all steps."""
        return self._total_tokens

    @property
    def num_sequences(self) -> int:
        """Stored sequences across all steps."""
        return sum(len(v) for v in self._by_step.values())

    def stats(self) -> BufferStats:
        """Occupancy snapshot."""
        return BufferStats(
            num_sequences=self.num_sequences,
            total_tokens=self._total_tokens,
            steps=sorted(self._by_step),
            current_step=self._current_step,
        )

    # -- internals -----------------------------------------------------------

    def _previous_step_sequences(self) -> List[TrainingSequence]:
        steps = [s for s in self._by_step if s < self._current_step]
        if not steps:
            return []
        return list(self._by_step[max(steps)])

    def _evict(self) -> None:
        """Evict oldest steps first until within the token budget.

        The current step is never evicted (it is the training signal).
        """
        while self._total_tokens > self.capacity_tokens:
            oldest = next(iter(self._by_step), None)
            if oldest is None or oldest == self._current_step:
                break
            removed = self._by_step.pop(oldest)
            self._total_tokens -= sum(s.length for s in removed)
