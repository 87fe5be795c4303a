"""Acceptance/throughput accounting for speculative decoding runs.

The paper reports three intermediate metrics this module computes:
*average accept length* (tokens committed per verification cycle, the
``Σ accept_lens / batch + 1`` of Algorithm 1), *per-position accept rate*
(Figure 16), and drafted/verified token counts that feed the roofline cost
model for speedup estimates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.cache.manager import CacheStats


@dataclass(frozen=True)
class SdCycleStats:
    """Bookkeeping for one draft/verify cycle of one sequence.

    Attributes:
        accepted: accepted draft tokens (bonus token excluded).
        committed: tokens committed this cycle (accepted + 1 bonus).
        drafted: draft tokens submitted for verification.
        draft_steps: drafter forward steps spent building the draft.
        verify_batch: rows in the batched target verification forward.
    """

    accepted: int
    committed: int
    drafted: int
    draft_steps: int
    verify_batch: int


@dataclass
class AcceptanceProfile:
    """Per-draft-position acceptance counters (Figure 16).

    ``attempts[i]`` counts cycles where an acceptance round was attempted at
    draft position ``i+1``; ``accepts[i]`` counts successes there.
    """

    attempts: List[int] = field(default_factory=list)
    accepts: List[int] = field(default_factory=list)

    def record(
        self, depth_attempts: Sequence[int], depth_accepts: Sequence[int]
    ) -> None:
        """Fold one cycle's per-depth counters into the profile."""
        for depth, count in enumerate(depth_attempts):
            self._grow(depth + 1)
            self.attempts[depth] += count
        for depth, count in enumerate(depth_accepts):
            self._grow(depth + 1)
            self.accepts[depth] += count

    def rates(self) -> List[float]:
        """Acceptance rate per draft position (positions with attempts)."""
        out: List[float] = []
        for attempted, accepted in zip(self.attempts, self.accepts):
            if attempted == 0:
                break
            out.append(accepted / attempted)
        return out

    def _grow(self, depth: int) -> None:
        while len(self.attempts) < depth:
            self.attempts.append(0)
            self.accepts.append(0)


@dataclass
class SdRunMetrics:
    """Aggregate metrics across cycles (and sequences).

    Attributes:
        cycles: per-cycle statistics in execution order.
        profile: per-position acceptance profile.
        queue_depths: waiting-queue depth observed after each engine
            cycle's admission wave.
        wait_cycles: per-request cycles spent waiting before admission,
            in admission order.
    """

    cycles: List[SdCycleStats] = field(default_factory=list)
    profile: AcceptanceProfile = field(default_factory=AcceptanceProfile)
    queue_depths: List[int] = field(default_factory=list)
    wait_cycles: List[int] = field(default_factory=list)

    def add_cycle(self, stats: SdCycleStats) -> None:
        """Record one cycle."""
        self.cycles.append(stats)

    def record_queue_depth(self, depth: int) -> None:
        """Record the waiting-queue depth after one cycle's admission."""
        self.queue_depths.append(int(depth))

    def record_wait(self, cycles: int) -> None:
        """Record one admitted request's waiting time in cycles."""
        self.wait_cycles.append(int(cycles))

    @property
    def num_cycles(self) -> int:
        """Number of draft/verify cycles recorded."""
        return len(self.cycles)

    @property
    def total_committed(self) -> int:
        """Total committed tokens (accepted + bonus) across cycles."""
        return sum(c.committed for c in self.cycles)

    @property
    def total_drafted(self) -> int:
        """Total drafted tokens across cycles."""
        return sum(c.drafted for c in self.cycles)

    @property
    def mean_accept_length(self) -> float:
        """Average committed tokens per cycle (the paper's accept length)."""
        if not self.cycles:
            return 0.0
        return self.total_committed / len(self.cycles)

    @property
    def mean_accepted(self) -> float:
        """Average accepted draft tokens per cycle (bonus excluded)."""
        if not self.cycles:
            return 0.0
        return sum(c.accepted for c in self.cycles) / len(self.cycles)

    @property
    def draft_efficiency(self) -> float:
        """Accepted draft tokens / drafted tokens (0 when nothing drafted)."""
        drafted = self.total_drafted
        if drafted == 0:
            return 0.0
        return sum(c.accepted for c in self.cycles) / drafted

    @property
    def mean_queue_depth(self) -> float:
        """Average waiting-queue depth per cycle (0 when unrecorded)."""
        if not self.queue_depths:
            return 0.0
        return sum(self.queue_depths) / len(self.queue_depths)

    @property
    def max_queue_depth(self) -> int:
        """Deepest waiting queue observed (0 when unrecorded)."""
        if not self.queue_depths:
            return 0
        return max(self.queue_depths)

    @property
    def mean_wait_cycles(self) -> float:
        """Average per-request admission wait in cycles."""
        if not self.wait_cycles:
            return 0.0
        return sum(self.wait_cycles) / len(self.wait_cycles)

    def merged(self, other: "SdRunMetrics") -> "SdRunMetrics":
        """Combine two metric sets (e.g. across sequences)."""
        merged = SdRunMetrics(
            cycles=self.cycles + other.cycles,
            queue_depths=self.queue_depths + other.queue_depths,
            wait_cycles=self.wait_cycles + other.wait_cycles,
        )
        merged.profile.record(other.profile.attempts, other.profile.accepts)
        merged.profile.record(self.profile.attempts, self.profile.accepts)
        return merged

    def summary(self) -> Dict[str, float]:
        """Dict summary used by benchmark rows."""
        return {
            "cycles": float(self.num_cycles),
            "accept_length": self.mean_accept_length,
            "accepted_per_cycle": self.mean_accepted,
            "draft_efficiency": self.draft_efficiency,
            "total_committed": float(self.total_committed),
            "mean_queue_depth": self.mean_queue_depth,
            "mean_wait_cycles": self.mean_wait_cycles,
        }


def _leafwise(left, right, op: Callable[[int, int], int]):
    """``op`` over two ledgers: ints, per-key dicts, nested dataclasses."""
    if isinstance(left, dict):
        return {
            key: op(left.get(key, 0), right.get(key, 0))
            for key in {**left, **right}
        }
    if is_dataclass(left):
        return type(left)(
            **{
                f.name: _leafwise(
                    getattr(left, f.name), getattr(right, f.name), op
                )
                for f in fields(left)
            }
        )
    return op(left, right)


@dataclass
class WorkerCounters:
    """The one ledger of a worker's monotonic counts.

    Each count is written in exactly one place — where the event
    happens, on the ledger its engine owns (``engine.counters``, reset
    by one assignment in ``start()``) — and every layer above reads it
    from here: a :class:`~repro.serving.metrics.ServingReport` carries
    one snapshot per worker and its named totals are sums over them
    (ledgers add and subtract field by field), so a counter added here
    reaches every report without another line.

    Attributes:
        busy_cycles: decode cycles the engine executed.
        target_steps: batched target forward launches (prefill waves,
            SD verifications and vanilla steps each count once).
        prefill_launches: per-sequence prefill forwards computed — one
            per prefilled row through the batched prefill forward, the
            quantity prefix caching amortises (``target_steps`` counts
            the batched *waves*, 0-or-1 per admission cycle).
        prefill_launches_saved: prefill forwards avoided: exact-prompt
            cache hits plus same-wave duplicates that shared one
            leader's row.  Always 0 without an attached cache.
        prefill_tokens: prompt tokens actually prefilled — each
            computed prompt is charged the suffix of its effective
            context beyond what cached blocks covered (the full context
            without a cache).
        prefill_tokens_saved: prompt tokens the prefill stage avoided:
            exact hits and same-wave duplicates save their whole
            effective context, partial block reuse the covered prefix.
        draft_launches: batched drafter launches this worker's batch
            issues (one ``begin_batch``, ``propose_batch`` or fused
            ``extend_propose_batch`` call each count once) — charged as
            if it drafted alone, even when its rows ride a pool- or
            fleet-wide call: a worker models one accelerator.
        draft_launches_saved: drafter launches avoided versus per-node
            drafting (``sum(tree.draft_calls)`` minus the launches
            actually issued).
        segment_accepted: draft tokens accepted per workload segment
            (segment-tagged requests only) — with ``segment_drafted``
            the signal the drafter zoo's bandit learns from.
        segment_drafted: draft tokens proposed per workload segment.
        cache: the attached prefix cache's own
            :class:`~repro.cache.manager.CacheStats` — the live object
            on an engine's ledger (the cache writes it and outlives a
            session), a copy in a report; zeros without a cache.
    """

    busy_cycles: int = 0
    target_steps: int = 0
    prefill_launches: int = 0
    prefill_launches_saved: int = 0
    prefill_tokens: int = 0
    prefill_tokens_saved: int = 0
    draft_launches: int = 0
    draft_launches_saved: int = 0
    segment_accepted: Dict[str, int] = field(default_factory=dict)
    segment_drafted: Dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)

    def __add__(self, other: "WorkerCounters") -> "WorkerCounters":
        return _leafwise(self, other, operator.add)

    def __sub__(self, other: "WorkerCounters") -> "WorkerCounters":
        return _leafwise(self, other, operator.sub)
