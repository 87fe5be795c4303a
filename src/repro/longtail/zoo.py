"""Continual drafter zoo: per-segment specialists behind a bandit.

One shared drafter chases the whole rollout distribution at once; the
paper's continual-adaptation argument says that is the wrong shape for
a *segmented* workload (short-form vs long-form reasoning, distinct
task families, distinct token ranges).  The zoo keeps a small set of
drafters — **arms** — and, per workload segment, a greedy bandit in
the repo's BEG-MAB idiom (sliding-window scores, unexplored-first; it
exploits and never explores) that decides which arm the segment's
traffic speculates with.  The shared generalist is always one of the arms, so
selection can never do worse than the single-drafter baseline once the
windows fill.

Deployment rides the serving pool's existing machinery end to end:

* each segment has a **home worker**; :class:`~repro.serving.dispatch.
  SegmentAffinityDispatch` routes segment-tagged requests there (the
  placement dict is shared — the zoo owns it, dispatch reads it);
* the segment's selected arm is published to its home worker through
  :meth:`~repro.serving.frontend.ServingEngine.swap_worker_drafter` —
  the per-worker generalization of the rolling hot swap, zero
  downtime, one swap per tick;
* acceptance feedback comes from the pool's per-segment counters
  (``segment_accepted`` / ``segment_drafted`` of the report's
  :attr:`~repro.serving.metrics.ServingReport.totals` ledger),
  observed as *deltas* so the bandit scores what happened since its
  last look, not the run's whole history.

Speculative decoding is *distribution*-lossless: whichever arm is
hosted, every committed token is a faithful sample from the target
model, so the zoo can never push outputs off-policy.  The realized
token path does follow the draft proposals through rejection sampling,
though — swapping arms changes acceptance rates *and* the sampled
trajectory, unlike the scheduler's pure reordering (which is
byte-identical because the drafter never changes under it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.drafter.base import Drafter
from repro.errors import ConfigError, DrafterError
from repro.serving.frontend import ServingEngine
from repro.serving.metrics import ServingReport
from repro.specdec.metrics import WorkerCounters
from repro.utils.stats import SlidingWindow

#: Per-(segment, arm) sliding-window capacity for acceptance scores
#: (windowed, not running means: the target model drifts under RL
#: training, and so does each arm's quality).
WINDOW = 8


@dataclass
class _SegmentBandit:
    """Per-segment greedy state over the zoo's arms."""

    windows: Dict[str, SlidingWindow]
    current_arm: Optional[str] = None
    selections: int = 0


class DrafterZoo:
    """Per-segment drafter selection and publication.

    Args:
        arms: name -> drafter candidates.  Include the shared
            generalist (conventionally ``"shared"``) so the bandit's
            floor is the single-drafter baseline.
        segments: workload segment labels the zoo serves.

    The zoo draws no random numbers, so it consumes no trainer or
    rollout stream.
    """

    def __init__(
        self,
        arms: Dict[str, Drafter],
        segments: Sequence[str],
    ) -> None:
        if not arms:
            raise ConfigError("the zoo needs at least one arm")
        if not segments:
            raise ConfigError("the zoo needs at least one segment")
        if len(set(segments)) != len(segments):
            raise ConfigError("segment labels must be unique")
        for name, drafter in arms.items():
            if not isinstance(drafter, Drafter):
                raise ConfigError(
                    f"arm {name!r} is not a Drafter: {type(drafter)!r}"
                )
        self.arms: Dict[str, Drafter] = dict(arms)
        self.segments = list(segments)
        self._bandits: Dict[str, _SegmentBandit] = {
            segment: _SegmentBandit(
                windows={
                    name: SlidingWindow(WINDOW) for name in self.arms
                }
            )
            for segment in self.segments
        }
        #: segment -> home-worker index; the live placement map
        #: SegmentAffinityDispatch routes by (shared object, zoo-owned).
        self.segment_worker: Dict[str, int] = {}
        #: The pool's ledger at the last observe (deltas subtract it).
        self._seen = WorkerCounters()
        self.publications = 0

    # -- placement ---------------------------------------------------------

    def place(self, engine: ServingEngine) -> Dict[str, int]:
        """Assign each segment a home worker and publish its arm.

        Segments are spread round-robin across the pool's workers
        (several segments share a worker when there are more segments
        than workers — they then also share a hosted drafter, last
        selection wins, so size the pool to the segment count when
        specialization matters).  Returns the placement map.
        """
        workers = len(engine.workers)
        for index, segment in enumerate(self.segments):
            self.segment_worker[segment] = index % workers
        for segment in self.segments:
            self.publish(engine, segment)
        return self.segment_worker

    def home_worker(self, segment: str) -> int:
        """The worker hosting ``segment``'s drafter (raises unplaced)."""
        if segment not in self.segment_worker:
            raise DrafterError(
                f"segment {segment!r} has no home worker; call place()"
            )
        return self.segment_worker[segment]

    # -- selection ---------------------------------------------------------

    def select(self, segment: str) -> str:
        """Choose the arm ``segment`` should speculate with.

        BEG-MAB idiom without exploration: the best window mean —
        unexplored arms first, so every arm gets at least one
        observation before exploitation locks in.
        """
        bandit = self._bandit(segment)
        bandit.selections += 1
        names = sorted(self.arms)
        unexplored = [
            name for name in names if bandit.windows[name].is_empty
        ]
        if unexplored:
            return unexplored[0]
        return max(
            names, key=lambda name: bandit.windows[name].mean()
        )

    def publish(self, engine: ServingEngine, segment: str) -> str:
        """Select ``segment``'s arm and deploy it to its home worker.

        A no-op swap (the selected arm is already hosted) is skipped —
        republishing identical weights every round would churn the
        swap queue for nothing.  Returns the selected arm name.
        """
        choice = self.select(segment)
        bandit = self._bandit(segment)
        if bandit.current_arm != choice:
            engine.swap_worker_drafter(
                self.home_worker(segment), self.arms[choice]
            )
            bandit.current_arm = choice
            self.publications += 1
        return choice

    # -- feedback ----------------------------------------------------------

    def observe_report(self, report: ServingReport) -> None:
        """Score each segment's current arm from the pool's counters.

        Reads the report's cumulative per-segment accept/draft totals,
        scores the *delta* since the zoo's previous observation (the
        acceptance rate of traffic decoded under the currently hosted
        arm), and appends it to that arm's window.  Segments with no
        new drafted tokens are skipped — no traffic, no evidence.
        """
        totals = report.totals
        delta = totals - self._seen
        self._seen = totals
        for segment in self.segments:
            d_drafted = delta.segment_drafted.get(segment, 0)
            if d_drafted <= 0:
                continue
            bandit = self._bandit(segment)
            if bandit.current_arm is None:
                continue
            bandit.windows[bandit.current_arm].append(
                delta.segment_accepted.get(segment, 0) / d_drafted
            )

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-segment bandit summary (benchmark rows / logs)."""
        out: Dict[str, Dict[str, float]] = {}
        for segment in self.segments:
            bandit = self._bandit(segment)
            row: Dict[str, float] = {
                "selections": float(bandit.selections),
            }
            for name in sorted(self.arms):
                window = bandit.windows[name]
                row[f"mean_accept[{name}]"] = (
                    window.mean() if not window.is_empty else 0.0
                )
                row[f"observations[{name}]"] = float(len(window))
            out[segment] = row
        return out

    def _bandit(self, segment: str) -> _SegmentBandit:
        bandit = self._bandits.get(segment)
        if bandit is None:
            raise DrafterError(f"unknown segment {segment!r}")
        return bandit
