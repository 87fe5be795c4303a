"""The closed loop: RL trainer ↔ shared serving pool ↔ drafter refresh.

The paper's bubble argument applied to serving: long-tail decoding
leaves pool capacity idle, and RL rollout traffic — throughput-oriented,
deadline-free — is exactly the workload that can soak it.
:class:`~repro.longtail.scheduler.RolloutScheduler` puts the trainer's
rollouts on the pool; :class:`ColocatedLoop` adds the other half: after
each RL step the spot trainer ingests the finished rollouts, refreshes
the drafter inside the long-tail bubble, and publishes the snapshot
pool-wide through the rolling hot swap — trainer → spot train →
publish → pool → rollouts → trainer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.drafter.base import Drafter
from repro.drafter.training import collect_training_sequences
from repro.errors import ConfigError
from repro.longtail.scheduler import RolloutScheduler

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.rl.trainer import RlStepReport, RlTrainer
    from repro.serving.metrics import ServingReport
    from repro.spot.trainer import SpotTrainer


class ColocatedLoop:
    """The closed loop: RL trainer ↔ shared pool ↔ drafter refresh.

    :meth:`run` is the one stepping loop; each round is one turn of
    the paper's loop lifted onto a live serving pool:

    1. the trainer's rollout batch rides the pool as BATCH traffic
       (:class:`~repro.longtail.scheduler.RolloutScheduler`), preempted
       and resumed around whatever interactive load the pool is
       carrying;
    2. finished rollouts feed the spot trainer's DataBuffer and a
       training slice runs in the long-tail bubble;
    3. the refreshed drafter is published pool-wide through the rolling
       hot swap — the next round's rollouts (and all interactive
       traffic) speculate with it.

    Args:
        trainer: the RL trainer, built over a
            :class:`~repro.longtail.scheduler.RolloutScheduler`; the
            scheduler's pool is the loop's :attr:`frontend`.
        spot: optional spot drafter trainer; omitted = no refresh
            (TLT-Base-style loop).
        spot_updates_per_round: drafter update budget per bubble.
        spot_rng: generator for spot-buffer sampling.
    """

    def __init__(
        self,
        trainer: "RlTrainer",
        spot: Optional["SpotTrainer"] = None,
        spot_updates_per_round: int = 20,
        spot_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not isinstance(trainer.backend, RolloutScheduler):
            raise ConfigError(
                "ColocatedLoop needs a trainer whose backend rides the "
                f"shared pool; got {type(trainer.backend).__name__}"
            )
        if spot_updates_per_round < 1:
            raise ConfigError("spot_updates_per_round must be >= 1")
        #: The shared serving pool the trainer's rollouts ride.
        self.frontend = trainer.backend.engine
        self.trainer = trainer
        self.spot = spot
        self.spot_updates_per_round = spot_updates_per_round
        self.spot_rng = (
            spot_rng if spot_rng is not None
            else np.random.default_rng(0)
        )
        #: Drafter snapshots published pool-wide, in round order.
        self.published: List[Drafter] = []

    def publish_drafter(self) -> Drafter:
        """Deploy the spot trainer's current weights pool-wide.

        Snapshot (training keeps mutating the original) + the pool's
        zero-downtime rolling swap: one worker per tick, each at its
        own cycle boundary, in-flight interactive requests and parked
        rollouts untouched.
        """
        if self.spot is None:
            raise ConfigError(
                "publish_drafter() needs a spot trainer; this loop was "
                "built without a refresh path"
            )
        published = self.spot.snapshot_drafter()
        self.frontend.swap_drafter(published)
        self.published.append(published)
        return published

    def run(
        self, num_rounds: int, lookahead: int = 0
    ) -> List["RlStepReport"]:
        """Run ``num_rounds`` RL steps, each followed by the refresh.

        Keeps up to ``lookahead`` extra batches staged ahead of the one
        being trained on: while batch *k*'s stragglers decode, batch
        *k+1*'s short requests are already filling the freed slots, and
        batch *k* is still delivered group-complete before its update
        runs.  Trainer RNG order is preserved — ``sample_prompts`` and
        the scheduler's in-prompt-order seed draw alternate exactly as
        :meth:`~repro.rl.trainer.RlTrainer.step`'s calls would — so the
        *requests* are identical at every ``lookahead`` and
        ``lookahead=0`` is ``trainer.step()`` byte for byte; a
        looked-ahead batch *is* rolled out under a policy (and drafter)
        up to ``lookahead`` updates stale, the classic async-RL
        freshness trade the caller opts into.

        With a spot trainer attached every step ends with the refresh:
        ingest the finished rollouts, train a slice in the bubble
        (drawing from ``spot_rng`` only), publish the snapshot.

        Returns the per-step reports.
        """
        if num_rounds < 1:
            raise ConfigError(f"num_rounds must be >= 1, got {num_rounds}")
        if lookahead < 0:
            raise ConfigError(f"lookahead must be >= 0, got {lookahead}")
        trainer = self.trainer
        scheduler = trainer.backend
        config = trainer.config
        in_flight: List = []  # (batch_id, PromptBatch)
        submitted = 0
        reports: List["RlStepReport"] = []
        for _ in range(num_rounds):
            while submitted < num_rounds and len(in_flight) <= lookahead:
                prompts = trainer.sample_prompts()
                batch_id = scheduler.submit_batch(
                    trainer.policy,
                    prompts.expanded,
                    config.max_new_tokens,
                    config.temperature,
                    trainer.rng,
                )
                in_flight.append((batch_id, prompts))
                submitted += 1
            batch_id, prompts = in_flight.pop(0)
            step = trainer.steps_done
            if self.spot is not None:
                self.spot.begin_step(step)
            rollout = scheduler.collect(batch_id)
            reports.append(trainer.step(rollout=rollout, prompts=prompts))
            if self.spot is not None:
                self.spot.ingest(
                    collect_training_sequences(
                        trainer.policy, rollout.full_sequences, step
                    )
                )
                self.spot.train_slice(
                    self.spot_updates_per_round, self.spot_rng
                )
                self.publish_drafter()
        return reports

    def drain(self) -> "ServingReport":
        """Serve remaining interactive traffic (and finish any swap).

        Rollout rounds only tick the pool until *their* requests
        resolve; call this when the loop is done to drain leftover
        online traffic and collect the pool-wide report.
        """
        return self.frontend.run(())

    def metrics(self) -> Dict[str, float]:
        """Loop-level headline numbers (pool + trainer)."""
        report = self.frontend.report()
        out = {
            "rounds": float(self.trainer.steps_done),
            "published_drafters": float(len(self.published)),
            "pool_preemptions": float(report.preemptions),
            "pool_ticks": float(report.ticks),
        }
        for name, value in report.class_utilization.items():
            out[f"utilization_{name}"] = value
        return out
