"""SpotTrainer: opportunistic, preemptible drafter training (paper §4.2).

Ties the pieces together: the RL loop hands finished rollout sequences to
:meth:`SpotTrainer.ingest`; whenever the coordinator grants a training
slice (idle workers during the long tail), :meth:`train_slice` samples a
one-step-offset batch from the DataBuffer, runs as many optimisation
steps as the slice allows, and checkpoints selectively/asynchronously so
preemption loses almost no progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.drafter.training import (
    DrafterTrainer,
    TrainingSequence,
    build_training_batch,
)
from repro.errors import DataBufferError, DrafterError
from repro.spot.checkpoint import CheckpointManager
from repro.spot.databuffer import OnlineDataBuffer


@dataclass
class SpotTrainingReport:
    """Outcome of one training slice.

    Attributes:
        updates: optimisation steps completed.
        positions: training positions in the sampled batch.
        ce_loss: final cross-entropy loss of the slice.
        checkpoint_foreground_s: caller-blocking checkpoint time.
    """

    updates: int
    positions: int
    ce_loss: float
    checkpoint_foreground_s: float


@dataclass
class SpotTrainer:
    """Preemptible drafter trainer fed by the Online DataBuffer.

    Attributes:
        trainer: the drafter optimisation wrapper.
        buffer: the cross-step rollout cache.
        checkpoints: selective async checkpoint manager.
        batch_sequences: sequences sampled per slice.
        max_positions: per-slice cap on training positions.
        checkpoint_every: checkpoint cadence in updates.
    """

    trainer: DrafterTrainer
    buffer: OnlineDataBuffer
    checkpoints: Optional[CheckpointManager] = None
    batch_sequences: int = 16
    max_positions: int = 2048
    checkpoint_every: int = 20
    _updates_total: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.batch_sequences < 1:
            raise DrafterError("batch_sequences must be >= 1")
        if self.max_positions < 1:
            raise DrafterError("max_positions must be >= 1")
        if self.checkpoint_every < 1:
            raise DrafterError("checkpoint_every must be >= 1")

    # -- data path ------------------------------------------------------------

    def begin_step(self, step: int) -> None:
        """Announce a new RL step to the DataBuffer."""
        self.buffer.begin_step(step)

    def ingest(self, sequences: Sequence[TrainingSequence]) -> None:
        """Add finished rollout sequences (partial set) to the buffer.

        The buffer keeps only the layers the drafter reads: each
        sequence's stack is cut to the suffix that starts at the lowest
        fused layer (``(T, 1, d)`` for EAGLE's top layer, the full stack
        for EAGLE-3's bottom/middle/top), as an owned copy, so the
        caller's full stacks are freed once it drops them.  The drafter
        counts its layers from the top, so it reads the suffix exactly
        as it read the full stack.
        """
        lo = min(self.trainer.drafter.layer_offsets)
        self.buffer.add(
            [
                TrainingSequence(
                    seq.tokens, seq.hidden_stacks[:, lo:].copy(),
                    seq.step_index,
                )
                for seq in sequences
            ]
        )

    # -- training ------------------------------------------------------------

    def train_slice(
        self,
        max_updates: int,
        rng: np.random.Generator,
    ) -> SpotTrainingReport:
        """Run ``max_updates`` optimisation steps.

        Args:
            max_updates: update budget for this slice.
            rng: generator for buffer sampling.

        Returns:
            A :class:`SpotTrainingReport`; when the buffer is empty the
            report carries zero updates.
        """
        if max_updates < 1:
            raise DrafterError("max_updates must be >= 1")
        try:
            batch = build_training_batch(
                self.buffer.sample_sequences(self.batch_sequences, rng),
                unroll_steps=self.trainer.config.strategy.unroll_steps,
                max_positions=self.max_positions,
                rng=rng,
            )
        except (DataBufferError, DrafterError):
            # Empty buffer, or nothing long enough to train on.
            return SpotTrainingReport(
                updates=0, positions=0, ce_loss=float("nan"),
                checkpoint_foreground_s=0.0,
            )

        ckpt_foreground = 0.0
        ce_loss = float("nan")
        # Dropped with the slice: the policy may move before the next.
        prepared = self.trainer.prepare(batch)
        for _ in range(max_updates):
            report = self.trainer.train_step(batch, prepared)
            ce_loss = report.ce_loss
            self._updates_total += 1
            if (
                self.checkpoints is not None
                and self._updates_total % self.checkpoint_every == 0
            ):
                ckpt_foreground += self._checkpoint()
        if self.checkpoints is not None:
            ckpt_foreground += self._checkpoint()
        return SpotTrainingReport(
            updates=max_updates,
            positions=batch.num_positions,
            ce_loss=ce_loss,
            checkpoint_foreground_s=ckpt_foreground,
        )

    def preempt(self) -> float:
        """Preemption signal: checkpoint immediately (foreground time)."""
        if self.checkpoints is None:
            return 0.0
        return self._checkpoint()

    def restore(self, path: str) -> None:
        """Resume from a checkpoint a slice or :meth:`preempt` wrote:
        weights, Adam's moments and the step counts, so the next update
        continues the run instead of restarting bias correction."""
        if self.checkpoints is None:
            raise DrafterError("restore needs a CheckpointManager")
        self.checkpoints.wait_all()
        self.trainer.load_state_dict(self.checkpoints.load(path))

    def snapshot_drafter(self):
        """Freeze the current drafter weights for publication.

        Returns a deep copy of the drafter being trained, suitable for
        handing to a live engine pool
        (:meth:`repro.serving.frontend.ServingEngine.swap_drafter`, as
        :meth:`repro.longtail.ColocatedLoop.publish_drafter` does): training
        continues mutating the original while the snapshot serves.
        """
        return self.trainer.drafter.clone()

    @property
    def total_updates(self) -> int:
        """Drafter updates across all slices."""
        return self._updates_total

    def _checkpoint(self) -> float:
        assert self.checkpoints is not None
        result = self.checkpoints.save(
            self.trainer.state_dict(),
            step=self._updates_total,
            mode="selective_async",
        )
        return result.foreground_s
