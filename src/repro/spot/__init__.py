"""Spot drafter training on idle rollout workers (paper §4.2).

Four cooperating pieces reproduce the paper's non-blocking drafter
training:

* :mod:`repro.spot.coordinator` — the Worker Coordinator state machine
  (BUSY / IDLE / TRAINING, promotion threshold, leader election,
  preemption signals);
* :mod:`repro.spot.databuffer` — the Online DataBuffer with one-step-
  offset sampling of long sequences;
* :mod:`repro.spot.checkpoint` — selective asynchronous checkpointing
  (background-thread writes, frozen-weight filtering);
* :mod:`repro.spot.packing` — sequence packing without cross-
  contamination;
* :mod:`repro.spot.trainer` — the SpotTrainer tying them together.
"""

from repro.spot.checkpoint import CheckpointManager, CheckpointResult
from repro.spot.coordinator import (
    WorkerCoordinator,
    WorkerInfo,
    WorkerState,
)
from repro.spot.databuffer import BufferStats, OnlineDataBuffer
from repro.spot.packing import (
    PackedBatch,
    first_fit_decreasing,
    pack_sequences,
    packing_efficiency,
)
from repro.spot.trainer import SpotTrainer, SpotTrainingReport

__all__ = [
    "WorkerCoordinator",
    "WorkerState",
    "WorkerInfo",
    "OnlineDataBuffer",
    "BufferStats",
    "CheckpointManager",
    "CheckpointResult",
    "PackedBatch",
    "first_fit_decreasing",
    "pack_sequences",
    "packing_efficiency",
    "SpotTrainer",
    "SpotTrainingReport",
]
