"""Draft models (paper §4) and their unified training framework.

Provides the learned single-layer drafters (EAGLE, HASS, EAGLE-3 training
strategies), OSD-style distillation, and the unified trainer that
consumes cached target hidden states exactly as the paper's spot trainer
does.  The paper's model-free TLT-Base drafter has no live counterpart:
the simulator prices it with ``repro.systems.tlt.MODEL_FREE_QUALITY``.
"""

from repro.drafter.base import Drafter
from repro.drafter.eagle import EagleDrafter, EagleDrafterConfig
from repro.drafter.training import (
    DrafterTrainer,
    DrafterTrainingConfig,
    TrainingBatch,
    TrainingStrategy,
    evaluate_topk_accuracy,
)

__all__ = [
    "Drafter",
    "EagleDrafter",
    "EagleDrafterConfig",
    "DrafterTrainer",
    "DrafterTrainingConfig",
    "TrainingBatch",
    "TrainingStrategy",
    "evaluate_topk_accuracy",
]
