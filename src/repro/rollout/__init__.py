"""Adaptive Rollout Engine (paper §5).

Couples the algorithmic speculative-decoding layer with the roofline cost
model to simulate continuous-batching rollouts:

* :mod:`repro.rollout.acceptance` — accept-length models (parametric,
  calibrated to the paper's Figure 13 saturation curve, plus
  measurement-backed tables from the TinyLM substrate);
* :mod:`repro.rollout.engine` — the fluid rollout simulator with elastic
  SD activation below a running-request threshold (Figure 14);
* :mod:`repro.rollout.adaptive` — the Adaptive SD Manager gluing the
  CUDAGraph pool, the BEG-MAB selector and the elastic threshold.
"""

from repro.rollout.acceptance import (
    AcceptanceModel,
    MeasuredAcceptance,
    ParametricAcceptance,
)
from repro.rollout.adaptive import AdaptiveSdManager, AdaptiveSdConfig
from repro.rollout.engine import (
    RolloutEngine,
    RolloutTimeline,
    TimelinePoint,
)

__all__ = [
    "AcceptanceModel",
    "ParametricAcceptance",
    "MeasuredAcceptance",
    "AdaptiveSdConfig",
    "AdaptiveSdManager",
    "RolloutEngine",
    "RolloutTimeline",
    "TimelinePoint",
]
