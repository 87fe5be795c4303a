"""Rollouts on the shared serving pool + continual drafter zoo.

The layer where RL meets serving: an online :class:`LengthPredictor`
estimates each prompt family's response length from observed rollouts,
a :class:`RolloutScheduler` — the one path a GRPO batch takes onto a
pool, and the trainer's one backend —
decomposes GRPO groups and admits members tail-first, pipelining the
next batch's short requests into slots the current batch's stragglers
free while delivering every batch group-complete with byte-identical
outputs, a :class:`ColocatedLoop` closes trainer → spot train →
publish → pool around it, and a :class:`DrafterZoo` keeps per-segment
specialist drafters behind an ε-greedy bandit, refreshed continually
from spot snapshots and published through per-worker rolling hot swaps.

predictor → scheduler → zoo: lengths feed admission order, segments
feed drafter choice, and the serving pool underneath never sees
anything but ordinary (reordered, tagged) requests.
"""

from repro.longtail.colocated import ColocatedLoop
from repro.longtail.predictor import (
    FamilyEstimate,
    LengthPredictor,
    PredictorCalibration,
)
from repro.longtail.scheduler import (
    RolloutScheduler,
    SchedulerMode,
    SchedulerStats,
    group_tags,
)
from repro.longtail.zoo import DrafterZoo

__all__ = [
    "ColocatedLoop",
    "FamilyEstimate",
    "LengthPredictor",
    "PredictorCalibration",
    "RolloutScheduler",
    "SchedulerMode",
    "SchedulerStats",
    "group_tags",
    "DrafterZoo",
]
