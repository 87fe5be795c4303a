"""VeRL-like baseline: colocated time-sharing, vanilla decoding.

The paper's strongest baseline (HybridFlow): all workers serve the
rollout, then the same GPUs run inference and training via time-sharing.
No speculative decoding, no bubble harvesting — the long tail leaves
early-finishing workers idle.
"""

from __future__ import annotations

from repro.cluster.simulator import ClusterSpec, RlStepSimulator
from repro.hardware.gpus import ModelSpec
from repro.systems.base import RlSystem


class VerlSystem(RlSystem):
    """Colocated RL training without rollout acceleration."""

    name = "VeRL"

    def __init__(self, model: ModelSpec, cluster: ClusterSpec) -> None:
        super().__init__(model, cluster)
        self._simulator = RlStepSimulator(
            model=model,
            cluster=cluster,
            sd_config=None,
            spot_training=False,
        )
