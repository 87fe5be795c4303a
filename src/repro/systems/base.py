"""Common interface for end-to-end system models: most systems are one
configured :class:`~repro.cluster.simulator.RlStepSimulator`, whose step
:meth:`RlSystem.simulate_step` reports (OpenR1 overrides it)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster.simulator import (
    ClusterSpec,
    RlStepSimulator,
    StepWorkload,
)
from repro.hardware.gpus import ModelSpec


@dataclass
class SystemStepReport:
    """One system's result on one RL-step workload.

    Attributes:
        system: system name.
        step_time_s: wall-clock of the step.
        throughput_tps: (prompt+response tokens) / step time.
        phases: phase-duration breakdown.
        drafter_updates: spot-trainer updates harvested (TLT only).
    """

    system: str
    step_time_s: float
    throughput_tps: float
    phases: Dict[str, float]
    drafter_updates: int = 0


class RlSystem:
    """An RL training system: placement + rollout acceleration policy."""

    name: str = "system"
    _simulator: RlStepSimulator

    def __init__(self, model: ModelSpec, cluster: ClusterSpec) -> None:
        self.model = model
        self.cluster = cluster

    def simulate_step(self, workload: StepWorkload) -> SystemStepReport:
        """Simulate one RL step of this system on ``workload``."""
        result = self._simulator.simulate_step(workload)
        return SystemStepReport(
            system=self.name,
            step_time_s=result.step_time_s,
            throughput_tps=result.throughput_tps,
            phases={
                "rollout": result.rollout_s,
                "inference": result.inference_s,
                "training": result.training_s,
                "transition": result.transition_s,
            },
            drafter_updates=result.drafter_updates,
        )
