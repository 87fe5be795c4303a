"""Open-R1-like baseline: disaggregated placement, coupled batches.

Open-R1 (TRL + vLLM + DeepSpeed) places serving and training on separate
nodes, so each phase runs on only part of the cluster while the rest sits
idle.  Its rollout batch is tightly coupled to the training batch, so a
global batch is generated in several sequential *waves* — and every wave
pays its own long-tail straggler, which is why the paper measures it an
order of magnitude behind VeRL.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simulator import (
    ClusterSpec,
    RlStepSimulator,
    StepWorkload,
)
from repro.errors import ConfigError
from repro.hardware.gpus import ModelSpec
from repro.systems.base import RlSystem, SystemStepReport

#: Share of the roofline rollout speed the TRL + vLLM stack reaches.
ROLLOUT_EFFICIENCY = 0.75
#: Sequential rollout waves one global batch is generated in.
ROLLOUT_WAVES = 4
#: Per-step stage-transition cost of the training half, in seconds.
TRANSITION_OVERHEAD_S = 20.0


class OpenR1System(RlSystem):
    """Disaggregated serving/training with wave-coupled rollouts."""

    name = "Open-R1"

    def __init__(self, model: ModelSpec, cluster: ClusterSpec) -> None:
        super().__init__(model, cluster)
        if cluster.num_workers < 2:
            raise ConfigError(
                "Open-R1 needs >= 2 workers (separate placement)"
            )
        serving_workers = cluster.num_workers // 2
        training_workers = cluster.num_workers - serving_workers
        self._serving_cluster = ClusterSpec(
            num_workers=serving_workers,
            gpus_per_worker=cluster.gpus_per_worker,
            gpu=cluster.gpu,
        )
        self._training_cluster = ClusterSpec(
            num_workers=training_workers,
            gpus_per_worker=cluster.gpus_per_worker,
            gpu=cluster.gpu,
        )
        self._serving_sim = RlStepSimulator(
            model=model,
            cluster=self._serving_cluster,
            sd_config=None,
            spot_training=False,
            transition_overhead_s=0.0,
            check_training_memory=False,
        )
        self._training_sim = RlStepSimulator(
            model=model,
            cluster=self._training_cluster,
            sd_config=None,
            spot_training=False,
            transition_overhead_s=TRANSITION_OVERHEAD_S,
            # DeepSpeed ZeRO offloads optimizer state to host memory, so
            # the disaggregated trainer does not hit the device-OOM guard
            # (it pays in step time through the efficiency factor instead).
            check_training_memory=False,
        )

    def simulate_step(self, workload: StepWorkload) -> SystemStepReport:
        lengths = np.asarray(list(workload.lengths))
        waves = np.array_split(lengths, ROLLOUT_WAVES)
        rollout_s = 0.0
        for wave in waves:
            if wave.size == 0:
                continue
            wave_load = StepWorkload(lengths=wave.tolist())
            result = self._serving_sim.simulate_step(wave_load)
            rollout_s += result.rollout_s
        rollout_s /= ROLLOUT_EFFICIENCY

        # Inference + training run on the training half only.
        train_result = self._training_sim.simulate_step(workload)
        step_time = (
            rollout_s
            + train_result.inference_s
            + train_result.training_s
            + train_result.transition_s
        )
        throughput = workload.total_tokens / step_time
        return SystemStepReport(
            system=self.name,
            step_time_s=step_time,
            throughput_tps=throughput,
            phases={
                "rollout": rollout_s,
                "inference": train_result.inference_s,
                "training": train_result.training_s,
                "transition": train_result.transition_s,
            },
        )
