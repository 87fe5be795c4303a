"""RL-step timeline simulation across a worker cluster.

One simulated step reproduces the paper's Figure 1(b)/Figure 8 structure:

1. **Rollout** — requests are striped across workers; each worker runs
   the fluid rollout engine (optionally with adaptive SD).  Workers that
   finish early go IDLE; with spot training enabled the coordinator
   promotes them to drafter TRAINING until the global rollout completes.
2. **Inference** — policy + reference logprob forwards over all tokens.
3. **Training** — the policy update (≈3x forward FLOPs over response
   tokens).

The result carries per-worker segments (busy / idle / drafter-training)
for timeline rendering, phase durations for the Figure 1(a) breakdown,
and the token throughput metric used across the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware.gpus import BYTES_PER_PARAM, GpuSpec, ModelSpec, drafter_spec
from repro.hardware.roofline import RooflineModel
from repro.rollout.adaptive import AdaptiveSdConfig, AdaptiveSdManager
from repro.rollout.engine import PROMPT_TOKENS, RolloutEngine, RolloutTimeline
from repro.spot.coordinator import WorkerCoordinator, WorkerState

#: Bytes per parameter during training: BF16 weights + FP32 master copy
#: + two FP32 Adam moments.
TRAIN_BYTES_PER_PARAM = 14.0

#: Activation bytes per (token, layer): hidden * factor * dtype folded in
#: at the call site; the factor models attention + MLP intermediates
#: without full recomputation.
TRAIN_ACT_FACTOR = 4.0

#: Training micro-batch (sequences) whose activations are live at once,
#: split across the cluster's data-parallel ranks.
TRAIN_GLOBAL_MICROBATCH = 8.0

#: Usable fraction of device memory for training state (the rest holds
#: the colocated rollout engine's weights, KV cache and CUDA graphs).
TRAIN_MEMORY_HEADROOM = 0.6

#: Tokens per drafter optimisation step on an idle worker.
DRAFTER_STEP_TOKENS = 8192
_GIB = 1024.0**3


@dataclass(frozen=True)
class ClusterSpec:
    """The GPU cluster: homogeneous workers of TP-grouped GPUs.

    Attributes:
        num_workers: rollout instances (data-parallel degree).
        gpus_per_worker: GPUs per rollout instance (TP degree).
        gpu: per-GPU performance envelope.
    """

    num_workers: int
    gpus_per_worker: int
    gpu: GpuSpec

    def __post_init__(self) -> None:
        if self.num_workers < 1 or self.gpus_per_worker < 1:
            raise ConfigError("workers and gpus_per_worker must be >= 1")

    @property
    def total_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self.num_workers * self.gpus_per_worker


@dataclass(frozen=True)
class StepWorkload:
    """One RL step's rollout demand: response lengths (tokens), one per
    request, each behind a ``PROMPT_TOKENS`` prompt.
    """

    lengths: Sequence[int]

    def __post_init__(self) -> None:
        if len(self.lengths) == 0:
            raise ConfigError("lengths must be non-empty")

    @property
    def num_requests(self) -> int:
        """Rollout requests in the step."""
        return len(self.lengths)

    @property
    def total_response_tokens(self) -> int:
        """Generated tokens across requests."""
        return int(np.sum(np.asarray(self.lengths)))

    @property
    def total_tokens(self) -> int:
        """Prompt + response tokens (the throughput numerator)."""
        return self.total_response_tokens + (
            PROMPT_TOKENS * self.num_requests
        )


@dataclass(frozen=True)
class WorkerSegment:
    """One contiguous activity interval of one worker."""

    worker_id: int
    kind: str  # "rollout" | "idle" | "drafter" | "inference" | "train"
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Segment length in seconds."""
        return self.end_s - self.start_s


@dataclass
class StepResult:
    """Timing and utilisation of one simulated RL step.

    Attributes:
        rollout_s / inference_s / training_s / transition_s: phase times.
        segments: per-worker activity intervals during rollout.
        worker_rollout_s: per-worker rollout completion times.
        drafter_updates: spot-trainer optimisation steps harvested.
        drafter_train_gpu_s: GPU-seconds devoted to drafter training.
        idle_gpu_s: GPU-seconds left idle during rollout (after spot).
        total_tokens: prompt+response tokens of the step.
        timelines: per-worker rollout timelines (Figure 14 profiles).
    """

    rollout_s: float
    inference_s: float
    training_s: float
    transition_s: float
    segments: List[WorkerSegment]
    worker_rollout_s: List[float]
    drafter_updates: int
    drafter_train_gpu_s: float
    idle_gpu_s: float
    total_tokens: int
    timelines: List[RolloutTimeline] = field(default_factory=list)

    @property
    def step_time_s(self) -> float:
        """Total RL-step wall clock."""
        return (
            self.rollout_s
            + self.inference_s
            + self.training_s
            + self.transition_s
        )

    @property
    def throughput_tps(self) -> float:
        """Token throughput: (prompt+response tokens) / step time."""
        if self.step_time_s <= 0:
            return 0.0
        return self.total_tokens / self.step_time_s

    @property
    def rollout_fraction(self) -> float:
        """Share of the step spent in rollout (Figure 1a breakdown)."""
        if self.step_time_s <= 0:
            return 0.0
        return self.rollout_s / self.step_time_s


class RlStepSimulator:
    """Simulates RL steps for one system configuration.

    Args:
        model: target model spec.
        cluster: cluster shape.
        sd_config: adaptive SD configuration (None = vanilla decoding).
        spot_training: harvest rollout bubbles for drafter training.
        transition_overhead_s: per-step stage-transition cost (weight
            resharding, KV flush).
        extra_overhead_fraction: small multiplicative step overhead (the
            paper's TLT bookkeeping, < 1%).
        check_training_memory: raise OOM when optimizer states exceed
            device memory (Table 3's OOM entries).
    """

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        sd_config: Optional[AdaptiveSdConfig] = None,
        spot_training: bool = False,
        transition_overhead_s: float = 10.0,
        extra_overhead_fraction: float = 0.0,
        check_training_memory: bool = True,
    ) -> None:
        if transition_overhead_s < 0 or extra_overhead_fraction < 0:
            raise ConfigError("overheads must be non-negative")
        self.model = model
        self.cluster = cluster
        self.sd_config = sd_config
        self.spot_training = spot_training
        self.transition_overhead_s = transition_overhead_s
        self.extra_overhead_fraction = extra_overhead_fraction
        self.check_training_memory = check_training_memory
        self.roofline = RooflineModel(
            model=model,
            gpu=cluster.gpu,
            tensor_parallel=cluster.gpus_per_worker,
        )
        self.drafter = drafter_spec(model)
        # Per-worker SD managers persist across steps (bandit state).
        self._managers: List[Optional[AdaptiveSdManager]] = [
            AdaptiveSdManager(sd_config) if sd_config is not None else None
            for _ in range(cluster.num_workers)
        ]

    # -- public API ---------------------------------------------------------

    def simulate_step(self, workload: StepWorkload) -> StepResult:
        """Simulate one full RL step."""
        self._check_memory(workload)
        assignments = self._stripe(workload.lengths)
        timelines: List[RolloutTimeline] = []
        for worker_id, lens in enumerate(assignments):
            engine = RolloutEngine(
                self.roofline,
                sd_manager=self._managers[worker_id],
                drafter=self.drafter,
            )
            timelines.append(engine.simulate(lens))

        worker_times = [t.total_time_s for t in timelines]
        rollout_s = max(worker_times)
        segments, drafter_updates, drafter_gpu_s, idle_gpu_s = (
            self._harvest_bubbles(worker_times, rollout_s)
        )

        workers = self.cluster.num_workers
        tokens_per_worker = max(workload.total_tokens // workers, 1)
        inference_s = 2.0 * self.roofline.forward_cost(
            1, tokens_per_worker
        ).total_s
        resp_per_worker = max(
            workload.total_response_tokens // workers, 1
        )
        training_s = self.roofline.train_step_s(resp_per_worker)
        transition_s = self.transition_overhead_s

        result = StepResult(
            rollout_s=rollout_s,
            inference_s=inference_s,
            training_s=training_s,
            transition_s=transition_s,
            segments=segments,
            worker_rollout_s=worker_times,
            drafter_updates=drafter_updates,
            drafter_train_gpu_s=drafter_gpu_s,
            idle_gpu_s=idle_gpu_s,
            total_tokens=workload.total_tokens,
            timelines=timelines,
        )
        if self.extra_overhead_fraction > 0:
            scale = 1.0 + self.extra_overhead_fraction
            result.rollout_s *= scale
            result.inference_s *= scale
            result.training_s *= scale
        return result

    # -- internals ------------------------------------------------------------

    def _stripe(self, lengths: Sequence[int]) -> List[List[int]]:
        """Balanced assignment: sort descending, stripe across workers."""
        workers = self.cluster.num_workers
        order = sorted((int(v) for v in lengths), reverse=True)
        assignments: List[List[int]] = [[] for _ in range(workers)]
        for index, value in enumerate(order):
            assignments[index % workers].append(value)
        return [a for a in assignments if a] or [list(map(int, lengths))]

    def _harvest_bubbles(
        self, worker_times: List[float], rollout_s: float
    ):
        """Idle-window accounting + coordinator-driven spot promotion."""
        coordinator = WorkerCoordinator(idle_threshold=1)
        for worker_id in range(len(worker_times)):
            coordinator.register_worker(
                worker_id, num_gpus=self.cluster.gpus_per_worker
            )
        segments: List[WorkerSegment] = []
        drafter_updates = 0
        drafter_gpu_s = 0.0
        idle_gpu_s = 0.0
        update_cost = self._drafter_update_s()
        for worker_id, end in enumerate(worker_times):
            segments.append(
                WorkerSegment(worker_id, "rollout", 0.0, end)
            )
            window = rollout_s - end
            if window <= 0:
                continue
            coordinator.notify_state(
                worker_id, WorkerState.IDLE, now=end
            )
            if self.spot_training:
                coordinator.promote_idle_workers(now=end)
                updates = int(window // update_cost)
                drafter_updates += updates
                used = updates * update_cost
                drafter_gpu_s += used * self.cluster.gpus_per_worker
                idle_gpu_s += (window - used) * self.cluster.gpus_per_worker
                if used > 0:
                    segments.append(
                        WorkerSegment(
                            worker_id, "drafter", end, end + used
                        )
                    )
                if window - used > 0:
                    segments.append(
                        WorkerSegment(
                            worker_id, "idle", end + used, rollout_s
                        )
                    )
            else:
                idle_gpu_s += window * self.cluster.gpus_per_worker
                segments.append(
                    WorkerSegment(worker_id, "idle", end, rollout_s)
                )
        coordinator.rollout_complete(now=rollout_s)
        return segments, drafter_updates, drafter_gpu_s, idle_gpu_s

    def _drafter_update_s(self) -> float:
        """Cost of one drafter optimisation step on one worker."""
        drafter_roofline = RooflineModel(
            model=self.drafter,
            gpu=self.cluster.gpu,
            tensor_parallel=self.cluster.gpus_per_worker,
        )
        return drafter_roofline.train_step_s(DRAFTER_STEP_TOKENS)

    def _check_memory(self, workload: StepWorkload) -> None:
        """Training-stage memory must fit the cluster (Table 3's OOMs).

        Two sharded terms: FSDP optimizer state (14 bytes/param across
        all GPUs) and live activations of the training micro-batch, whose
        size scales with the *longest* response — which is exactly why
        long-tail workloads OOM small clusters on large models.
        """
        if not self.check_training_memory:
            return
        total_gpus = self.cluster.total_gpus
        optimizer = (
            self.model.params * TRAIN_BYTES_PER_PARAM / total_gpus
        )
        max_len = float(max(workload.lengths)) + PROMPT_TOKENS
        activations = (
            max_len
            * self.model.hidden_size
            * self.model.num_layers
            * TRAIN_ACT_FACTOR
            * BYTES_PER_PARAM
            * TRAIN_GLOBAL_MICROBATCH
            / total_gpus
        )
        budget = (
            TRAIN_MEMORY_HEADROOM * self.cluster.gpu.memory_gb * _GIB
        )
        needed = optimizer + activations
        if needed > budget:
            raise OutOfMemoryError(
                f"training {self.model.name} needs "
                f"{needed / _GIB:.1f} GiB/GPU "
                f"(optimizer {optimizer / _GIB:.1f} + activations "
                f"{activations / _GIB:.1f}); budget "
                f"{budget / _GIB:.1f} GiB/GPU on "
                f"{total_gpus}x {self.cluster.gpu.name}"
            )
