"""Workload generation: long-tail lengths, verifiable tasks, traces.

The paper's experiments are driven by three workload ingredients, all
reproduced here:

* the **long-tail response-length distribution** of reasoning rollouts
  (Figure 1a) — :mod:`repro.workload.lengths`;
* **verifiable prompts** with rule-based rewards (the Eurus-2-RL stand-in)
  — :mod:`repro.workload.prompts`;
* the **multi-step production trace** shape from ByteDance (Figure 2) —
  :mod:`repro.workload.traces`;
* the **scenario zoo** of time-varying load shapes (diurnal,
  flash-crowd, adversarial long-tail) that exercise elastic
  autoscaling — :mod:`repro.workload.scenarios`.
"""

from repro.workload.lengths import (
    LengthModel,
    LognormalLengths,
    length_statistics,
)
from repro.workload.prompts import (
    PatternCopyTask,
    PromptBatch,
    SuccessorChainTask,
    Task,
    make_prompt_batch,
)
from repro.workload.scenarios import (
    adversarial_longtail_trace,
    diurnal_trace,
    flash_crowd_trace,
)
from repro.workload.traces import (
    PromptFamily,
    SegmentedGrpoTrace,
    TraceStep,
    TrainingTrace,
    fleet_trace,
    mixed_serving_trace,
    segment_families,
    segmented_grpo_trace,
    shared_prefix_trace,
    synthesize_trace,
)

__all__ = [
    "LengthModel",
    "LognormalLengths",
    "length_statistics",
    "Task",
    "SuccessorChainTask",
    "PatternCopyTask",
    "PromptBatch",
    "make_prompt_batch",
    "TraceStep",
    "TrainingTrace",
    "PromptFamily",
    "SegmentedGrpoTrace",
    "segment_families",
    "segmented_grpo_trace",
    "synthesize_trace",
    "fleet_trace",
    "mixed_serving_trace",
    "shared_prefix_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "adversarial_longtail_trace",
]
