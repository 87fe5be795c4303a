"""Analytic hardware performance layer.

The paper measures wall-clock on DGX-H100/A100 clusters; this package
replaces the silicon with a calibrated roofline model:

* :mod:`repro.hardware.gpus` — GPU and model spec catalogs (H100, A100,
  B200, RTX 3090/4090/5090, H20; Qwen/Llama/DeepSeek analogues),
* :mod:`repro.hardware.roofline` — memory-bound vs compute-bound step
  latencies for decode / speculative verify / drafting / prefill / train,
* :mod:`repro.hardware.cudagraph` — the bucketed CUDAGraph capture pool
  and its memory accounting (Figure 10, Table 5).

Latencies are deliberately parametric: benchmarks reproduce the *shape*
of the paper's tables (who wins, crossover points), not silicon-exact
numbers.
"""

from repro.hardware.cudagraph import (
    CaptureKey,
    CapturePlan,
    CudaGraphPool,
    bucketed_plan,
    single_strategy_plan,
    vanilla_multi_plan,
)
from repro.hardware.gpus import (
    GPU_CATALOG,
    MODEL_CATALOG,
    GpuSpec,
    ModelSpec,
    drafter_spec,
    get_gpu,
    get_model,
)
from repro.hardware.roofline import RooflineModel, StepCost

__all__ = [
    "GpuSpec",
    "ModelSpec",
    "GPU_CATALOG",
    "MODEL_CATALOG",
    "get_gpu",
    "get_model",
    "drafter_spec",
    "RooflineModel",
    "StepCost",
    "CudaGraphPool",
    "CaptureKey",
    "CapturePlan",
    "single_strategy_plan",
    "vanilla_multi_plan",
    "bucketed_plan",
]
