"""Device-memory accounting: weights, KV cache, activations.

Used by the CUDAGraph pool (capture buffers compete with weights and KV
for device memory — the paper's Figure 10 motivation) and by the rollout
engine's OOM guard when picking safe SD strategies.
"""

from __future__ import annotations

from repro.errors import HardwareModelError
from repro.hardware.gpus import GpuSpec, ModelSpec

_GIB = 1024.0**3


def model_memory_bytes(model: ModelSpec, tensor_parallel: int = 1) -> float:
    """Per-GPU weight bytes under TP sharding."""
    if tensor_parallel < 1:
        raise HardwareModelError("tensor_parallel must be >= 1")
    return model.weight_bytes / tensor_parallel


def kv_cache_bytes(
    model: ModelSpec, total_tokens: float, tensor_parallel: int = 1
) -> float:
    """Per-GPU KV-cache bytes for ``total_tokens`` cached tokens."""
    if total_tokens < 0:
        raise HardwareModelError("total_tokens must be non-negative")
    if tensor_parallel < 1:
        raise HardwareModelError("tensor_parallel must be >= 1")
    return model.kv_bytes_per_token * total_tokens / tensor_parallel


def total_device_memory(
    model: ModelSpec,
    gpu: GpuSpec,
    kv_tokens: float,
    graph_bytes: float = 0.0,
    tensor_parallel: int = 1,
) -> float:
    """Occupied per-GPU bytes: weights + KV + captured graphs.

    Raises:
        HardwareModelError: when the footprint exceeds device capacity
            (the simulator's OOM signal).
    """
    if graph_bytes < 0:
        raise HardwareModelError("graph_bytes must be non-negative")
    used = (
        model_memory_bytes(model, tensor_parallel)
        + kv_cache_bytes(model, kv_tokens, tensor_parallel)
        + graph_bytes
    )
    capacity = gpu.memory_gb * _GIB
    if used > capacity:
        from repro.errors import OutOfMemoryError

        raise OutOfMemoryError(
            f"{model.name} on {gpu.name}: {used / _GIB:.1f} GiB needed, "
            f"{gpu.memory_gb:.1f} GiB available"
        )
    return used
