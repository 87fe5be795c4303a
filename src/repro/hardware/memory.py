"""Device-memory accounting: per-GPU weight and KV-cache bytes."""

from __future__ import annotations

from repro.errors import HardwareModelError
from repro.hardware.gpus import ModelSpec


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
