"""GPU and LLM spec catalogs.

GPU peak numbers are public datasheet values (dense BF16 tensor TFLOPS,
HBM/GDDR bandwidth); the ``*_efficiency`` fields are the achievable
fractions calibrated so vanilla decode throughput lands near the paper's
Table 2 measurements.  Model specs approximate the public architectures
of the evaluation models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import HardwareModelError


@dataclass(frozen=True)
class GpuSpec:
    """One GPU's performance envelope.

    Attributes:
        name: marketing name.
        bf16_tflops: dense BF16 tensor throughput (TFLOPS).
        hbm_gbps: peak memory bandwidth (GB/s).
        memory_gb: device memory capacity (GB).
        compute_efficiency: achievable fraction of peak FLOPs in decode-
            sized GEMMs.
        memory_efficiency: achievable fraction of peak bandwidth during
            weight streaming.
        step_overhead_s: fixed per-forward overhead (launch + CPU) for a
            full-model step.
        draft_overhead_s: fixed per-forward overhead for a single-layer
            drafter step (smaller graphs launch faster).
    """

    name: str
    bf16_tflops: float
    hbm_gbps: float
    memory_gb: float
    compute_efficiency: float = 0.55
    memory_efficiency: float = 0.72
    step_overhead_s: float = 3.0e-4
    draft_overhead_s: float = 2.0e-4

    def __post_init__(self) -> None:
        if min(self.bf16_tflops, self.hbm_gbps, self.memory_gb) <= 0:
            raise HardwareModelError(
                f"{self.name}: peak numbers must be positive"
            )
        for field_name in ("compute_efficiency", "memory_efficiency"):
            value = getattr(self, field_name)
            if not 0.0 < value <= 1.0:
                raise HardwareModelError(
                    f"{self.name}: {field_name} must be in (0, 1]"
                )
        if self.step_overhead_s < 0 or self.draft_overhead_s < 0:
            raise HardwareModelError(
                f"{self.name}: overheads must be non-negative"
            )

    @property
    def effective_tflops(self) -> float:
        """Achievable TFLOPS."""
        return self.bf16_tflops * self.compute_efficiency

    @property
    def effective_gbps(self) -> float:
        """Achievable memory bandwidth (GB/s)."""
        return self.hbm_gbps * self.memory_efficiency


GPU_CATALOG: Dict[str, GpuSpec] = {
    "B200": GpuSpec(
        name="B200", bf16_tflops=2250.0, hbm_gbps=8000.0, memory_gb=192.0,
        compute_efficiency=0.50, memory_efficiency=0.50,
    ),
    "H100": GpuSpec(
        name="H100", bf16_tflops=989.0, hbm_gbps=3350.0, memory_gb=80.0,
        compute_efficiency=0.55, memory_efficiency=0.72,
    ),
    "H20": GpuSpec(
        name="H20", bf16_tflops=148.0, hbm_gbps=4000.0, memory_gb=96.0,
        compute_efficiency=0.55, memory_efficiency=0.70,
    ),
    "A100": GpuSpec(
        name="A100", bf16_tflops=312.0, hbm_gbps=2039.0, memory_gb=80.0,
        compute_efficiency=0.55, memory_efficiency=0.66,
    ),
    "RTX5090": GpuSpec(
        name="RTX5090", bf16_tflops=210.0, hbm_gbps=1792.0, memory_gb=32.0,
        compute_efficiency=0.50, memory_efficiency=0.82,
    ),
    "RTX4090": GpuSpec(
        name="RTX4090", bf16_tflops=165.0, hbm_gbps=1008.0, memory_gb=24.0,
        compute_efficiency=0.50, memory_efficiency=0.92,
    ),
    "RTX3090": GpuSpec(
        name="RTX3090", bf16_tflops=71.0, hbm_gbps=936.0, memory_gb=24.0,
        compute_efficiency=0.50, memory_efficiency=0.80,
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """One LLM's size profile.

    Attributes:
        name: identifier.
        params: total parameter count.
        num_layers: decoder layers.
        hidden_size: model width.
        vocab_size: vocabulary size.
        kv_bytes_per_token: K+V cache bytes per token across all layers
            (BF16, GQA-adjusted).
        bytes_per_param: weight precision (2 = BF16).
    """

    name: str
    params: float
    num_layers: int
    hidden_size: int
    vocab_size: int
    kv_bytes_per_token: float
    bytes_per_param: float = 2.0

    def __post_init__(self) -> None:
        if self.params <= 0 or self.num_layers < 1:
            raise HardwareModelError(f"{self.name}: invalid size profile")
        if self.kv_bytes_per_token < 0:
            raise HardwareModelError(
                f"{self.name}: kv_bytes_per_token must be non-negative"
            )

    @property
    def weight_bytes(self) -> float:
        """Total weight footprint in bytes."""
        return self.params * self.bytes_per_param

    @property
    def flops_per_token(self) -> float:
        """Dense forward FLOPs per token (2 * params)."""
        return 2.0 * self.params


def _kv_bytes(num_layers: int, kv_heads: int, head_dim: int = 128,
              dtype_bytes: int = 2) -> float:
    """K+V bytes per token for a GQA transformer."""
    return 2.0 * num_layers * kv_heads * head_dim * dtype_bytes


MODEL_CATALOG: Dict[str, ModelSpec] = {
    "Qwen2.5-7B": ModelSpec(
        name="Qwen2.5-7B", params=7.6e9, num_layers=28, hidden_size=3584,
        vocab_size=152_064, kv_bytes_per_token=_kv_bytes(28, 4),
    ),
    "DeepSeek-R1-7B": ModelSpec(
        name="DeepSeek-R1-7B", params=7.6e9, num_layers=28,
        hidden_size=3584, vocab_size=152_064,
        kv_bytes_per_token=_kv_bytes(28, 4),
    ),
    "Qwen2.5-32B": ModelSpec(
        name="Qwen2.5-32B", params=32.5e9, num_layers=64, hidden_size=5120,
        vocab_size=152_064, kv_bytes_per_token=_kv_bytes(64, 8),
    ),
    "Llama-3.3-70B": ModelSpec(
        name="Llama-3.3-70B", params=70.6e9, num_layers=80,
        hidden_size=8192, vocab_size=128_256,
        kv_bytes_per_token=_kv_bytes(80, 8),
    ),
    "Llama-3-8B": ModelSpec(
        name="Llama-3-8B", params=8.0e9, num_layers=32, hidden_size=4096,
        vocab_size=128_256, kv_bytes_per_token=_kv_bytes(32, 8),
    ),
    "Qwen2.5-0.5B": ModelSpec(
        name="Qwen2.5-0.5B", params=0.49e9, num_layers=24, hidden_size=896,
        vocab_size=152_064, kv_bytes_per_token=_kv_bytes(24, 2, 64),
    ),
}


def get_gpu(name: str) -> GpuSpec:
    """Catalog lookup with a helpful error."""
    try:
        return GPU_CATALOG[name]
    except KeyError:
        raise HardwareModelError(
            f"unknown GPU {name!r}; available: {sorted(GPU_CATALOG)}"
        ) from None


def get_model(name: str) -> ModelSpec:
    """Catalog lookup with a helpful error."""
    try:
        return MODEL_CATALOG[name]
    except KeyError:
        raise HardwareModelError(
            f"unknown model {name!r}; available: {sorted(MODEL_CATALOG)}"
        ) from None


def drafter_spec(target: ModelSpec) -> ModelSpec:
    """EAGLE-style single-layer drafter derived from a target spec.

    One decoder layer's worth of weights plus the tied LM head (whose
    matmul dominates the drafter's memory traffic — the head is read in
    full every draft step even though it is "free" parameter-wise).
    """
    layer_params = target.params / target.num_layers
    head_params = target.vocab_size * target.hidden_size
    return ModelSpec(
        name=f"{target.name}-drafter",
        params=layer_params + head_params,
        num_layers=1,
        hidden_size=target.hidden_size,
        vocab_size=target.vocab_size,
        kv_bytes_per_token=target.kv_bytes_per_token / target.num_layers,
        bytes_per_param=target.bytes_per_param,
    )
