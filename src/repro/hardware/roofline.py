"""Roofline latency model (paper Figure 5c).

Every forward step costs ``max(compute_time, memory_time) + overhead``:

* **compute**: ``2 * params * tokens_processed`` FLOPs at the GPU's
  achievable TFLOPS;
* **memory**: one full weight stream plus the KV cache of every active
  sequence at the achievable bandwidth.

Autoregressive decode (1 token/sequence) is memory-bound at small batch;
speculative verification multiplies tokens-per-step by ``tokens_to_verify``
without re-reading weights, pushing the operation toward the compute roof —
which is exactly why SD pays off at small batches and fades at large ones
(Table 4) and why achieved TFLOPS saturate at much smaller batch sizes
with SD (Figure 5c).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareModelError
from repro.hardware.gpus import (
    DRAFT_OVERHEAD_S,
    STEP_OVERHEAD_S,
    GpuSpec,
    ModelSpec,
)

#: Fractional step overhead per additional TP rank.
TP_SYNC_TAX = 0.04

#: CPU-side cost of tree construction, candidate selection and
#: accept-path bookkeeping per speculative cycle.  GPU-independent,
#: which is why SD speedups shrink on faster GPUs (Table 2).
SD_CYCLE_OVERHEAD_S = 1.1e-3

#: Average KV-cache tokens per sequence at which the throughput and
#: speedup helpers price a decode step.
THROUGHPUT_CONTEXT_TOKENS = 4000


@dataclass(frozen=True)
class StepCost:
    """Latency decomposition of one forward step.

    Attributes:
        compute_s: time on the compute roof.
        memory_s: time on the memory roof.
        overhead_s: fixed launch/CPU overhead.
        tokens: tokens processed by the step.
    """

    compute_s: float
    memory_s: float
    overhead_s: float
    tokens: int

    @property
    def total_s(self) -> float:
        """Step latency: max of the roofs plus overhead."""
        return max(self.compute_s, self.memory_s) + self.overhead_s

    @property
    def bound(self) -> str:
        """Which roof binds: ``compute`` or ``memory``."""
        return "compute" if self.compute_s >= self.memory_s else "memory"


@dataclass(frozen=True)
class RooflineModel:
    """Latency calculator for one (model, GPU, TP degree) placement.

    Attributes:
        model: the LLM size profile.
        gpu: the GPU performance envelope.
        tensor_parallel: TP degree (weights and FLOPs sharded; a mild
            synchronisation tax, ``TP_SYNC_TAX`` per additional rank, is
            added per step).
    """

    model: ModelSpec
    gpu: GpuSpec
    tensor_parallel: int = 1

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise HardwareModelError("tensor_parallel must be >= 1")

    # -- primitive costs ---------------------------------------------------

    def _shard_bytes(self) -> float:
        return self.model.weight_bytes / self.tensor_parallel

    def _sync_factor(self) -> float:
        return 1.0 + TP_SYNC_TAX * (self.tensor_parallel - 1)

    def forward_cost(
        self,
        batch_size: int,
        tokens_per_sequence: int,
        context_tokens: float = 0.0,
    ) -> StepCost:
        """Cost of one batched forward step.

        Args:
            batch_size: active sequences.
            tokens_per_sequence: tokens processed per sequence this step
                (1 = vanilla decode; ``tokens_to_verify+1`` = SD verify;
                prompt length = prefill).
            context_tokens: average KV-cache tokens per sequence that must
                be streamed.

        The fixed overhead is the GPU's full-model step overhead.
        """
        if batch_size < 1 or tokens_per_sequence < 1:
            raise HardwareModelError(
                "batch_size and tokens_per_sequence must be >= 1"
            )
        if context_tokens < 0:
            raise HardwareModelError("context_tokens must be non-negative")
        tokens = batch_size * tokens_per_sequence
        flops = self.model.flops_per_token * tokens / self.tensor_parallel
        compute_s = flops / (self.gpu.effective_tflops * 1e12)
        kv_bytes = (
            batch_size
            * context_tokens
            * self.model.kv_bytes_per_token
            / self.tensor_parallel
        )
        memory_s = (self._shard_bytes() + kv_bytes) / (
            self.gpu.effective_gbps * 1e9
        )
        return StepCost(
            compute_s=compute_s * self._sync_factor(),
            memory_s=memory_s * self._sync_factor(),
            overhead_s=STEP_OVERHEAD_S,
            tokens=tokens,
        )

    # -- derived operation costs -------------------------------------------

    def decode_step_s(
        self, batch_size: int, context_tokens: float = 0.0
    ) -> float:
        """One vanilla decode step (1 token per active sequence)."""
        return self.forward_cost(batch_size, 1, context_tokens).total_s

    def verify_step_s(
        self,
        batch_size: int,
        tokens_to_verify: int,
        context_tokens: float = 0.0,
    ) -> float:
        """One SD verification forward (tree nodes + root row)."""
        return self.forward_cost(
            batch_size, tokens_to_verify + 1, context_tokens
        ).total_s

    def draft_step_s(self, drafter: ModelSpec, batch_size: int,
                     topk: int = 1) -> float:
        """One drafter forward (single layer + tied head).

        ``topk`` tree expansion widens the drafter batch; the drafter is
        overhead/memory-bound so the dependence is mild.
        """
        shard = drafter.weight_bytes / self.tensor_parallel
        memory_s = shard / (self.gpu.effective_gbps * 1e9)
        flops = (
            drafter.flops_per_token * batch_size * topk
            / self.tensor_parallel
        )
        compute_s = flops / (self.gpu.effective_tflops * 1e12)
        return (
            max(memory_s, compute_s) * self._sync_factor()
            + DRAFT_OVERHEAD_S
        )

    def sd_cycle_s(
        self,
        drafter: ModelSpec,
        batch_size: int,
        draft_depth: int,
        topk: int,
        tokens_to_verify: int,
        context_tokens: float = 0.0,
    ) -> float:
        """One full speculative cycle: drafting chain + parallel verify
        plus the CPU-side tree-management overhead."""
        drafting = draft_depth * self.draft_step_s(drafter, batch_size, topk)
        verify = self.verify_step_s(
            batch_size, tokens_to_verify, context_tokens
        )
        return drafting + verify + SD_CYCLE_OVERHEAD_S

    def sd_tokens_per_s(
        self,
        drafter: ModelSpec,
        accept_length: float,
        batch_size: int,
        draft_depth: int,
        topk: int,
        tokens_to_verify: int,
    ) -> float:
        """Decode throughput (tokens/s/sequence) under SD."""
        if accept_length < 1.0:
            raise HardwareModelError("accept_length must be >= 1")
        cycle = self.sd_cycle_s(
            drafter, batch_size, draft_depth, topk, tokens_to_verify,
            THROUGHPUT_CONTEXT_TOKENS,
        )
        return accept_length / cycle

    def vanilla_tokens_per_s(self, batch_size: int) -> float:
        """Decode throughput (tokens/s/sequence) without SD."""
        return 1.0 / self.decode_step_s(batch_size, THROUGHPUT_CONTEXT_TOKENS)

    def sd_speedup(
        self,
        drafter: ModelSpec,
        accept_length: float,
        batch_size: int,
        draft_depth: int,
        topk: int,
        tokens_to_verify: int,
    ) -> float:
        """SD speedup over vanilla decoding at equal batch size."""
        return self.sd_tokens_per_s(
            drafter, accept_length, batch_size, draft_depth, topk,
            tokens_to_verify,
        ) / self.vanilla_tokens_per_s(batch_size)

    def prefill_s(self, batch_size: int, prompt_tokens: int) -> float:
        """Prompt prefill cost (compute-bound chunked forward)."""
        return self.forward_cost(batch_size, prompt_tokens).total_s

    def train_step_s(self, tokens: int) -> float:
        """Training step cost: ~3x forward FLOPs (fwd + bwd)."""
        if tokens < 1:
            raise HardwareModelError("tokens must be >= 1")
        flops = 6.0 * self.model.params * tokens / self.tensor_parallel
        compute_s = flops / (self.gpu.effective_tflops * 1e12)
        return compute_s * self._sync_factor() + STEP_OVERHEAD_S

    def achieved_tflops(self, cost: StepCost) -> float:
        """FLOP throughput realised by a step (for Figure 5c)."""
        flops = self.model.flops_per_token * cost.tokens
        return flops / cost.total_s / 1e12
