"""Synthetic LLM substrate.

The paper trains Qwen/Llama-scale models; this package supplies the
laptop-scale stand-in: :class:`TinyLM`, a windowed multi-layer residual MLP
language model implemented in pure numpy with

* exact autoregressive logits and temperature sampling,
* per-layer hidden states (consumed by EAGLE-style drafters),
* manual backpropagation, so RL policy-gradient updates and drafter
  cross-entropy training genuinely execute.

Everything downstream (speculative decoding, drafter training, GRPO) works
against this substrate exactly as it would against a real transformer.
"""

from repro.llm.generation import GenerationOutput, generate
from repro.llm.model import ForwardCache, ForwardResult, TinyLM, TinyLMConfig
from repro.llm.optim import Adam
from repro.llm.params import ParamSet
from repro.llm.sampler import (
    log_softmax,
    sample_from_probs,
    softmax,
    temperature_probs,
)
from repro.llm.vocab import Vocabulary

__all__ = [
    "TinyLM",
    "TinyLMConfig",
    "ForwardResult",
    "ForwardCache",
    "ParamSet",
    "Adam",
    "Vocabulary",
    "softmax",
    "log_softmax",
    "temperature_probs",
    "sample_from_probs",
    "generate",
    "GenerationOutput",
]
