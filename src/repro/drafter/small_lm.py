"""Vanilla small-LM drafter (the Qwen2.5-0.5B-style baseline).

Classic speculative decoding (Leviathan et al.) drafts with a separate,
smaller LM from the same family rather than a feature-level single-layer
head.  The paper uses Qwen2.5-0.5B against Qwen2.5-7B as this baseline
(§4.1 and Table 8).  Here the small LM is an independent
:class:`~repro.llm.model.TinyLM` with its own (smaller) configuration,
wrapped in the drafter protocol, plus a distillation trainer supporting

* ``sft`` — cross-entropy on the target model's sampled tokens,
* ``kd`` — forward KL against the target's full distribution,
* ``reverse_kd`` — OSD-style reverse KL (Table 8's "+OSD" column).

Its drawback is exactly the paper's: drafting latency is dominated by
sequential depth (24 layers for Qwen-0.5B vs 1 for EAGLE), which the
hardware layer's cost model captures via the model spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.drafter.base import Drafter
from repro.errors import DrafterError
from repro.llm.model import (
    TinyLM,
    contexts_from_sequences,
    pad_sequences,
)
from repro.llm.optim import Adam
from repro.llm.sampler import log_softmax, temperature_probs


@dataclass(frozen=True)
class SmallLmState:
    """Immutable drafting state: the trailing context window."""

    context: Tuple[int, ...]


class SmallLmDrafter(Drafter):
    """A separate small LM used as a draft model.

    Inherits the per-state ``propose_batch``/``extend_batch`` fallbacks:
    each proposal is one single-row :meth:`~repro.llm.model.TinyLM.step`,
    and batching rows through the small LM's BLAS matmuls would not be
    bitwise row-identical to single-row calls — the fallback keeps the
    flat tree builder's byte-identity guarantee instead.

    Args:
        draft_model: the small LM (vocab must match the target's).
        target_vocab_size: checked against the draft model's vocab.
    """

    name = "small-lm"

    def __init__(
        self, draft_model: TinyLM, target_vocab_size: int
    ) -> None:
        if draft_model.config.vocab_size != target_vocab_size:
            raise DrafterError(
                "draft/target vocab mismatch: "
                f"{draft_model.config.vocab_size} vs {target_vocab_size}"
            )
        self.model = draft_model

    @property
    def trainable(self) -> bool:
        return True

    # -- Drafter protocol -------------------------------------------------

    def begin(
        self,
        prefix_tokens: Sequence[int],
        last_hidden: Optional[np.ndarray],
    ) -> SmallLmState:
        if not prefix_tokens:
            raise DrafterError("prefix_tokens must be non-empty")
        window = self.model.config.context_window
        tail = tuple(int(t) for t in prefix_tokens[-window:])
        return SmallLmState(context=tail)

    def propose(self, state: SmallLmState, temperature: float) -> np.ndarray:
        context = contexts_from_sequences(
            [list(state.context)], self.model.config.context_window
        )
        logits, _ = self.model.step(context)
        return temperature_probs(logits[0], temperature)

    def extend(self, state: SmallLmState, token: int) -> SmallLmState:
        window = self.model.config.context_window
        context = (state.context + (int(token),))[-window:]
        return SmallLmState(context=context)


@dataclass(frozen=True)
class DistillationConfig:
    """Small-LM drafter training configuration.

    Attributes:
        mode: ``sft`` (hard labels), ``kd`` (forward KL) or
            ``reverse_kd`` (OSD-style).
        learning_rate: Adam step size.
        grad_clip: global gradient-norm clip.
    """

    mode: str = "sft"
    learning_rate: float = 5e-3
    grad_clip: float = 10.0

    def __post_init__(self) -> None:
        if self.mode not in ("sft", "kd", "reverse_kd"):
            raise DrafterError(
                "mode must be 'sft', 'kd' or 'reverse_kd'"
            )
        if self.learning_rate <= 0:
            raise DrafterError("learning_rate must be positive")


class SmallLmDistiller:
    """Aligns a small-LM drafter with a target model's distribution."""

    def __init__(
        self,
        drafter: SmallLmDrafter,
        target: TinyLM,
        config: DistillationConfig,
    ) -> None:
        if target.config.vocab_size != drafter.model.config.vocab_size:
            raise DrafterError("target/draft vocab mismatch")
        self.drafter = drafter
        self.target = target
        self.config = config
        self.optimizer = Adam(lr=config.learning_rate)

    def train_step(self, sequences: Sequence[Sequence[int]]) -> float:
        """One distillation step over teacher-forced sequences.

        Returns the mean per-token loss.
        """
        seqs = [list(map(int, s)) for s in sequences if len(s) >= 3]
        if not seqs:
            raise DrafterError("need sequences of length >= 3")
        tokens, lengths = pad_sequences(seqs)
        rows = np.arange(tokens.shape[0])[:, None]
        cols = np.arange(tokens.shape[1])[None, :]
        # Position t predicts token t+1; valid while t+1 < len(seq).
        mask = (cols < lengths[:, None] - 1).astype(np.float64)

        model = self.drafter.model
        result = model.forward(tokens, keep_cache=True)
        logq = log_softmax(result.logits)
        probs = np.exp(logq)
        total_positions = float(mask.sum())
        labels = np.roll(tokens, shift=-1, axis=1)

        if self.config.mode == "sft":
            loss = -float(
                np.sum(logq[rows, cols, labels] * mask) / total_positions
            )
            dlogits = probs
            dlogits[rows, cols, labels] -= 1.0
        else:
            logp = log_softmax(self.target.forward(tokens).logits)
            if self.config.mode == "kd":
                p = np.exp(logp)
                dlogits = probs - p
                loss = -float(
                    np.sum(p * logq * mask[:, :, None]) / total_positions
                )
            else:  # reverse_kd
                diff = logq - logp
                expected = np.sum(
                    probs * diff, axis=-1, keepdims=True
                )
                dlogits = probs * (diff - expected)
                loss = float(
                    np.sum(expected * mask[:, :, None]) / total_positions
                )

        dlogits = dlogits * mask[:, :, None] / total_positions
        grads = model.backward(result.cache, dlogits)
        grads.clip_global_norm(self.config.grad_clip)
        self.optimizer.step(model.params, grads)
        return loss
