"""Language-model pretraining on synthetic corpora.

A randomly initialised TinyLM has an unstructured next-token map that no
drafter can approximate — unlike real LLMs, whose pretraining makes their
conditional distributions smooth and predictable (which is why EAGLE-style
drafters reach 70-90% per-token acceptance).  This module provides the
"base model" analogue: cross-entropy pretraining on a structured synthetic
corpus (noisy successor chains, the same structure the RL tasks reward),
after which the model's transitions are largely predictable and the whole
speculative-decoding stack behaves like it does on real reasoning models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.llm.model import TinyLM, pad_sequences
from repro.llm.optim import Adam
from repro.llm.sampler import log_softmax
from repro.llm.vocab import BOS_ID, EOS_ID, NUM_SPECIAL_TOKENS

#: Per-step probability that a corpus sequence ends with EOS.
EOS_PROB = 0.02
#: Adam step size and global gradient-norm clip of pretraining.
PRETRAIN_LEARNING_RATE = 5e-3
PRETRAIN_GRAD_CLIP = 10.0


def synthetic_corpus(
    vocab_size: int,
    num_sequences: int,
    length: int,
    rng: np.random.Generator,
    chain_prob: float = 0.85,
) -> List[List[int]]:
    """Noisy successor-chain corpus.

    Each sequence starts at a random regular token; with probability
    ``chain_prob`` the next token is the (wrapping) successor, otherwise a
    random regular token; EOS terminates with ``EOS_PROB`` per step.  The
    resulting LM has mostly-deterministic transitions with genuine
    entropy — the regime reasoning models occupy.
    """
    if not 0.0 <= chain_prob <= 1.0:
        raise ConfigError("chain_prob out of range")
    if num_sequences < 1 or length < 2:
        raise ConfigError("need num_sequences >= 1 and length >= 2")
    lo = NUM_SPECIAL_TOKENS
    span = vocab_size - lo
    corpus: List[List[int]] = []
    for _ in range(num_sequences):
        token = int(rng.integers(lo, vocab_size))
        seq = [BOS_ID, token]
        for _ in range(length - 1):
            if rng.random() < EOS_PROB:
                seq.append(EOS_ID)
                break
            if rng.random() < chain_prob:
                token = lo + (token - lo + 1) % span
            else:
                token = int(rng.integers(lo, vocab_size))
            seq.append(token)
        corpus.append(seq)
    return corpus


@dataclass
class PretrainReport:
    """Loss trajectory of a pretraining run."""

    losses: List[float]

    @property
    def initial_loss(self) -> float:
        """First epoch's mean CE loss."""
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        """Last epoch's mean CE loss."""
        return self.losses[-1]


def pretrain_on_sequences(
    model: TinyLM,
    sequences: Sequence[Sequence[int]],
    epochs: int,
) -> PretrainReport:
    """Teacher-forced cross-entropy pretraining of a TinyLM.

    Args:
        model: the model to train (mutated in place).
        sequences: token sequences (BOS-prefixed recommended).
        epochs: full-batch optimisation steps.

    Returns:
        A :class:`PretrainReport` with the per-epoch loss trajectory.
    """
    seqs = [list(map(int, s)) for s in sequences if len(s) >= 2]
    if not seqs:
        raise ConfigError("need sequences of length >= 2")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    tokens, lengths = pad_sequences(seqs)
    rows = np.arange(tokens.shape[0])[:, None]
    cols = np.arange(tokens.shape[1])[None, :]
    # Position t predicts token t+1; valid while t+1 < len(seq).
    mask = (cols < lengths[:, None] - 1).astype(np.float64)
    labels = np.roll(tokens, shift=-1, axis=1)
    total = float(mask.sum())

    optimizer = Adam(lr=PRETRAIN_LEARNING_RATE)
    losses: List[float] = []
    for _ in range(epochs):
        result = model.forward(tokens, keep_cache=True)
        logq = log_softmax(result.logits)
        loss = -float(np.sum(logq[rows, cols, labels] * mask) / total)
        dlogits = np.exp(logq)
        dlogits[rows, cols, labels] -= 1.0
        dlogits *= mask[:, :, None] / total
        losses.append(loss)
        grads = model.backward(result.cache, dlogits)
        grads.clip_global_norm(PRETRAIN_GRAD_CLIP)
        optimizer.step(model.params, grads)
    return PretrainReport(losses=losses)


def pretrained_target(
    config,
    rng: np.random.Generator,
    corpus_sequences: int = 96,
    corpus_length: int = 60,
    epochs: int = 250,
    chain_prob: float = 0.85,
) -> TinyLM:
    """Convenience: build and pretrain a base target model."""
    model = TinyLM(config, rng)
    corpus = synthetic_corpus(
        config.vocab_size, corpus_sequences, corpus_length, rng,
        chain_prob=chain_prob,
    )
    pretrain_on_sequences(model, corpus, epochs)
    return model
