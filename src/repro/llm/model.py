"""TinyLM: the windowed multi-layer residual MLP language model.

Architecture (per position ``t``, predicting token ``t+1``):

1. The last ``context_window`` token ids (left-padded with PAD) are embedded
   and concatenated into ``x_t`` of size ``context_window * hidden_size``.
2. ``h_0 = tanh(W_in x_t + b_in)`` projects into the hidden space.
3. Each subsequent layer applies a residual tanh block:
   ``h_i = h_{i-1} + tanh(W_i h_{i-1} + b_i)``.
4. Logits use the tied embedding matrix: ``logits = E h_{L-1}``.

This mirrors what the drafters need from a real transformer: per-layer
hidden states (EAGLE consumes the top layer, EAGLE-3 fuses bottom/middle/
top), exact next-token distributions, and trainable weights updated by the
RL loop.  Manual forward/backward keeps the library dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, GenerationError
from repro.llm.params import ParamSet
from repro.llm.vocab import PAD_ID, Vocabulary


@dataclass(frozen=True)
class TinyLMConfig:
    """Hyper-parameters of a :class:`TinyLM`.

    Attributes:
        vocab_size: vocabulary size including special tokens.
        hidden_size: width of every hidden layer and of token embeddings.
        context_window: number of trailing tokens visible to the model.
        num_layers: total hidden layers (1 input projection + residual blocks).
        init_scale: standard-deviation multiplier for weight initialisation.
    """

    vocab_size: int = 64
    hidden_size: int = 32
    context_window: int = 4
    num_layers: int = 4
    init_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise ConfigError(f"vocab_size too small: {self.vocab_size}")
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be >= 1: {self.hidden_size}")
        if self.context_window < 1:
            raise ConfigError(
                f"context_window must be >= 1: {self.context_window}"
            )
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1: {self.num_layers}")
        if self.init_scale <= 0:
            raise ConfigError(f"init_scale must be > 0: {self.init_scale}")


@dataclass
class ForwardCache:
    """Intermediate activations retained for backpropagation.

    Attributes:
        windows: (B, T, k) int token windows per position.
        x: (B, T, k*d) concatenated input embeddings.
        hiddens: list of (B, T, d) per-layer hidden states h_0..h_{L-1}.
        block_acts: list of (B, T, d) tanh block outputs a_1..a_{L-1}
            (empty when num_layers == 1).
    """

    windows: np.ndarray
    x: np.ndarray
    hiddens: List[np.ndarray]
    block_acts: List[np.ndarray]


@dataclass
class ForwardResult:
    """Output of a teacher-forced forward pass.

    Attributes:
        logits: (B, T, V) next-token logits at every position.
        hiddens: list of per-layer hidden states, each (B, T, d).
        cache: activations for :meth:`TinyLM.backward`, or None.
    """

    logits: np.ndarray
    hiddens: List[np.ndarray]
    cache: Optional[ForwardCache]

    @property
    def last_hidden(self) -> np.ndarray:
        """Top-layer hidden state, shape (B, T, d)."""
        return self.hiddens[-1]


class TinyLM:
    """A small but genuine autoregressive neural language model.

    Args:
        config: structural hyper-parameters.
        rng: generator used for weight initialisation.
    """

    def __init__(
        self, config: TinyLMConfig, rng: np.random.Generator
    ) -> None:
        self.config = config
        self.vocab = Vocabulary(config.vocab_size)
        d = config.hidden_size
        k = config.context_window
        v = config.vocab_size
        scale = config.init_scale
        params = ParamSet()
        params["embed"] = rng.normal(0.0, scale / np.sqrt(d), size=(v, d))
        params["w_in"] = rng.normal(
            0.0, scale / np.sqrt(k * d), size=(d, k * d)
        )
        params["b_in"] = np.zeros(d)
        for i in range(1, config.num_layers):
            params[f"w_{i}"] = rng.normal(
                0.0, scale / np.sqrt(d), size=(d, d)
            )
            params[f"b_{i}"] = np.zeros(d)
        self.params = params

    # -- introspection -------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return self.params.num_parameters

    @property
    def num_layers(self) -> int:
        """Number of hidden layers."""
        return self.config.num_layers

    def clone(self) -> "TinyLM":
        """Deep copy with identical weights (used for reference models)."""
        twin = TinyLM(self.config, np.random.default_rng(0))
        twin.params = self.params.copy()
        return twin

    # -- forward -------------------------------------------------------------

    def forward(
        self, tokens: np.ndarray, keep_cache: bool = False
    ) -> ForwardResult:
        """Teacher-forced forward pass.

        Args:
            tokens: (B, T) int array; position ``t`` sees the window ending
                at ``t`` and produces the distribution of token ``t+1``.
            keep_cache: retain activations for :meth:`backward`.

        Returns:
            :class:`ForwardResult` with logits (B, T, V) and per-layer
            hidden states.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise GenerationError(
                f"tokens must be 2-D (batch, time), got shape {tokens.shape}"
            )
        windows = self._build_windows(tokens)
        # All B*T positions as rows of ONE sequence: one GEMM per layer.
        flat = self._forward_windows(
            windows.reshape(1, tokens.size, -1), keep_cache=keep_cache
        )
        shape = tokens.shape + (-1,)
        hiddens = [h.reshape(shape) for h in flat.hiddens]
        cache = flat.cache and ForwardCache(
            windows=windows,
            x=flat.cache.x.reshape(shape),
            hiddens=hiddens,
            block_acts=[a.reshape(shape) for a in flat.cache.block_acts],
        )
        return ForwardResult(flat.logits.reshape(shape), hiddens, cache)

    def step(self, context: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Single incremental decode step.

        Args:
            context: (B, k) int array of the trailing ``context_window``
                tokens per sequence (left-padded with PAD).

        Returns:
            ``(logits, hiddens)`` where logits is (B, V) and hiddens is the
            per-layer list of (B, d) states.
        """
        context = np.asarray(context)
        if context.ndim != 2 or context.shape[1] != self.config.context_window:
            raise GenerationError(
                "context must have shape (batch, context_window)="
                f"(*, {self.config.context_window}), got {context.shape}"
            )
        result = self._forward_windows(
            context[:, None, :], keep_cache=False
        )
        logits = result.logits[:, 0, :]
        hiddens = [h[:, 0, :] for h in result.hiddens]
        return logits, hiddens

    # -- backward ------------------------------------------------------------

    def backward(
        self,
        cache: ForwardCache,
        dlogits: np.ndarray,
        position_mask: Optional[np.ndarray] = None,
    ) -> ParamSet:
        """Backpropagate a logits-space gradient to parameter gradients.

        Args:
            cache: activations from ``forward(..., keep_cache=True)``.
            dlogits: (B, T, V) gradient of the scalar loss w.r.t. logits.
            position_mask: optional (B, T) {0,1} mask; masked-out positions
                contribute no gradient (used to skip padding).

        Returns:
            A :class:`ParamSet` of gradients matching :attr:`params`.
        """
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != cache.hiddens[-1].shape[:2] + (
            self.config.vocab_size,
        ):
            raise GenerationError(
                f"dlogits shape {dlogits.shape} inconsistent with cache"
            )
        if position_mask is not None:
            dlogits = dlogits * position_mask[:, :, None]

        # Every product below is one 2-D GEMM over the (B*T, .) views.
        d = self.config.hidden_size
        dlogits = dlogits.reshape(-1, self.config.vocab_size)
        embed = self.params["embed"]
        grads = self.params.zeros_like()  # fixes the parameter order

        # LM head (tied embedding): logits = h_last @ E^T.
        grads["embed"] = dlogits.T @ cache.hiddens[-1].reshape(-1, d)
        dh = dlogits @ embed  # (B*T, d)

        # Residual tanh blocks, reverse order.
        for i in range(self.config.num_layers - 1, 0, -1):
            act = cache.block_acts[i - 1].reshape(-1, d)
            dz = dh * (1.0 - act * act)
            grads[f"w_{i}"] = dz.T @ cache.hiddens[i - 1].reshape(-1, d)
            grads[f"b_{i}"] = dz.sum(axis=0)
            dh += dz @ self.params[f"w_{i}"]

        # Input projection: h_0 = tanh(W_in x + b_in).
        h0 = cache.hiddens[0].reshape(-1, d)
        dz0 = dh * (1.0 - h0 * h0)
        grads["w_in"] = dz0.T @ cache.x.reshape(dz0.shape[0], -1)
        grads["b_in"] = dz0.sum(axis=0)
        dx = dz0 @ self.params["w_in"]  # (B*T, k*d)

        # Scatter input-embedding gradients back through the window
        # lookup, one window column (one (B*T, d) block) at a time.
        windows = cache.windows.reshape(dx.shape[0], -1)
        for column in range(windows.shape[1]):
            _segment_add(
                grads["embed"],
                windows[:, column],
                dx[:, column * d : (column + 1) * d],
            )
        return grads

    # -- internals -------------------------------------------------------------

    def _build_windows(self, tokens: np.ndarray) -> np.ndarray:
        """(B, T) tokens → (B, T, k) trailing windows, PAD on the left."""
        batch, length = tokens.shape
        k = self.config.context_window
        padded = np.full((batch, length + k - 1), PAD_ID, dtype=np.int64)
        padded[:, k - 1 :] = tokens
        stride_b, stride_t = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded,
            shape=(batch, length, k),
            strides=(stride_b, stride_t, stride_t),
        )
        return np.ascontiguousarray(windows)

    def _forward_windows(
        self, windows: np.ndarray, keep_cache: bool
    ) -> ForwardResult:
        embed = self.params["embed"]
        batch, length, k = windows.shape
        d = self.config.hidden_size
        x = embed[windows].reshape(batch, length, k * d)

        hiddens: List[np.ndarray] = []
        block_acts: List[np.ndarray] = []
        h = np.tanh(x @ self.params["w_in"].T + self.params["b_in"])
        hiddens.append(h)
        for i in range(1, self.config.num_layers):
            act = np.tanh(h @ self.params[f"w_{i}"].T + self.params[f"b_{i}"])
            block_acts.append(act)
            h = h + act
            hiddens.append(h)
        logits = h @ embed.T
        cache = (
            ForwardCache(
                windows=windows, x=x, hiddens=hiddens, block_acts=block_acts
            )
            if keep_cache
            else None
        )
        return ForwardResult(logits=logits, hiddens=hiddens, cache=cache)


def _segment_add(
    out: np.ndarray, ids: np.ndarray, rows: np.ndarray
) -> None:
    """``out[ids[i]] += rows[i]`` as a segmented sum: rows grouped by id
    (stable sort), one ``np.add.reduceat`` over the groups, one add per
    distinct id; the only temporary is the sorted copy of ``rows``."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    out[sorted_ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def contexts_from_sequences(
    sequences: Sequence[Sequence[int]], context_window: int
) -> np.ndarray:
    """Build the (B, k) trailing-context array for a batch of sequences.

    Shorter-than-window sequences are left-padded with PAD.
    """
    batch = len(sequences)
    ctx = np.full((batch, context_window), PAD_ID, dtype=np.int64)
    for row, seq in enumerate(sequences):
        tail = list(seq)[-context_window:]
        if tail:
            ctx[row, -len(tail) :] = tail
    return ctx


def pad_sequences(
    sequences: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Right-pad ragged sequences with PAD: ``((B, T) tokens, lengths)``.
    The window is causal, so a teacher-forced forward's real positions
    never see the padding."""
    lengths = np.array([len(seq) for seq in sequences])
    tokens = np.full((len(sequences), lengths.max()), PAD_ID, dtype=np.int64)
    for row, seq in enumerate(sequences):
        tokens[row, : len(seq)] = seq
    return tokens, lengths
