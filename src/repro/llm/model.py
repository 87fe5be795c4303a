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

    Holds only what :meth:`TinyLM.backward` reads: the input embeddings
    are re-gathered from ``windows`` there, not kept.  ``backward``
    consumes the cache (it empties both lists as it goes).  Its grid
    (B, T) below is the forward's: the whole token grid, or (1, N) for
    N selected cells, so a cell the caller does not read holds no row.

    Attributes:
        windows: (B, T, k) int token windows per position.
        hiddens: list of (B, T, d) per-layer hidden states h_0..h_{L-1}.
        block_acts: list of (B, T, d) tanh block outputs a_1..a_{L-1}
            (empty when num_layers == 1).
    """

    windows: np.ndarray
    hiddens: List[np.ndarray]
    block_acts: List[np.ndarray]


@dataclass
class ForwardResult:
    """Output of a teacher-forced forward pass.

    Attributes:
        logits: (B, T, V) next-token logits at every position, or
            (1, N, V) at N selected cells.
        hiddens: list of per-layer hidden states, each (B, T, d) or
            (1, N, d).  With a cache it is the same list as
            ``cache.hiddens``: do not read it after
            :meth:`TinyLM.backward` has consumed the cache.
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
        self,
        tokens: np.ndarray,
        keep_cache: bool = False,
        cells: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> ForwardResult:
        """Teacher-forced forward pass.

        Args:
            tokens: (B, T) int array; position ``t`` sees the window ending
                at ``t`` and produces the distribution of token ``t+1``.
            keep_cache: retain activations for :meth:`backward`.
            cells: optional ``(rows, positions)`` int arrays naming N
                cells of the grid.  Only those cells run, as one (1, N)
                sequence in the given order; the rest of the grid (the
                padding of a ragged batch, say) is never computed.  A
                cell's window is the grid's, so its row is the grid
                forward's row.

        Returns:
            :class:`ForwardResult` with logits (B, T, V) and per-layer
            hidden states (B, T, d) — (1, N, V) and (1, N, d) with
            ``cells`` — and a cache of the same grid, which
            :meth:`backward` takes as it is.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise GenerationError(
                f"tokens must be 2-D (batch, time), got shape {tokens.shape}"
            )
        windows = self._build_windows(tokens)
        if cells is None:
            windows = np.ascontiguousarray(windows)
        else:
            rows, positions = map(np.asarray, cells)
            if rows.ndim != 1 or rows.shape != positions.shape or (
                rows.size
                and (
                    min(rows.min(), positions.min()) < 0
                    or rows.max() >= tokens.shape[0]
                    or positions.max() >= tokens.shape[1]
                )
            ):
                raise GenerationError(
                    "cells must be two equal-length 1-D index arrays "
                    f"inside the {tokens.shape} token grid"
                )
            windows = windows[rows, positions][None]
        # Every row of the grid as rows of ONE sequence: one GEMM per layer.
        grid = windows.shape[:2]
        flat = self._forward_windows(
            windows.reshape(1, -1, windows.shape[2]), keep_cache=keep_cache
        )
        shape = grid + (-1,)
        hiddens = [h.reshape(shape) for h in flat.hiddens]
        cache = flat.cache and ForwardCache(
            windows=windows,
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

    def backward(self, cache: ForwardCache, dlogits: np.ndarray) -> ParamSet:
        """Backpropagate a logits-space gradient to parameter gradients.

        Consumes ``cache``: each activation is released once its last
        reader is done, so the input embeddings (re-gathered here from
        ``cache.windows``; the weights have not moved since the forward)
        and their gradient never coexist with the full cache.  A cache
        is good for one call.

        Args:
            cache: activations from ``forward(..., keep_cache=True)``.
            dlogits: gradient of the scalar loss w.r.t. the forward's
                logits, on its grid: (B, T, V), or (1, N, V) after a
                forward over N selected cells (a cell with no gradient
                is simply not selected).

        Returns:
            A :class:`ParamSet` of gradients matching :attr:`params`.
        """
        hiddens, block_acts = cache.hiddens, cache.block_acts
        if not hiddens:
            raise GenerationError("cache already consumed by a backward")
        positions = hiddens[-1].shape[:2]
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != positions + (self.config.vocab_size,):
            raise GenerationError(
                f"dlogits shape {dlogits.shape} inconsistent with cache"
            )

        # Every product below is one 2-D GEMM over the (rows, .) views.
        d = self.config.hidden_size
        dlogits = dlogits.reshape(-1, self.config.vocab_size)
        embed = self.params["embed"]
        grads = self.params.zeros_like()  # fixes the parameter order

        def top() -> np.ndarray:
            """The top hidden as rows, released unless it is h_0 (the
            input projection reads h_0 last)."""
            h = hiddens.pop() if len(hiddens) > 1 else hiddens[0]
            return h.reshape(-1, d)

        # LM head (tied embedding): logits = h_last @ E^T.
        grads["embed"] = dlogits.T @ top()
        dh = dlogits @ embed  # (rows, d)

        # Residual tanh blocks, reverse order; hiddens is h_0..h_{i-1}.
        for i in range(self.config.num_layers - 1, 0, -1):
            dz = dh * _tanh_grad(block_acts.pop().reshape(-1, d))
            grads[f"w_{i}"] = dz.T @ top()
            grads[f"b_{i}"] = dz.sum(axis=0)
            dh += dz @ self.params[f"w_{i}"]

        # Input projection: h_0 = tanh(W_in x + b_in).
        dz = dh * _tanh_grad(hiddens.pop().reshape(-1, d))
        del dh
        windows = cache.windows.reshape(dz.shape[0], -1)
        x = embed[windows].reshape(dz.shape[0], -1)  # (rows, k*d)
        grads["w_in"] = dz.T @ x
        del x
        grads["b_in"] = dz.sum(axis=0)
        dx = dz @ self.params["w_in"]  # (rows, k*d)

        # Scatter input-embedding gradients back through the window
        # lookup, one window column (one (rows, d) block) at a time.
        for column in range(windows.shape[1]):
            _segment_add(
                grads["embed"],
                windows[:, column],
                dx[:, column * d : (column + 1) * d],
            )
        return grads

    # -- internals -------------------------------------------------------------

    def _build_windows(self, tokens: np.ndarray) -> np.ndarray:
        """(B, T) tokens → (B, T, k) trailing windows, PAD on the left,
        as a strided view (copy it, or gather the cells you need)."""
        batch, length = tokens.shape
        k = self.config.context_window
        padded = np.full((batch, length + k - 1), PAD_ID, dtype=np.int64)
        padded[:, k - 1 :] = tokens
        stride_b, stride_t = padded.strides
        return np.lib.stride_tricks.as_strided(
            padded,
            shape=(batch, length, k),
            strides=(stride_b, stride_t, stride_t),
        )

    def _forward_windows(
        self, windows: np.ndarray, keep_cache: bool
    ) -> ForwardResult:
        embed = self.params["embed"]
        batch, length, k = windows.shape
        d = self.config.hidden_size
        x = embed[windows].reshape(batch, length, k * d)
        h = np.tanh(x @ self.params["w_in"].T + self.params["b_in"])
        del x  # backward re-gathers it from the windows

        hiddens: List[np.ndarray] = [h]
        block_acts: List[np.ndarray] = []
        for i in range(1, self.config.num_layers):
            act = np.tanh(h @ self.params[f"w_{i}"].T + self.params[f"b_{i}"])
            block_acts.append(act)
            h = h + act
            hiddens.append(h)
        logits = h @ embed.T
        cache = (
            ForwardCache(
                windows=windows, hiddens=hiddens, block_acts=block_acts
            )
            if keep_cache
            else None
        )
        return ForwardResult(logits=logits, hiddens=hiddens, cache=cache)


def _tanh_grad(act: np.ndarray) -> np.ndarray:
    """``d tanh(z) / dz`` from the activation ``tanh(z)``."""
    return 1.0 - act * act


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
