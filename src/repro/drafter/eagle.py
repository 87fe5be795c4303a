"""EAGLE-style learned single-layer drafter (paper §4.1).

The drafter mirrors the target architecture but carries **one** trainable
decoder block.  It reuses the target model's embedding / LM-head weights
(tied, frozen — so head updates made by RL are visible to the drafter for
free) and consumes the target's hidden states:

* input feature: the fused target hidden stack at the previous position
  (EAGLE fuses only the top layer; EAGLE-3 fuses bottom/middle/top) —
  projected to the hidden size by a lightweight linear layer, exactly the
  "dimension reduction" step of Figure 7;
* cell: ``z = W_r [s; e(token)] + b_r`` followed by a residual FFN block
  with expansion (``h = z + tanh(z W_1^T + b_1) W_2^T``) — the single
  decoder layer, including the usual 4x feed-forward widening;
* head: tied target embedding, ``logits = h E^T``.

When drafting several tokens ahead the cell feeds its own output hidden
back in, which is where approximation error accumulates and why acceptance
decays with draft depth (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.drafter.base import Drafter
from repro.errors import DrafterError
from repro.llm.model import TinyLM
from repro.llm.params import ParamSet
from repro.llm.sampler import temperature_probs

#: Feed-forward expansion of the single decoder layer (transformer
#: blocks typically use 4x).
FFN_EXPANSION = 4

#: Weight-initialisation scale of the drafter's own layers.
INIT_SCALE = 0.5


@dataclass(frozen=True)
class EagleDrafterConfig:
    """Structural configuration of an :class:`EagleDrafter`.

    Attributes:
        fused_layers: indices into the target's hidden stack that form the
            input feature.  ``(-1,)`` is EAGLE (top layer only);
            ``(0, mid, -1)`` is the EAGLE-3 fusion.
    """

    fused_layers: Tuple[int, ...] = (-1,)

    def __post_init__(self) -> None:
        if not self.fused_layers:
            raise DrafterError("fused_layers must be non-empty")


@dataclass(frozen=True)
class EagleState:
    """Immutable drafting state: the drafter's current hidden vector."""

    hidden: np.ndarray  # (d,)


class EagleDrafter(Drafter):
    """Single-decoder-layer learned drafter tied to a target model.

    Args:
        target: the target model whose embedding/LM head are shared
            (referenced live, never copied — RL updates flow through).
        config: fusion settings.
        rng: generator for weight initialisation.
    """

    name = "eagle"

    def __init__(
        self,
        target: TinyLM,
        config: EagleDrafterConfig,
        rng: np.random.Generator,
    ) -> None:
        self.target = target
        self.config = config
        d = target.config.hidden_size
        n_fused = len(config.fused_layers)
        for layer in config.fused_layers:
            if not -target.num_layers <= layer < target.num_layers:
                raise DrafterError(
                    f"fused layer {layer} out of range for "
                    f"{target.num_layers}-layer target"
                )
        #: The fused layers as offsets from the top of the stack (-1 =
        #: top), so a full stack and any suffix holding them read alike.
        self.layer_offsets = tuple(
            layer - target.num_layers if layer >= 0 else layer
            for layer in config.fused_layers
        )
        scale = INIT_SCALE
        f = FFN_EXPANSION * d
        params = ParamSet()
        if n_fused > 1:
            params["w_fuse"] = rng.normal(
                0.0, scale / np.sqrt(n_fused * d), size=(d, n_fused * d)
            )
            params["b_fuse"] = np.zeros(d)
        params["w_r"] = rng.normal(0.0, scale / np.sqrt(2 * d), size=(d, 2 * d))
        params["b_r"] = np.zeros(d)
        params["w_up"] = rng.normal(0.0, scale / np.sqrt(d), size=(f, d))
        params["b_up"] = np.zeros(f)
        params["w_down"] = rng.normal(0.0, scale / np.sqrt(f), size=(d, f))
        self.params = params

    # -- introspection ---------------------------------------------------

    @property
    def trainable(self) -> bool:
        return True

    @property
    def hidden_size(self) -> int:
        """Hidden width (matches the target)."""
        return self.target.config.hidden_size

    @property
    def num_parameters(self) -> int:
        """Trainable scalar parameters (frozen tied weights excluded)."""
        return self.params.num_parameters

    def clone(self) -> "EagleDrafter":
        """Deep copy of the trainable weights (shares the target)."""
        twin = EagleDrafter(self.target, self.config, np.random.default_rng(0))
        twin.params = self.params.copy()
        return twin

    # -- numeric core ------------------------------------------------------

    @staticmethod
    def _row_linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Batch-size-invariant linear map: ``x (n, e) @ w.T -> (n, f)``.

        ``np.einsum`` reduces each output row in a fixed order regardless
        of how many rows the call carries, unlike a BLAS GEMM whose
        blocking differs between single-row and multi-row shapes.  Every
        inference-path matmul routes through this, which is what makes
        batched drafting *bitwise* identical to per-sequence drafting —
        the byte-identity guarantee of the flat tree builder rests on it.
        """
        return np.einsum("ne,fe->nf", x, w)

    def _fuse_rows(self, hidden_stacks: np.ndarray) -> np.ndarray:
        """Row-stable :meth:`fuse` over (n, layers, d) stacks."""
        selected = [hidden_stacks[:, layer, :]
                    for layer in self.layer_offsets]
        feature = np.concatenate(selected, axis=-1)
        if "w_fuse" in self.params:
            feature = (
                self._row_linear(feature, self.params["w_fuse"])
                + self.params["b_fuse"]
            )
        return feature

    def _cell_rows(
        self, states: np.ndarray, token_embeds: np.ndarray
    ) -> np.ndarray:
        """Row-stable :meth:`cell` over (n, d) states and embeddings."""
        u = np.concatenate([states, token_embeds], axis=-1)
        z = self._row_linear(u, self.params["w_r"]) + self.params["b_r"]
        a = np.tanh(
            self._row_linear(z, self.params["w_up"]) + self.params["b_up"]
        )
        return z + self._row_linear(a, self.params["w_down"])

    def _head_rows(self, hiddens: np.ndarray) -> np.ndarray:
        """Row-stable :meth:`head_logits` over (n, d) hiddens."""
        return self._row_linear(hiddens, self.target.params["embed"])

    def fuse(self, hidden_stack: np.ndarray) -> np.ndarray:
        """Project a target hidden stack to the drafter's input feature.

        Layers are read by :attr:`layer_offsets`, counted from the top,
        so the stack may be the full ``num_layers`` or any suffix of it
        that holds the lowest fused layer — what the DataBuffer keeps
        (:meth:`repro.spot.SpotTrainer.ingest`).

        Args:
            hidden_stack: (..., layers, d) target hiddens, the top
                ``layers`` of the stack (``layers <= num_layers``).

        Returns:
            (..., d) fused feature.
        """
        hidden_stack = np.asarray(hidden_stack, dtype=np.float64)
        selected = [hidden_stack[..., layer, :]
                    for layer in self.layer_offsets]
        feature = np.concatenate(selected, axis=-1)
        if "w_fuse" in self.params:
            feature = feature @ self.params["w_fuse"].T + self.params["b_fuse"]
        return feature

    def head_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Tied LM head: (..., d) hidden -> (..., V) logits."""
        return hidden @ self.target.params["embed"].T

    # -- Drafter protocol ---------------------------------------------------

    def begin(
        self,
        prefix_tokens: Sequence[int],
        last_hidden: Optional[np.ndarray],
    ) -> EagleState:
        return self.begin_batch([prefix_tokens], [last_hidden])[0]

    def begin_batch(
        self,
        prefixes: Sequence[Sequence[int]],
        last_hiddens: Sequence[Optional[np.ndarray]],
    ) -> List[EagleState]:
        """Vectorised begin: one fuse + cell matmul over all sequences.

        Bitwise row-identical to per-sequence :meth:`begin` — every
        matmul goes through the batch-size-invariant
        :meth:`_row_linear` kernel — which is what lets the batched
        engine keep the token-identity guarantee while amortising
        drafter launches across the live batch.
        """
        if len(prefixes) != len(last_hiddens):
            raise DrafterError(
                "prefixes and last_hiddens must have equal lengths, got "
                f"{len(prefixes)}/{len(last_hiddens)}"
            )
        n = len(prefixes)
        d = self.hidden_size
        fused = np.zeros((n, d))
        rows = [i for i, h in enumerate(last_hiddens) if h is not None]
        if rows:
            stacks = []
            for i in rows:
                stack = np.asarray(last_hiddens[i], dtype=np.float64)
                if stack.ndim == 1:
                    # Tolerate a bare top-layer vector by broadcasting it.
                    stack = np.tile(stack, (self.target.num_layers, 1))
                stacks.append(stack)
            fused[rows] = self._fuse_rows(np.stack(stacks, axis=0))
        tokens = []
        for prefix in prefixes:
            if not len(prefix):
                raise DrafterError("prefix_tokens must be non-empty")
            tokens.append(int(prefix[-1]))
        embed = self.target.params["embed"][np.asarray(tokens, dtype=np.int64)]
        hidden = self._cell_rows(fused, embed)  # (n, d)
        return [EagleState(hidden=hidden[i]) for i in range(n)]

    def pack_states(self, states: Sequence[EagleState]) -> np.ndarray:
        """``(n, d)`` hidden rows; an already packed block passes through."""
        if isinstance(states, np.ndarray):
            return states
        if not len(states):
            return np.zeros((0, self.hidden_size))
        return np.stack(
            [np.asarray(s.hidden, dtype=np.float64) for s in states],
            axis=0,
        )

    def _extend_rows(
        self, states: Sequence[EagleState], tokens: Sequence[int]
    ) -> np.ndarray:
        """One cell step over all (state, token) pairs -> ``(n, d)``."""
        if len(states) != len(tokens):
            raise DrafterError(
                "states and tokens must have equal lengths, got "
                f"{len(states)}/{len(tokens)}"
            )
        ids = np.asarray(tokens, dtype=np.int64)
        return self._cell_rows(
            self.pack_states(states), self.target.params["embed"][ids]
        )

    def propose(self, state: EagleState, temperature: float) -> np.ndarray:
        return self.propose_batch([state], temperature)[0]

    def propose_batch(
        self, states: Sequence[EagleState], temperature: float
    ) -> List[np.ndarray]:
        """Vectorised propose: one head matmul over all states.

        Single-state :meth:`propose` delegates here, so the per-node and
        the batched drafting paths share one canonical (batch-size-
        invariant) numeric kernel and return bitwise-equal rows.
        """
        return list(
            temperature_probs(
                self._head_rows(self.pack_states(states)), temperature
            )
        )

    def extend(self, state: EagleState, token: int) -> EagleState:
        return self.extend_batch([state], [token])[0]

    def extend_batch(
        self,
        states: Sequence[EagleState],
        tokens: Sequence[int],
    ) -> List[EagleState]:
        """Vectorised extend: one cell step over all (state, token) pairs.

        Single-pair :meth:`extend` delegates here (same bitwise-identity
        argument as :meth:`propose_batch`).
        """
        return [
            EagleState(hidden=row)
            for row in self._extend_rows(states, tokens)
        ]

    def extend_propose_batch(
        self,
        states: Sequence[EagleState],
        tokens: Sequence[int],
        temperature: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused launch: one cell step feeding one head matmul.

        Works on packed hidden rows end to end — no per-node
        :class:`EagleState` is built — and goes through the same
        row-stable kernels as the separate calls.
        """
        hiddens = self._extend_rows(states, tokens)
        return hiddens, temperature_probs(
            self._head_rows(hiddens), temperature
        )

    # -- training-time forward/backward ------------------------------------

    def forward_cell_batch(
        self, states: np.ndarray, tokens: np.ndarray
    ) -> Tuple[np.ndarray, dict]:
        """Batched cell forward with cached activations.

        Args:
            states: (N, d) input states.
            tokens: (N,) token ids consumed this step.

        Returns:
            ``(hidden, cache)`` with hidden (N, d).
        """
        return self.cell(
            states, self.target.params["embed"][np.asarray(tokens)]
        )

    def cell(
        self, states: np.ndarray, token_embeds: np.ndarray
    ) -> Tuple[np.ndarray, dict]:
        """:meth:`forward_cell_batch` over (N, d) token embeddings (the
        trainer looks them up once per batch, not once per update)."""
        # In place: a fresh (N, 4d) block costs more than the arithmetic.
        u = np.concatenate([states, token_embeds], axis=-1)
        z = u @ self.params["w_r"].T
        z += self.params["b_r"]
        a = z @ self.params["w_up"].T
        a += self.params["b_up"]
        np.tanh(a, out=a)
        hidden = a @ self.params["w_down"].T
        hidden += z
        return hidden, {"u": u, "z": z, "a": a}

    def backward_cell_batch(
        self,
        cache: dict,
        dhidden: np.ndarray,
        grads: ParamSet,
        input_grad: bool = True,
    ) -> Optional[np.ndarray]:
        """Backprop one cell step; accumulates into ``grads``, one
        ``(out, N) x (N, in)`` GEMM per weight.

        Returns:
            (N, d) gradient w.r.t. the input state (for unrolled BPTT);
            with ``input_grad`` false — nothing consumes it below the
            first step of a frozen fusion — its GEMM is skipped and the
            result is None.
        """
        a = cache["a"]
        # h = z + a W_down^T
        grads["w_down"] += dhidden.T @ a
        dpre = a * a  # becomes da * (1 - a^2) in the one block
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dhidden @ self.params["w_down"]
        grads["w_up"] += dpre.T @ cache["z"]
        grads["b_up"] += dpre.sum(axis=0)
        dz = dpre @ self.params["w_up"]
        dz += dhidden
        grads["w_r"] += dz.T @ cache["u"]
        grads["b_r"] += dz.sum(axis=0)
        if not input_grad:
            return None
        # u = [state; embed]: only the state half of W_r carries back.
        return dz @ self.params["w_r"][:, : self.hidden_size]

    def backward_fuse(
        self,
        hidden_stacks: np.ndarray,
        dfused: np.ndarray,
        grads: ParamSet,
    ) -> None:
        """Backprop through the fusion projection (input features frozen)."""
        if "w_fuse" not in self.params:
            return
        selected = [
            np.asarray(hidden_stacks)[..., layer, :]
            for layer in self.layer_offsets
        ]
        feature = np.concatenate(selected, axis=-1)
        grads["w_fuse"] += dfused.T @ feature
        grads["b_fuse"] += dfused.sum(axis=0)

    def state_dict(self) -> dict:
        """Trainable parameters only (tied weights are the target's)."""
        return self.params.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore trainable parameters; dotted names (the ``optimizer.*``
        / ``trainer.*`` entries of a ``DrafterTrainer`` checkpoint) are
        not drafter weights and are skipped."""
        self.params.load_state_dict(
            {name: arr for name, arr in state.items() if "." not in name}
        )
