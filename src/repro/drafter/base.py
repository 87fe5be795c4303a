"""Drafter protocol consumed by the speculative-decoding engine.

A drafter proposes next-token distributions cheaply.  The engine drives it
through three calls:

* :meth:`Drafter.begin` — start drafting after a verified prefix; learned
  drafters receive the target model's exact hidden state at the second-to-
  last position (the EAGLE hand-off), retrieval drafters ignore it.
* :meth:`Drafter.propose` — the distribution of the next token given the
  current drafting state (pure; does not mutate state).
* :meth:`Drafter.extend` — append a chosen token, returning the successor
  state (this is where learned drafters run their single decoder layer).

States are immutable from the engine's perspective, which is what lets the
tree builder branch one parent state into ``topk`` children.

Each call has a batched sibling (:meth:`Drafter.begin_batch`,
:meth:`Drafter.propose_batch`, :meth:`Drafter.extend_batch`) taking many
states at once, and :meth:`Drafter.extend_propose_batch` fuses the last
two: the batched engine drafts every live sequence's tree in lock-step,
and after the root proposal each round of growth is ONE fused launch over
the nodes about to be expanded, instead of two calls per node per
sequence.  The batched calls accept states either as a sequence or packed
by :meth:`Drafter.pack_states` (an array with one row per state, which is
how the tree builder keeps them).  The base class provides per-state
fallbacks; vectorised overrides must be row-identical to them.

Because every drafting state is rebuilt from the target's hidden hand-off
at the start of each cycle, a drafter carries **no cross-cycle state the
engine depends on** — which is what makes zero-downtime hot swap
(:meth:`repro.specdec.batch_engine.BatchedSpecDecodeEngine.swap_drafter`)
cycle-boundary safe for every drafter.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DrafterError

DrafterState = Any
"""Opaque per-branch drafting state (drafter-specific)."""


class Drafter(abc.ABC):
    """Interface every draft model implements."""

    #: Human-readable identifier used in benchmark tables.
    name: str = "drafter"

    @abc.abstractmethod
    def begin(
        self,
        prefix_tokens: Sequence[int],
        last_hidden: Optional[np.ndarray],
    ) -> DrafterState:
        """Create the drafting state for a sequence ending in ``prefix``.

        Args:
            prefix_tokens: the full current sequence (prompt + accepted
                tokens); the last entry is the most recent committed token.
            last_hidden: the target model's exact top-layer hidden state at
                the *second-to-last* position (the state that generated the
                last token), or ``None`` when unavailable (sequence shorter
                than two tokens, or a model-free drafter).

        Returns:
            A state from which :meth:`propose` yields the distribution of
            the first new token.
        """

    def begin_batch(
        self,
        prefixes: Sequence[Sequence[int]],
        last_hiddens: Sequence[Optional[np.ndarray]],
    ) -> List[DrafterState]:
        """Create drafting states for SEVERAL sequences at once.

        The default implementation is the per-sequence fallback (one
        :meth:`begin` call per sequence).  Learned drafters override it
        with a vectorised path that pushes all sequences through one
        batched matmul; overrides MUST stay row-identical to the fallback
        so the batched engine's losslessness guarantee holds.
        """
        if len(prefixes) != len(last_hiddens):
            raise DrafterError(
                "prefixes and last_hiddens must have equal lengths, got "
                f"{len(prefixes)}/{len(last_hiddens)}"
            )
        return [
            self.begin(prefix, hidden)
            for prefix, hidden in zip(prefixes, last_hiddens)
        ]

    @abc.abstractmethod
    def propose(
        self, state: DrafterState, temperature: float
    ) -> np.ndarray:
        """Next-token distribution (shape ``(V,)``) for ``state``."""

    @abc.abstractmethod
    def extend(self, state: DrafterState, token: int) -> DrafterState:
        """Successor state after appending ``token`` to the draft branch."""

    def propose_batch(
        self, states: Sequence[DrafterState], temperature: float
    ) -> List[np.ndarray]:
        """Next-token distributions for SEVERAL drafting states at once.

        The default implementation is the per-state fallback (one
        :meth:`propose` call per state).  Learned drafters override it
        with a vectorised path that pushes every state through one
        batched matmul; overrides MUST stay row-identical to the
        fallback — the flat tree builder batches the whole live batch's
        frontier into one call per depth, and its byte-identity to
        per-node drafting rests on each row being unaffected by its
        neighbours.
        """
        return [self.propose(state, temperature) for state in states]

    def extend_batch(
        self,
        states: Sequence[DrafterState],
        tokens: Sequence[int],
    ) -> List[DrafterState]:
        """Successor states for SEVERAL (state, token) pairs at once.

        The default implementation is the per-pair fallback (one
        :meth:`extend` call per pair).  Vectorised overrides MUST stay
        row-identical to the fallback, for the same reason as
        :meth:`propose_batch`.
        """
        if len(states) != len(tokens):
            raise DrafterError(
                "states and tokens must have equal lengths, got "
                f"{len(states)}/{len(tokens)}"
            )
        return [
            self.extend(state, int(token))
            for state, token in zip(states, tokens)
        ]

    def pack_states(self, states: Sequence[DrafterState]) -> np.ndarray:
        """States as an array with one leading-axis row per state.

        The tree builder stores states in one ``(batch, slots, ...)``
        table and hands fancy-indexed selections of it back to the
        batched calls.  The default packs opaque states into a 1-D
        object array; a vectorised drafter returns its numeric rows.
        """
        rows = np.empty(len(states), dtype=object)
        for index, state in enumerate(states):
            rows[index] = state
        return rows

    def extend_propose_batch(
        self,
        states: Sequence[DrafterState],
        tokens: Sequence[int],
        temperature: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused :meth:`extend_batch` then :meth:`propose_batch`.

        One launch per round of tree growth: append ``tokens[i]`` to
        ``states[i]`` and propose below the successor.

        Returns:
            ``(successors, probs)``: the successor states packed as by
            :meth:`pack_states` and their ``(n, V)`` next-token
            distributions.  Overrides MUST stay row-identical to the
            two calls made separately.
        """
        successors = self.extend_batch(states, tokens)
        return self.pack_states(successors), np.array(
            self.propose_batch(successors, temperature)
        )

    def observe_rollouts(
        self, sequences: Sequence[Sequence[int]]
    ) -> None:
        """Hook: ingest finished rollout responses.

        Retrieval-based drafters refresh their n-gram database here; learned
        drafters are trained through :mod:`repro.drafter.training` instead
        and ignore this.
        """

    @property
    def trainable(self) -> bool:
        """Whether this drafter has weights updated by the spot trainer."""
        return False
