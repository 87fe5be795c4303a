"""Drafter protocol consumed by the speculative-decoding engine.

A drafter proposes next-token distributions cheaply.  The tree builder
drafts every live sequence's tree in lock-step and drives it through
three batched calls on *packed* states, an array with one row per state
(``(n, d)`` hidden rows for EAGLE, ``(n, context_window)`` token windows
for a small LM):

* :meth:`Drafter.begin_batch` — start drafting after each verified
  prefix; feature-level drafters receive the target model's exact hidden
  state at the second-to-last position (the EAGLE hand-off); a small-LM
  drafter, which runs its own model over the prefix, ignores it.
* :meth:`Drafter.propose_batch` — the next-token distributions below
  the states (pure; the states are not mutated).
* :meth:`Drafter.extend_propose_batch` — append one token to each state
  and propose below the successors, in ONE launch: after the root
  proposal each round of tree growth is one such call over the nodes
  about to be expanded.

The one contract: row ``i`` of an ``n``-row call equals a one-row call on
row ``i``, bitwise.  A row never depends on its neighbours or its
position, which is what lets the builder batch a whole live batch's
frontier into one call per round and still commit the tokens per-node
drafting would; it is also what lets the builder branch one parent row
into ``topk`` children by copying it.

Because every drafting state is rebuilt from the target's hidden hand-off
at the start of each cycle, a drafter carries **no cross-cycle state the
engine depends on** — which is what makes zero-downtime hot swap
(:meth:`repro.specdec.batch_engine.BatchedSpecDecodeEngine.swap_drafter`)
cycle-boundary safe for every drafter.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import DrafterError


def check_rows(first: Sequence, second: Sequence, names: str) -> None:
    """Raise :class:`DrafterError` unless the two row lists pair up."""
    if len(first) != len(second):
        raise DrafterError(
            f"{names} must have equal lengths, got "
            f"{len(first)}/{len(second)}"
        )


def last_tokens(prefixes: Sequence[Sequence[int]]) -> np.ndarray:
    """Each prefix's most recent committed token; an empty one raises."""
    if not all(len(prefix) for prefix in prefixes):
        raise DrafterError("prefix_tokens must be non-empty")
    return np.array([int(prefix[-1]) for prefix in prefixes], dtype=np.int64)


class Drafter(abc.ABC):
    """Interface every draft model implements."""

    #: Human-readable identifier used in benchmark tables.
    name: str = "drafter"

    @abc.abstractmethod
    def begin_batch(
        self,
        prefixes: Sequence[Sequence[int]],
        last_hiddens: Sequence[Optional[np.ndarray]],
    ) -> np.ndarray:
        """Packed drafting states, one row per sequence.

        Args:
            prefixes: each sequence's committed tokens (prompt + accepted
                tokens); the last entry is the most recent one.  Empty
                prefixes raise :class:`DrafterError`.
            last_hiddens: per sequence, the target model's exact hidden
                stack ``(num_layers, d)`` at the *second-to-last*
                position (the state that generated the last token), or
                ``None`` when unavailable.  Must pair up with
                ``prefixes``.
        """

    @abc.abstractmethod
    def propose_batch(
        self, states: np.ndarray, temperature: float
    ) -> np.ndarray:
        """``(n, V)`` next-token distributions below ``n`` packed states."""

    @abc.abstractmethod
    def extend_propose_batch(
        self,
        states: np.ndarray,
        tokens: Sequence[int],
        temperature: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Append ``tokens[i]`` to ``states[i]`` and propose below it.

        Returns:
            ``(successors, probs)``: the packed successor states and
            their ``(n, V)`` next-token distributions.  ``tokens`` must
            pair up with ``states``.
        """
