"""End-to-end speculative generation (front door of the batched engine).

:func:`speculative_generate` drives repeated draft/verify cycles until EOS
or the length cap, committing tokens whose joint distribution matches
vanilla decoding exactly (in ``sample`` child mode).  Since the
continuous-batching refactor it is a thin wrapper over
:class:`~repro.specdec.batch_engine.BatchedSpecDecodeEngine`:

* requests are admitted into a bounded pool of live slots by the
  :class:`~repro.specdec.scheduler.ContinuousBatchScheduler` and retire
  individually on EOS or their length cap, freeing slots for waiting
  requests (continuous batching);
* every cycle drafts per live sequence and verifies ALL live sequences'
  candidate rows in one batched target forward
  (:func:`~repro.specdec.tree.verify_trees`), so target launches scale
  with the slowest sequence's cycle count rather than the sum over
  sequences (a vanilla cycle verifies zero-node trees through the same
  launch);
* each request owns a private random stream, making committed tokens
  independent of scheduling under a static strategy —
  ``max_batch_size=1`` (sequential) and full batching are then
  token-for-token identical under a fixed seed (with an ``sd_manager``
  the elastic SD/vanilla decision itself depends on the live-batch
  size, so capacity legitimately shapes the output);
* an optional :class:`~repro.rollout.adaptive.AdaptiveSdManager` is
  consulted per cycle with the real live-batch size (elastic activation,
  BEG-MAB strategy selection fed by measured accept lengths).

This is the algorithmic engine behind every accept-length experiment;
wall-clock throughput modelling lives in :mod:`repro.rollout`, which
replays these statistics through the roofline cost model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.drafter.base import Drafter
from repro.llm.model import TinyLM, contexts_from_sequences
from repro.specdec.strategy import SdStrategy
from repro.specdec.tree import ChildMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.rollout.adaptive import AdaptiveSdManager
    from repro.specdec.batch_engine import BatchedGenerationResult


def initial_hiddens(
    target: TinyLM, prefixes: Sequence[Sequence[int]]
) -> List[Optional[np.ndarray]]:
    """Exact target hidden stacks at the second-to-last prefix positions.

    This is the drafter hand-off convention in one place: each prefix of
    length >= 2 yields the (num_layers, hidden_size) stack at its
    second-to-last position; shorter prefixes yield None.  All eligible
    prefixes share ONE batched target forward.
    """
    out: List[Optional[np.ndarray]] = [None] * len(prefixes)
    need = [
        (i, list(p)) for i, p in enumerate(prefixes) if len(p) >= 2
    ]
    if not need:
        return out
    contexts = contexts_from_sequences(
        [p[:-1] for _, p in need], target.config.context_window
    )
    _, hiddens = target.step(contexts)
    stack = np.stack(hiddens, axis=1)  # (rows, L, d)
    for row, (i, _) in enumerate(need):
        out[i] = stack[row].copy()
    return out


def suffix_prefill_hiddens(
    target: TinyLM,
    contexts: Sequence[Sequence[int]],
    starts: Sequence[int],
) -> List[dict]:
    """Target hidden stacks at every position of each context's suffix.

    The paged-cache counterpart of :func:`initial_hiddens`: each
    ``contexts[i]`` is an *effective prefill context* (already windowed
    — at most ``context_window`` tokens, so every position sees its
    full history) and ``starts[i]`` is the first position that must be
    computed; positions before it are covered by cached blocks.  All
    suffix rows of all contexts share ONE batched target forward.

    Returns one dict per context mapping position ``t`` (``starts[i] <=
    t < len(contexts[i])``) to the (num_layers, hidden_size) stack at
    that position.  The final position's stack is byte-identical to
    what :func:`initial_hiddens` computes for the corresponding prompt:
    both run the target over the same trailing window.
    """
    if len(contexts) != len(starts):
        raise ValueError(
            f"contexts/starts length mismatch: "
            f"{len(contexts)} vs {len(starts)}"
        )
    rows: List[List[int]] = []
    owners: List[tuple] = []  # (context index, position)
    for i, (tokens, start) in enumerate(zip(contexts, starts)):
        tokens = list(tokens)
        for t in range(max(start, 0), len(tokens)):
            rows.append(tokens[: t + 1])
            owners.append((i, t))
    out: List[dict] = [{} for _ in contexts]
    if not rows:
        return out
    row_contexts = contexts_from_sequences(
        rows, target.config.context_window
    )
    _, hiddens = target.step(row_contexts)
    stack = np.stack(hiddens, axis=1)  # (rows, L, d)
    for row, (i, t) in enumerate(owners):
        out[i][t] = stack[row].copy()
    return out


def speculative_generate(
    target: TinyLM,
    drafter: Drafter,
    prompts: Sequence[Sequence[int]],
    max_new_tokens: int,
    temperature: float,
    rng: np.random.Generator,
    strategy: Optional[SdStrategy],
    child_mode: ChildMode = "sample",
    max_batch_size: Optional[int] = None,
    sd_manager: Optional["AdaptiveSdManager"] = None,
) -> "BatchedGenerationResult":
    """Generate responses with (batched) speculative decoding.

    Args:
        target: the target model.
        drafter: the draft model.
        prompts: token-id prompts.
        max_new_tokens: per-sequence response-length cap.
        temperature: sampling temperature (shared by drafter and target).
        rng: master random generator; per-request streams are derived from
            it so results do not depend on ``max_batch_size``.
        strategy: SD configuration tuple (optional when ``sd_manager``
            selects strategies per cycle).
        child_mode: tree child expansion mode (``sample`` is lossless).
        max_batch_size: live-slot capacity of the continuous-batching
            scheduler (None = all prompts decode together, 1 = fully
            sequential decoding; with a static ``strategy`` every
            capacity commits identical tokens — an ``sd_manager``'s
            elastic rule reads the live-batch size, so there capacity
            shapes the output by design).
        sd_manager: optional adaptive SD manager driven by the real
            live-batch size each cycle.

    Returns:
        The engine's :class:`~repro.specdec.batch_engine.
        BatchedGenerationResult` (``prompts`` / ``responses`` /
        ``finished`` / ``response_lengths`` in request order).
    """
    from repro.specdec.batch_engine import BatchedSpecDecodeEngine

    engine = BatchedSpecDecodeEngine(
        target,
        drafter,
        strategy,
        temperature,
        child_mode=child_mode,
        max_batch_size=max_batch_size,
        sd_manager=sd_manager,
    )
    return engine.generate(prompts, max_new_tokens, rng)
