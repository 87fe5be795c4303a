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

The prefill kernels live here too.  :func:`suffix_prefill_hiddens` is
the one prefill launch of a tick: it takes effective prefill contexts
and, per context, the positions whose hand-off the caller keeps (block
boundaries at or past the cache plan's compute start; the context's end
without a cache) and computes exactly those rows in one target forward.
The target is windowed with no KV state, so each row equals
:func:`initial_hiddens` of the prefix ending there — the reference the
tests and the tracer keep.

This is the algorithmic engine behind every accept-length experiment;
wall-clock throughput modelling lives in :mod:`repro.rollout`, which
replays these statistics through the roofline cost model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

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
    positions: Sequence[Sequence[int]],
) -> List[Dict[int, np.ndarray]]:
    """Target hidden stacks at chosen positions of each context.

    The prefill launch of a tick.  Each ``contexts[i]`` is an
    *effective prefill context* (already windowed — at most
    ``context_window`` tokens, so every position sees its full history)
    and ``positions[i]`` lists the positions whose hand-off the caller
    keeps: the engine asks for each block boundary at or past the
    plan's compute start, the last of which is the context's end, and
    a cache-less engine for that end alone.  Every row of every
    context shares ONE batched target forward, and only the requested
    rows are computed: :class:`~repro.llm.model.TinyLM` is windowed and
    keeps no KV state, so a position's hand-off depends on its own
    window alone.

    Returns, per context, a map from each requested position ``t`` to
    an owned (num_layers, hidden_size) stack, byte-identical to
    :func:`initial_hiddens` of the prefix ``context[: t + 1]`` plus any
    next token: both run the target over the same trailing window.
    """
    if len(contexts) != len(positions):
        raise ValueError(
            f"contexts/positions length mismatch: "
            f"{len(contexts)} vs {len(positions)}"
        )
    rows = [
        context[: t + 1]
        for context, wanted in zip(contexts, positions)
        for t in wanted
    ]
    if not rows:
        return [{} for _ in contexts]
    _, hiddens = target.step(
        contexts_from_sequences(rows, target.config.context_window)
    )
    stack = np.stack(hiddens, axis=1)  # (rows, L, d)
    rows_of = iter(stack)
    return [
        {t: next(rows_of).copy() for t in wanted} for wanted in positions
    ]


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
