"""Per-worker launches: what the lock-step tick is held to (oracle).

:meth:`repro.serving.frontend.ServingEngine.tick` runs every worker's
cycle as one lock-step batch, and :meth:`repro.fleet.engine.FleetEngine.
tick` runs every replica's workers as one batch.  This module keeps the
launches they replaced, in which each engine drafts and verifies alone,
worker by worker, and a fleet ticks its replicas one after another,
each running its whole pool tick before the next starts.  It also keeps
the vanilla decode that vanilla rows replaced when they joined the
tick's verify launch as sequences with no nodes: a vanilla cycle makes
its own ``TinyLM.step`` over its live rows and samples each row with
``sample_from_probs``.  And it keeps the per-engine prefill that the
tick's one prefill launch per target replaced: each engine computes its
own planned hand-offs with :func:`~repro.specdec.engine.initial_hiddens`
(the cache-less prefill) in a launch of its own, between its plan and
its finish.  The equivalence suite runs the same traces both ways and
requires equal outputs, random streams, tick stamps, counters, cache
stats, events and cycle reports.  A slot releases its random stream
once its terminal event is out, so the suite reads each request's final
stream state in a subscriber to that event (:func:`terminal_streams`).

:func:`per_worker` and :func:`replica_by_replica` install these ticks
on one pool or fleet object (an instance attribute shadows the method,
so ``run()`` and a :class:`~repro.longtail.RolloutScheduler` driving
the pool pick them up).
"""

from __future__ import annotations

import types

import numpy as np

from repro.errors import SpecDecodeError
from repro.fleet import FleetEngine
from repro.llm.model import contexts_from_sequences
from repro.llm.sampler import sample_from_probs, temperature_probs
from repro.serving import ServingEngine
from repro.specdec.control import RequestEventKind
from repro.specdec.engine import initial_hiddens
from repro.specdec.tree import (
    DraftBatch,
    Verdicts,
    build_draft_trees,
    verify_trees,
)


TERMINAL_KINDS = (
    RequestEventKind.FINISHED,
    RequestEventKind.CANCELLED,
    RequestEventKind.EXPIRED,
)


def terminal_streams(pools):
    """Each dispatched request's final random-stream state, by id.

    Subscribes to every pool (a fleet's replicas included) before it
    runs and, at each terminal event, reads the full
    ``bit_generator.state`` of the slot's stream — the last moment the
    slot holds one.  Returns the dict the events fill in.
    """
    streams = {}

    def snapshot(event, pool):
        if event.kind in TERMINAL_KINDS:
            slot = pool.records[event.request_id].slot
            if slot is not None:  # a cancel or expiry before dispatch
                streams[event.request_id] = slot.rng.bit_generator.state

    for pool in pools:
        pool.subscribe(lambda event, pool=pool: snapshot(event, pool))
    return streams


def vanilla_decode(engine, live):
    """One token per live slot from the engine's own target forward,
    as the :class:`~repro.specdec.tree.Verdicts` a verify launch returns.

    The step's hidden stack at each row's (pre-commit) last position is
    the slot's hand-off, as the verify of a sequence with no nodes hands
    off its prefix row.
    """
    contexts = contexts_from_sequences(
        [slot.sequence for slot in live], engine.target.config.context_window
    )
    logits, hiddens = engine.target.step(contexts)
    probs = temperature_probs(logits, engine.temperature)
    stack = np.stack(hiddens, axis=1)  # (rows, L, d)
    bonus = [
        int(sample_from_probs(probs[row][None, :], slot.rng)[0])
        for row, slot in enumerate(live)
    ]
    return Verdicts(
        accepted=[[] for _ in live],
        bonus=bonus,
        handoffs=[row.copy() for row in stack],
        attempted=[0] * len(live),
    )


def prefill_alone(cycle):
    """Every position of each planned key's suffix, from a prefill
    launch of the engine's own.

    The reference ignores the plan's hand-off positions: it computes
    each key from its compute start to its end, as the whole-suffix
    prefill did, and the finish inserts the block-boundary rows among
    them.  The hand-off at position ``t`` of a key is what
    :func:`initial_hiddens` computes for the prompt ``key[: t + 1]``
    plus one more token.
    """
    wanted = [
        (cycle.keys[index], range(start, len(cycle.keys[index])))
        for index, start, _ in cycle.prefill
    ]
    rows = iter(
        initial_hiddens(
            cycle.engine.target,
            [list(key[: t + 1]) + [0] for key, span in wanted for t in span],
        )
    )
    cycle.handoffs = [{t: next(rows) for t in span} for _, span in wanted]


def _launch_alone(cycle):
    """Draft and verify one engine's cycle with launches of its own."""
    engine, live = cycle.engine, cycle.live
    cycle.first = 0
    if not live:
        return
    if cycle.strategy is None:
        cycle.batch = DraftBatch.vanilla(
            len(live), engine.target.config.vocab_size
        )
        cycle.verdicts = vanilla_decode(engine, live)
        return
    sequences = [slot.sequence for slot in live]
    rngs = [slot.rng for slot in live]
    cycle.batch = build_draft_trees(
        engine.drafter, sequences, [slot.hidden for slot in live],
        cycle.strategy, engine.temperature, rngs,
        child_mode=engine.child_mode,
    )
    cycle.verdicts = verify_trees(
        engine.target, cycle.batch, sequences, engine.temperature, rngs
    )


def step_alone(engines):
    """One cycle of every engine, each with launches of its own.

    Cycles open in engine order, each planning, prefilling alone and
    finishing before the next engine plans; each engine then drafts and
    verifies alone (a vanilla cycle decodes with its own target
    forward), and the cycles close in order — so workers sharing a
    strategy selector pick before any of them records, as in the
    batched tick.
    """
    for engine in engines:
        if not engine.scheduler.has_work:
            raise SpecDecodeError("step() called with no live or waiting work")
    try:
        cycles = []
        for engine in engines:
            cycle = engine._open_plan()
            prefill_alone(cycle)
            engine._open_finish(cycle)
            cycles.append(cycle)
        for cycle in cycles:
            _launch_alone(cycle)
        return [cycle.engine._close(cycle) for cycle in cycles]
    finally:
        for engine in engines:
            engine._in_step = False


def pool_cycle(pool: ServingEngine) -> None:
    """One pool's open, cycles and close, every worker's engine
    launching alone (the clock is left to the caller)."""
    workers = pool.open_tick()
    pool.close_tick(workers, step_alone([w.engine for w in workers]))


def pool_tick(pool: ServingEngine) -> None:
    """One pool tick with every worker's engine launching alone."""
    pool_cycle(pool)
    pool.clock.advance()


def fleet_tick(fleet: FleetEngine) -> None:
    """One fleet tick in which each replica runs its whole pool cycle
    before the next replica opens (the fleet's own open and close
    bracket them)."""
    for pool in fleet.open_tick():
        pool_cycle(pool)
    fleet.close_tick()
    fleet.clock.advance()


def per_worker(pool: ServingEngine) -> ServingEngine:
    """Make ``pool.tick()`` step its workers one at a time."""
    pool.tick = types.MethodType(pool_tick, pool)
    return pool


def replica_by_replica(fleet: FleetEngine) -> FleetEngine:
    """Make ``fleet.tick()`` tick its replicas one after another."""
    fleet.tick = types.MethodType(fleet_tick, fleet)
    return fleet
