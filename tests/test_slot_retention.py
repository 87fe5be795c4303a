"""A finished request keeps only what its readers read.

Every path on which a request turns terminal — FINISHED, CANCELLED from
QUEUED / RUNNING / PARKED, EXPIRED, and a pool inside a fleet — goes
through ``BatchedSpecDecodeEngine._retire``: unpin, emit the terminal
event, then ``SequenceSlot.release()``.  The terminal slot then holds no
hand-off, sequence, random stream or cache key, and no prefix-cache
block stays pinned.  The terminal event still sees the slot whole.

The ratchet drains one trace shape at N and at 2N requests and bounds
what a served request leaves behind per request (tracemalloc): the
bound sits between this layout (about 1.7 KB) and the one that kept
every slot's decode state (about 3.5 KB).  The guard below it drops a
drained pool and one closed-loop RL step and requires the traced
memory to come back to where it started.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from conftest import seeded_requests
from repro.cache import KVCacheManager
from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
)
from repro.fleet import FleetEngine, RoutingPolicy
from repro.llm import TinyLM, TinyLMConfig
from repro.llm.vocab import Vocabulary
from repro.longtail import ColocatedLoop, RolloutScheduler, SchedulerMode
from repro.rl import RlConfig, RlTrainer
from repro.serving import RoundRobinDispatch, ServingEngine, poisson_trace
from repro.specdec import SdStrategy
from repro.specdec.batch_engine import BatchedSpecDecodeEngine, step_engines
from repro.specdec.control import RequestEventKind
from repro.specdec.scheduler import TERMINAL_STATES, RequestState
from repro.spot import OnlineDataBuffer, SpotTrainer
from repro.workload import SuccessorChainTask
from repro.workload.lengths import LognormalLengths

import _tick_oracle

STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
RELEASED = ("hidden", "sequence", "rng", "cache_key")
#: Retained bytes per served request; see the module docstring.
PER_REQUEST_BOUND = 2_500
#: What a dropped closed-loop step may leave traced (numpy keeps a
#: small cache of dimension blocks across calls).
DROPPED_STEP_SLACK = 64 * 1024


def _assert_released(slots):
    assert slots
    for slot in slots:
        assert slot.state in TERMINAL_STATES
        for name in RELEASED:
            assert getattr(slot, name) is None, name
        assert not slot.cache_pinned


def _assert_unpinned(cache):
    store = cache._store
    assert store.blocks  # the pins had something to hold
    assert all(block.refcount == 0 for block in store.blocks.values())
    assert store._hot.pinned == store._cold.pinned == 0


def _watch_whole(engine, seen):
    """At each terminal event, record that the slot was still whole."""

    def check(event):
        if event.kind in _tick_oracle.TERMINAL_KINDS:
            slot = engine.scheduler._slot(event.request_id)
            assert slot.sequence == [*slot.prompt, *slot.response]
            assert slot.rng is not None
            seen[event.kind] = seen.get(event.kind, 0) + 1

    engine.events.subscribe(check)


def _cancel_queued(engine):
    return engine.cancel(engine.scheduler.waiting[0].request.request_id)


def _cancel_running(engine):
    return engine.cancel(engine.scheduler.live[0].request.request_id)


def _cancel_parked(engine):
    slot = engine.park(engine.scheduler.live[0].request.request_id)
    assert slot.hidden is not None  # a parked slot keeps its hand-off
    return engine.cancel(slot.request.request_id)


def _expire_running(engine):
    return engine.expire(engine.scheduler.live[0].request.request_id)


@pytest.mark.parametrize(
    "terminate, kind",
    [
        (None, RequestEventKind.FINISHED),
        (_cancel_queued, RequestEventKind.CANCELLED),
        (_cancel_running, RequestEventKind.CANCELLED),
        (_cancel_parked, RequestEventKind.CANCELLED),
        (_expire_running, RequestEventKind.EXPIRED),
    ],
    ids=["finished", "cancel-queued", "cancel-running", "cancel-parked",
         "expired"],
)
def test_every_terminal_path_releases_the_slot(
    target, untrained_drafter, terminate, kind
):
    cache = KVCacheManager(capacity_tokens=64, block_size=2)
    engine = BatchedSpecDecodeEngine(
        target, untrained_drafter, STRATEGY, 0.9, max_batch_size=2,
        kv_cache=cache,
    )
    rng = np.random.default_rng(41)
    prompts = [list(rng.integers(3, 24, size=6)) for _ in range(5)]
    engine.start(seeded_requests(prompts, 10, rng))
    seen = {}
    _watch_whole(engine, seen)
    step_engines([engine])
    assert any(slot.cache_pinned for slot in engine.scheduler.live)
    if terminate is not None:
        slot = terminate(engine)
        _assert_released([slot])
    while engine.scheduler.has_work:
        step_engines([engine])
    slots = engine.scheduler.results()
    _assert_released(slots)
    _assert_unpinned(cache)
    assert seen.get(kind, 0) >= 1
    assert sum(seen.values()) == len(slots)
    # What records and results read is still there.
    finished = [s for s in slots if s.state is RequestState.FINISHED]
    assert finished and all(s.response for s in finished)
    assert engine.result().prompts == [list(s.prompt) for s in slots]


def test_a_pool_inside_a_fleet_releases_every_slot(
    target, untrained_drafter
):
    pools = [
        ServingEngine(
            target, untrained_drafter, num_workers=2, strategy=STRATEGY,
            temperature=0.9, max_batch_size=2, kv_cache_tokens=64,
            kv_cache_block_size=2,
        )
        for _ in range(2)
    ]
    fleet = FleetEngine(pools, routing=RoutingPolicy(RoundRobinDispatch()))
    trace = poisson_trace(
        np.random.default_rng(8), num_requests=16, mean_interarrival=0.3,
        length_model=LognormalLengths(median=6, sigma=0.6, cap=14),
        vocab_size=target.config.vocab_size, prompt_len=6,
    )
    fleet.run(trace)
    for pool in pools:
        records = pool.records.values()
        assert all(r.state is RequestState.FINISHED for r in records)
        _assert_released([r.slot for r in records])
        for worker in pool.workers:
            _assert_unpinned(worker.engine.kv_cache)


def _retained_bytes(target, drafter, num_requests):
    """Traced bytes a drained pool still holds, set-up included."""
    trace = poisson_trace(
        np.random.default_rng(3), num_requests=num_requests,
        mean_interarrival=0.5,
        length_model=LognormalLengths(median=6, sigma=0.6, cap=16),
        vocab_size=target.config.vocab_size, prompt_len=8,
    )
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pool = ServingEngine(
            target, drafter, num_workers=2, strategy=STRATEGY,
            temperature=0.9, max_batch_size=4, kv_cache_tokens=64,
        )
        pool.run(trace)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_retained_bytes_per_request_are_bounded(target, untrained_drafter):
    """The second N requests of one trace shape add at most
    ``PER_REQUEST_BOUND`` bytes each (the pool's fixed set-up cancels)."""
    n = 48
    small = _retained_bytes(target, untrained_drafter, n)
    large = _retained_bytes(target, untrained_drafter, 2 * n)
    per_request = (large - small) / n
    assert 0 < per_request <= PER_REQUEST_BOUND, per_request


def _closed_loop_step():
    """One RL step on a pool of its own — rollout, GRPO update, spot
    ingest, train slice and publish — after which everything it built
    goes out of scope."""
    policy = TinyLM(
        TinyLMConfig(vocab_size=24, hidden_size=16, context_window=4,
                     num_layers=3, init_scale=1.0),
        np.random.default_rng(0),
    )
    drafter = EagleDrafter(policy, EagleDrafterConfig(),
                           np.random.default_rng(5))
    pool = ServingEngine(
        policy, drafter, num_workers=2, strategy=STRATEGY, temperature=1.0,
        max_batch_size=4, group_affinity=True,
    )
    trainer = RlTrainer(
        policy, SuccessorChainTask(vocab=Vocabulary(24), target_pairs=8),
        RlConfig(num_prompts=2, group_size=4, max_new_tokens=12,
                 temperature=1.0),
        backend=RolloutScheduler(
            pool, mode=SchedulerMode.TAIL_FIRST, group_size=4
        ),
        rng=np.random.default_rng(1),
    )
    spot = SpotTrainer(
        trainer=DrafterTrainer(
            drafter.clone(), DrafterTrainingConfig(learning_rate=5e-3)
        ),
        buffer=OnlineDataBuffer(capacity_tokens=50_000),
        batch_sequences=4,
        max_positions=64,
    )
    loop = ColocatedLoop(
        trainer, spot=spot, spot_updates_per_round=2,
        spot_rng=np.random.default_rng(7),
    )
    loop.run(1)
    assert pool.drained and len(loop.published) == 1


def test_a_dropped_rl_step_returns_its_memory():
    """Nothing outlives a drained pool and its RL step: no module-level
    cache, registry or cycle keeps a trainer, scheduler or slot."""
    _closed_loop_step()  # imports and first-call set-up happen here
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _closed_loop_step()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert left <= DROPPED_STEP_SLACK, left
