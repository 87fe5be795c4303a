"""One batch per tick: the lock-step pool and fleet tick against
per-worker stepping.

A pool tick runs every worker's cycle as ONE batch (one drafter build
and one target verify per shared drafter/target/strategy group), and a
fleet tick does the same across replicas.  Each request owns its random
stream and every kernel is row-invariant, so the batch must be
invisible: the suite runs each trace through the batched tick and
through ``tests/_tick_oracle.py`` (each engine launching alone, a
vanilla cycle with its own target forward, replicas ticked one after
another) and requires, for every worker, equal responses, final
random-stream states, tick stamps, counters, cycle reports and
per-request ``(kind, cycle, time)`` event subsequences — for static
strategies and for adaptive pools and fleets whose workers cross the
elastic threshold both ways, where vanilla rows are zero-node trees in
the tick's one verify launch per target and temperature.

The prefill half of the tick is held the same way: every engine's
admission plan runs first, then ONE prefill launch per target computes
only the hand-off rows the engines keep, and each engine finishes
(inserts, pins, events) in order.  Pools and fleets mixing cached and
cache-less engines, partial block hits, same-wave duplicates and
resumed slots must match each engine prefilling alone — hand-off
bytes, counters, cache stats and events included.

Also here: the tree builder's partition property (a tree does not
depend on its batch neighbours, and a sub-batch's launch count is
``1 + max(rounds)`` of its own trees), the shared-selector call order,
and the failure seam (a raise inside the batch leaves no engine
mid-step, commits nothing and does not advance the clock).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cache import KVCacheManager
from repro.drafter import EagleDrafter, EagleDrafterConfig
from repro.drafter.base import Drafter
from repro.errors import SpecDecodeError
from repro.fleet import FleetEngine, PrefixHashRouting, RoutingPolicy
from repro.llm import TinyLM, TinyLMConfig
from repro.longtail import RolloutScheduler, SchedulerMode
from repro.rollout.adaptive import AdaptiveSdConfig, AdaptiveSdManager
from repro.serving import (
    BATCH,
    INTERACTIVE,
    LeastLoadedDispatch,
    PrefixAffinityDispatch,
    RequestState,
    RoundRobinDispatch,
    ServingEngine,
    ServingRequest,
    SloPreemption,
)
from repro.specdec import (
    PrefixAwareAdmission,
    SdStrategy,
    build_draft_trees,
    verify_trees,
)
from repro.specdec import batch_engine
from repro.specdec.batch_engine import BatchedSpecDecodeEngine, step_engines
from repro.specdec.control import RequestEventKind
from repro.specdec.engine import initial_hiddens, suffix_prefill_hiddens
from repro.tuner.mab import BegMabSelector, StrategySelector
from repro.workload import fleet_trace

import _tick_oracle
import _tree_oracle

STRATEGY = SdStrategy(draft_depth=4, topk=3, tokens_to_verify=8)


def _pool(scenario, workers=4, max_batch=3, **kwargs):
    kwargs.setdefault("strategy", scenario.strategy)
    return ServingEngine(
        scenario.target, scenario.drafter, num_workers=workers,
        temperature=scenario.temperature, max_batch_size=max_batch,
        **kwargs,
    )


def _drive(pool, trace, hooks=None):
    """Tick ``pool`` to completion, calling ``hooks[tick](pool)`` at
    the boundary before that tick."""
    for request in trace:
        pool.submit(request)
    tick = 0
    while not pool.drained or pool.swap_in_progress:
        if hooks and tick in hooks:
            hooks[tick](pool)
        pool.tick()
        tick += 1


def _observe(pools, events, streams):
    """What per-worker stepping and the batched tick must agree on
    (``streams``: :func:`_tick_oracle.terminal_streams` of ``pools``)."""
    workers = [worker for pool in pools for worker in pool.workers]
    trails = {}
    for event in events:
        key = event.request_id
        if key is None:  # drafter swaps: one trail per worker
            key = ("swap", event.replica_id, event.worker_id)
        trails.setdefault(key, []).append(
            (event.kind, event.cycle, event.time, event.worker_id,
             event.replica_id)
        )
    return {
        "responses": {
            request_id: record.response
            for pool in pools
            for request_id, record in pool.records.items()
        },
        "streams": streams,  # each dispatched request's decoding slot
        "ticks": [pool.clock.now for pool in pools],
        "counters": [copy.deepcopy(w.engine.counters) for w in workers],
        "cycle_reports": [list(w.engine.cycle_reports) for w in workers],
        "trails": trails,
    }


def _assert_same(batched, oracle):
    assert any(batched["responses"].values())
    for key in batched:
        assert batched[key] == oracle[key], key


def _run_both(run):
    """``run(oracle)`` twice, batched first; returns both observations."""
    return [run(oracle) for oracle in (False, True)]


# -- pools ---------------------------------------------------------------------


@pytest.mark.parametrize("child_mode", ["sample", "topk"])
def test_static_pool_equals_per_worker_stepping(
    scenario_factory, child_mode
):
    scenario = scenario_factory(
        2025, num_requests=32, max_new_tokens=16, ragged_caps=True,
        temperature=0.8, draft_depth=4, topk=3, tokens_to_verify=8,
    )

    def run(oracle):
        pool = _pool(
            scenario, child_mode=child_mode, dispatch=LeastLoadedDispatch()
        )
        streams = _tick_oracle.terminal_streams([pool])
        if oracle:
            _tick_oracle.per_worker(pool)
        _drive(pool, scenario.requests(arrival_gap=0.25))
        return _observe([pool], pool.lifecycle_events(), streams), pool

    (batched, pool), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    assert all(batched["responses"].values())
    # Several workers really shared ticks.
    assert min(w.engine.counters.busy_cycles for w in pool.workers) > 5
    # Phase-major trail: within a tick, no worker's admission follows
    # any worker's FINISHED event.
    finished_at = set()
    for event in pool.lifecycle_events():
        if event.kind is RequestEventKind.FINISHED:
            finished_at.add(event.time)
        elif event.kind in (
            RequestEventKind.ADMITTED, RequestEventKind.RESUMED
        ):
            assert event.time not in finished_at


def test_pool_with_cancel_park_resume_and_preemption(
    scenario_factory
):
    scenario = scenario_factory(
        2026, num_requests=24, max_new_tokens=16, ragged_caps=True
    )
    slos = [BATCH, BATCH, INTERACTIVE] * 8
    parked = {}

    def park_first_running(pool):
        parked["id"] = min(
            request_id for request_id, record in pool.records.items()
            if record.state is RequestState.RUNNING
        )
        assert pool.park(parked["id"])

    hooks = {
        3: lambda pool: pool.cancel(1),
        5: park_first_running,
        9: lambda pool: pool.resume(parked["id"]),
        11: lambda pool: pool.cancel(20),
    }

    def run(oracle):
        pool = _pool(
            scenario, workers=3, max_batch=2, preemption=SloPreemption()
        )
        streams = _tick_oracle.terminal_streams([pool])
        if oracle:
            _tick_oracle.per_worker(pool)
        _drive(
            pool, scenario.requests(arrival_gap=0.3, slos=slos),
            hooks,
        )
        return _observe([pool], pool.lifecycle_events(), streams), pool

    (batched, pool), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    report = pool.report()
    assert report.preemptions > 1  # one explicit park plus the policy's
    assert pool.records[1].state is RequestState.CANCELLED
    assert pool.records[parked["id"]].state is RequestState.FINISHED


def test_pool_mid_roll_and_targeted_swap(
    scenario_factory, untrained_drafter
):
    """Mid-roll two drafters serve one tick: two groups in one batch."""
    scenario = scenario_factory(
        2027, num_requests=24, max_new_tokens=16, ragged_caps=True
    )
    mixed_ticks = []

    def note_mixed(pool):
        drafters = {
            id(w.engine.drafter)
            for w in pool.workers if w.engine.scheduler.has_work
        }
        mixed_ticks.append(len(drafters) > 1)

    hooks = {
        4: lambda pool: pool.swap_drafter(untrained_drafter),
        6: note_mixed,
        12: lambda pool: pool.swap_worker_drafter(
            1, scenario.drafter
        ),
        13: note_mixed,
    }

    def run(oracle):
        pool = _pool(scenario, workers=3, max_batch=3)
        streams = _tick_oracle.terminal_streams([pool])
        if oracle:
            _tick_oracle.per_worker(pool)
        _drive(pool, scenario.requests(arrival_gap=0.3), hooks)
        return _observe([pool], pool.lifecycle_events(), streams), pool

    (batched, pool), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    assert pool.drafter_rolls == 1 and pool.worker_swaps == 1
    assert all(mixed_ticks)


# -- fleet ---------------------------------------------------------------------


def test_fleet_with_drain_and_publication(
    target, trained_drafter, untrained_drafter
):
    # Dense arrivals into small replicas: the drained one is sure to
    # hold queued work at drain time.
    trace = fleet_trace(
        np.random.default_rng(12), target.config.vocab_size,
        num_tenants=6, requests_per_tenant=6, num_batch=8,
        batch_group_size=4, prefix_len=3, mean_interarrival=0.1,
        batch_gap=0.3,
    )
    state = {}

    def on_tick(fleet):
        now = fleet.clock.now
        if now == 4:
            state["migrated"] = fleet.drain(2)
        elif now == 6:
            fleet.swap_drafter(untrained_drafter)

    def run(oracle):
        pools = [
            ServingEngine(
                target, trained_drafter, num_workers=2, strategy=STRATEGY,
                temperature=0.8, max_batch_size=2,
                dispatch=LeastLoadedDispatch(), kv_cache_tokens=256,
            )
            for _ in range(4)
        ]
        fleet = FleetEngine(
            pools, routing=RoutingPolicy(RoundRobinDispatch())
        )
        streams = _tick_oracle.terminal_streams(pools)
        if oracle:
            _tick_oracle.replica_by_replica(fleet)
        report = fleet.run(trace, on_tick=on_tick)
        observed = _observe(pools, fleet.lifecycle_events(), streams)
        observed["fleet"] = (
            report.ticks, report.worker_cycles, report.migrations,
            report.drafter_rolls, report.replica_states,
        )
        return observed, report

    (batched, report), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    assert len(batched["responses"]) == len(trace)
    assert state["migrated"] > 0 and report.drafter_rolls == 1
    assert report.replica_states[2] == "retired"


# -- rollout scheduler ---------------------------------------------------------


def test_tail_first_rollouts_with_spot_publish(
    scenario_factory, untrained_drafter
):
    scenario = scenario_factory(
        2028, num_requests=6, max_new_tokens=12, ragged_caps=True
    )
    prompts = [list(p) for p in scenario.prompts for _ in range(3)]

    def run(oracle):
        pool = _pool(scenario, workers=2, max_batch=3, group_affinity=True)
        streams = _tick_oracle.terminal_streams([pool])
        if oracle:
            _tick_oracle.per_worker(pool)
        scheduler = RolloutScheduler(
            pool, mode=SchedulerMode.TAIL_FIRST, group_size=3
        )
        rng = np.random.default_rng(17)
        results = []
        for publish in (False, True):
            if publish:  # the spot trainer's snapshot rolls in
                pool.swap_drafter(untrained_drafter)
            batch_id = scheduler.submit_batch(
                scenario.target, prompts, 12, scenario.temperature, rng
            )
            results.append(scheduler.collect(batch_id).responses)
        observed = _observe([pool], pool.lifecycle_events(), streams)
        observed["results"] = results
        return observed, pool

    (batched, pool), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    assert pool.drafter_rolls == 1


# -- adaptive pools: vanilla rows ride the verify launch ---------------------


ARMS = [STRATEGY, SdStrategy(draft_depth=3, topk=2, tokens_to_verify=5)]


def _arms_selector():
    """The BEG-MAB the manager builds over ARMS' two verify groups."""
    return BegMabSelector(ARMS, [1, 4])


def _managers(count, threshold):
    """Per-worker managers over ONE shared BEG-MAB selector (the
    ``TltSystem.serving_frontend`` default)."""
    selector = _arms_selector()
    return [
        AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=threshold, selector=selector)
        )
        for _ in range(count)
    ]


def _assert_crosses_both_ways(engines):
    """Some worker went vanilla -> SD and SD -> vanilla; no vanilla
    cycle drafted, and each verified one row per live slot."""
    crossed = False
    for engine in engines:
        trail = [report.sd_active for report in engine.cycle_reports]
        crossed |= {(False, True), (True, False)} <= set(
            zip(trail, trail[1:])
        )
        for report in engine.cycle_reports:
            if not report.sd_active:
                assert report.strategy is None
                assert report.draft_launches == report.drafted_tokens == 0
                assert report.verify_rows == report.committed_tokens
                assert report.verify_rows == report.live_batch
    assert crossed


@pytest.mark.parametrize("threshold", [2, 3])
@pytest.mark.parametrize("child_mode", ["sample", "topk"])
def test_adaptive_pool_equals_vanilla_decode_alone(
    scenario_factory, child_mode, threshold
):
    """Above the threshold a worker's rows are zero-node trees in the
    tick's one verify launch; they must decode exactly what each
    engine's own vanilla forward decoded."""
    scenario = scenario_factory(
        2033, num_requests=30, max_new_tokens=14, ragged_caps=True,
        temperature=0.8,
    )

    def run(oracle):
        pool = _pool(
            scenario, workers=3, max_batch=4, strategy=None,
            child_mode=child_mode, sd_managers=_managers(3, threshold),
            dispatch=LeastLoadedDispatch(),
        )
        streams = _tick_oracle.terminal_streams([pool])
        if oracle:
            _tick_oracle.per_worker(pool)
        _drive(pool, scenario.requests(arrival_gap=0.6))
        return _observe([pool], pool.lifecycle_events(), streams), pool

    (batched, pool), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    _assert_crosses_both_ways([worker.engine for worker in pool.workers])


@pytest.mark.parametrize("child_mode", ["sample", "topk"])
def test_adaptive_fleet_equals_replica_by_replica(
    target, trained_drafter, child_mode
):
    trace = fleet_trace(
        np.random.default_rng(14), target.config.vocab_size,
        num_tenants=6, requests_per_tenant=5, num_batch=8,
        batch_group_size=4, prefix_len=3, mean_interarrival=0.3,
        batch_gap=2.0,
    )

    def run(oracle):
        pools = [
            ServingEngine(
                target, trained_drafter, num_workers=2,
                sd_managers=_managers(2, 2), temperature=0.8,
                child_mode=child_mode, max_batch_size=3,
                dispatch=LeastLoadedDispatch(),
            )
            for _ in range(3)
        ]
        fleet = FleetEngine(
            pools, routing=RoutingPolicy(RoundRobinDispatch())
        )
        streams = _tick_oracle.terminal_streams(pools)
        if oracle:
            _tick_oracle.replica_by_replica(fleet)
        fleet.run(trace)
        return _observe(pools, fleet.lifecycle_events(), streams), pools

    (batched, pools), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    _assert_crosses_both_ways(
        [worker.engine for pool in pools for worker in pool.workers]
    )


def test_one_verify_launch_per_target_and_temperature(
    scenario_factory, monkeypatch
):
    """Vanilla and SD engines on one (target, temperature) verify in
    ONE target forward; another temperature is a second launch."""
    scenario = scenario_factory(2034, num_requests=4, max_new_tokens=12)
    target = scenario.target
    vanilla = BatchedSpecDecodeEngine(
        target, scenario.drafter, None, 0.8,
        sd_manager=AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=1, selector=_arms_selector())
        ),
    )
    speculative = BatchedSpecDecodeEngine(
        target, scenario.drafter, STRATEGY, 0.8
    )
    cooler = BatchedSpecDecodeEngine(target, scenario.drafter, STRATEGY, 0.5)
    engines = [vanilla, speculative, cooler]
    for engine in engines:
        engine.start(scenario.requests())
    step_engines(engines)  # the admission wave and its prefill
    rows = []
    step = type(target).step

    def counting_step(self, context):
        rows.append(len(context))
        return step(self, context)

    monkeypatch.setattr(type(target), "step", counting_step)
    for _ in range(3):
        del rows[:]
        reports = [outcome.report for outcome in step_engines(engines)]
        assert [r.sd_active for r in reports] == [False, True, True]
        assert rows == [
            reports[0].verify_rows + reports[1].verify_rows,
            reports[2].verify_rows,
        ]


def test_vanilla_row_hands_off_its_prefix_row(scenario_factory):
    """A vanilla row hands off the target's hidden stack at its
    pre-commit last position — what prefilling the extended sequence
    computes — so a later switch to SD needs no re-prefill."""
    scenario = scenario_factory(2035, num_requests=4, max_new_tokens=8)
    engine = BatchedSpecDecodeEngine(
        scenario.target, scenario.drafter, None, 0.8,
        sd_manager=AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=1, selector=_arms_selector())
        ),
    )
    engine.start(scenario.requests())
    vanilla = 0
    while engine.scheduler.has_work:
        if step_engines([engine])[0].report.sd_active:
            continue
        vanilla += 1
        for slot in engine.scheduler.live:
            handoff = initial_hiddens(scenario.target, [slot.sequence])[0]
            assert np.array_equal(slot.hidden, handoff)
    assert vanilla > 3


# -- prefill: one launch per target, hand-off rows only -----------------------


@pytest.fixture(scope="module")
def wide():
    """A window-12 target (keys span several 4-token blocks, so partial
    block hits happen) and an untrained drafter — decoding is lossless
    whatever the drafter, and these tests compare bytes, not accept
    lengths."""
    config = TinyLMConfig(
        vocab_size=24, hidden_size=16, context_window=12, num_layers=2,
        init_scale=1.5,
    )
    rng = np.random.default_rng(321)
    target = TinyLM(config, rng)
    return target, EagleDrafter(target, EagleDrafterConfig(), rng)


@pytest.fixture
def handoffs(monkeypatch):
    """Every admitted slot's prefill hand-off bytes, by request id."""
    seen = {}
    finish = BatchedSpecDecodeEngine._open_finish

    def recording(engine, cycle):
        finish(engine, cycle)
        for slot in cycle.admitted:
            if slot.hidden is not None:
                seen[slot.request.request_id] = slot.hidden.tobytes()

    monkeypatch.setattr(BatchedSpecDecodeEngine, "_open_finish", recording)
    return seen


def _prefix_trace(target, seed):
    """Tenants sharing prompt prefixes (partial block hits) over GRPO
    groups (same-wave duplicates); INTERACTIVE arrivals preempt BATCH.
    Later truncated repeats end exactly at an earlier key's interior
    block boundary, so they hit only if its hand-off row was kept."""
    trace = fleet_trace(
        np.random.default_rng(seed), target.config.vocab_size,
        num_tenants=3, requests_per_tenant=6, num_batch=12,
        batch_group_size=4, prefix_len=6, suffix_len=3,
        mean_interarrival=0.4, batch_gap=0.5,
    )
    repeats = [
        ServingRequest(
            request_id=len(trace) + i, prompt=request.prompt[:cut],
            max_new_tokens=request.max_new_tokens,
            arrival_time=request.arrival_time + 1.5, seed=request.seed + 1,
        )
        for i, (request, cut) in enumerate(zip(trace[::2], [4, 8] * 99))
    ]
    return sorted(trace + repeats, key=lambda r: r.arrival_time)


def _prefill_pool(wide, kv_cache_tokens=64):
    target, drafter = wide
    return ServingEngine(
        target, drafter, num_workers=2, strategy=STRATEGY, temperature=0.8,
        max_batch_size=3, dispatch=PrefixAffinityDispatch(),
        admission=PrefixAwareAdmission(), group_affinity=True,
        preemption=SloPreemption(), kv_cache_tokens=kv_cache_tokens,
        kv_cache_block_size=4, kv_cache_cold_tokens=24,
    )


def _assert_prefill_paths_ran(pools):
    engines = [w.engine for pool in pools for w in pool.workers]
    cached = [e for e in engines if e.kv_cache is not None]
    assert sum(e.kv_cache.stats.partial_hits for e in cached) > 0
    assert sum(e.kv_cache.stats.hits for e in cached) > 0
    # Same-wave duplicates ride their leader without a consultation.
    consultations = sum(e.kv_cache.stats.lookups for e in cached)
    planned = sum(
        e.counters.prefill_launches + e.counters.prefill_launches_saved
        for e in cached
    )
    assert planned > consultations
    assert any(
        event.kind is RequestEventKind.RESUMED
        for pool in pools for event in pool.lifecycle_events()
    )


def test_pool_prefill_equals_per_engine_prefill(
    wide, handoffs
):
    trace = _prefix_trace(wide[0], 31)

    def run(oracle):
        handoffs.clear()
        pool = _prefill_pool(wide)
        streams = _tick_oracle.terminal_streams([pool])
        if oracle:
            _tick_oracle.per_worker(pool)
        _drive(pool, trace)
        observed = _observe([pool], pool.lifecycle_events(), streams)
        observed["handoffs"] = dict(handoffs)
        return observed, pool

    (batched, pool), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    assert len(batched["handoffs"]) == len(trace)
    _assert_prefill_paths_ran([pool])


def test_fleet_mixing_cached_and_cacheless_replicas_equals_replica_by_replica(
    wide, handoffs
):
    trace = _prefix_trace(wide[0], 31)

    def run(oracle):
        handoffs.clear()
        pools = [_prefill_pool(wide), _prefill_pool(wide, None),
                 _prefill_pool(wide)]
        fleet = FleetEngine(pools, routing=PrefixHashRouting(prefix_len=2))
        streams = _tick_oracle.terminal_streams(pools)
        if oracle:
            _tick_oracle.replica_by_replica(fleet)
        fleet.run(trace)
        observed = _observe(pools, fleet.lifecycle_events(), streams)
        observed["handoffs"] = dict(handoffs)
        return observed, pools

    (batched, pools), (oracle, _) = _run_both(run)
    _assert_same(batched, oracle)
    assert len(batched["handoffs"]) == len(trace)
    _assert_prefill_paths_ran(pools)
    cacheless = [w.engine for w in pools[1].workers]
    assert sum(e.counters.prefill_launches for e in cacheless) > 0


def test_one_prefill_launch_per_target_per_tick(
    wide, scenario_factory, monkeypatch
):
    """However many engines admit, each target makes ONE prefill
    launch per tick (cached and cache-less engines share it) next to its
    one verify launch."""
    scenario = scenario_factory(2036, num_requests=6, max_new_tokens=6)
    wide_target, wide_drafter = wide
    engines = [
        BatchedSpecDecodeEngine(
            target, drafter, STRATEGY, 0.8, max_batch_size=2,
            kv_cache=KVCacheManager(64, block_size=2) if cached else None,
        )
        for target, drafter in (
            (wide_target, wide_drafter), (scenario.target, scenario.drafter)
        )
        for cached in (True, False, True)
    ]
    for engine in engines:
        engine.start(scenario.requests())
    calls, prefills = [], []
    step = TinyLM.step

    def counting_step(self, context):
        calls.append(id(self))
        return step(self, context)

    prefill = batch_engine.suffix_prefill_hiddens

    def counting_prefill(target, contexts, positions):
        before = len(calls)
        out = prefill(target, contexts, positions)
        prefills.append((id(target), calls[before:]))
        return out

    monkeypatch.setattr(TinyLM, "step", counting_step)
    monkeypatch.setattr(
        batch_engine, "suffix_prefill_hiddens", counting_prefill
    )
    targets = [id(wide_target), id(scenario.target)]
    ticks = 0
    while any(engine.scheduler.has_work for engine in engines):
        del calls[:], prefills[:]
        step_engines([
            engine for engine in engines if engine.scheduler.has_work
        ])
        if ticks == 0:  # every engine admits: one launch per target
            assert sorted(target for target, _ in prefills) == sorted(targets)
        assert sorted(target for target, _ in prefills) == sorted(
            set(target for target, _ in prefills)
        )
        for target, launched in prefills:
            assert launched == [target]
        for target in targets:
            assert calls.count(target) <= 2
        ticks += 1
    assert ticks > 3


@pytest.mark.parametrize("seed", range(4))
def test_prefill_computes_each_handoff_like_initial_hiddens(wide, seed):
    """Every hand-off the prefill launch returns is byte-equal to
    :func:`initial_hiddens` of the prompt ending at that position,
    whatever rows it shares the launch with."""
    target = wide[0]
    window = target.config.context_window
    rng = np.random.default_rng(seed)
    contexts, positions = [], []
    for _ in range(6):
        length = int(rng.integers(1, window + 1))
        contexts.append(tuple(int(t) for t in rng.integers(3, 24, length)))
        count = int(rng.integers(0, length + 1))
        positions.append(sorted(rng.choice(length, count, replace=False)))
    out = suffix_prefill_hiddens(target, contexts, positions)
    assert [sorted(rows) for rows in out] == positions
    for context, rows in zip(contexts, out):
        for t, row in rows.items():
            want = initial_hiddens(target, [list(context[: t + 1]) + [0]])[0]
            assert row.tobytes() == want.tobytes()
            assert row.base is None


def test_engines_sharing_a_cache_cannot_batch(scenario_factory):
    scenario = scenario_factory(2037, num_requests=2)
    cache = KVCacheManager(64)
    engines = [
        BatchedSpecDecodeEngine(
            scenario.target, scenario.drafter, STRATEGY, 0.8, kv_cache=cache
        )
        for _ in range(2)
    ]
    for engine in engines:
        engine.start(scenario.requests())
    with pytest.raises(SpecDecodeError, match="share a KVCacheManager"):
        step_engines(engines)
    assert all(e.counters.busy_cycles == 0 for e in engines)


# -- the tree builder's partition property ------------------------------------


PREFIXES = [
    [1, 5, 6], [2, 7], [3, 8, 9, 4], [2, 7, 7], [4, 4], [9, 3, 5],
    [6], [8, 2, 2, 3],
]


def _tree_fields(tree):
    return (
        tree.tokens.tolist(), tree.parents.tolist(), tree.depths.tolist(),
        tree.path_probs.tobytes(), tree.cand_offsets.tolist(),
        tree.cand_tokens.tolist(), tree.cand_child.tolist(),
        tree.node_dists.tobytes(), tree.draft_steps, tree.draft_calls,
        tree.rounds,
    )


@pytest.mark.parametrize("child_mode", ["sample", "topk"])
@pytest.mark.parametrize("seed", [0, 3, 8, 13])
def test_build_is_invariant_to_any_split(
    target, trained_drafter, child_mode, seed
):
    """A whole batch and any split of it build bitwise-equal trees, and
    each part's launches are ``1 + max(rounds)`` of its own trees —
    the count the per-node oracle's rounds give too."""
    hiddens = initial_hiddens(target, PREFIXES)

    def build(rows):
        return build_draft_trees(
            trained_drafter,
            [PREFIXES[i] for i in rows],
            [hiddens[i] for i in rows],
            STRATEGY, 0.8,
            [np.random.default_rng(seed * 100 + i) for i in rows],
            child_mode,
        )

    whole, _ = build(range(len(PREFIXES)))
    rng = np.random.default_rng(seed)
    cuts = sorted(rng.choice(np.arange(1, len(PREFIXES)), 3, replace=False))
    order = rng.permutation(len(PREFIXES))
    for part in np.split(order, cuts):
        trees, launches = build(part.tolist())
        assert launches == 1 + max(tree.rounds for tree in trees)
        for tree, row in zip(trees, part.tolist()):
            assert _tree_fields(tree) == _tree_fields(whole[row])
        reference, _ = _tree_oracle.build_draft_trees(
            trained_drafter,
            [PREFIXES[i] for i in part],
            [hiddens[i] for i in part],
            STRATEGY, 0.8,
            [np.random.default_rng(seed * 100 + i) for i in part],
            child_mode,
        )
        assert [t.rounds for t in trees] == [t.rounds for t in reference]


def test_verify_hands_off_one_owned_row_per_tree(target, trained_drafter):
    """Verify keeps each tree's hand-off row as the slot's own copy,
    never a view into the batch-wide hidden stack."""
    hiddens = initial_hiddens(target, PREFIXES)
    rngs = [np.random.default_rng(i) for i in range(len(PREFIXES))]
    trees, _ = build_draft_trees(
        trained_drafter, PREFIXES, hiddens, STRATEGY, 0.8, rngs
    )
    results = verify_trees(target, trees, PREFIXES, 0.8, rngs)
    for result in results:
        assert result.next_hidden.shape == (
            target.num_layers, target.config.hidden_size
        )
        assert result.next_hidden.base is None


# -- step_engines beyond one pool ----------------------------------------------


def test_mixed_engines_batch_like_engines_alone(
    scenario_factory, untrained_drafter
):
    """Engines that differ in drafter, strategy, temperature and child
    mode split into groups inside one call and still match stepping
    each engine alone."""
    scenario = scenario_factory(
        2031, num_requests=5, max_new_tokens=12, ragged_caps=True
    )
    configs = [
        (scenario.drafter, STRATEGY, 0.8, "sample"),
        (scenario.drafter, STRATEGY, 0.8, "sample"),
        (untrained_drafter, STRATEGY, 0.8, "sample"),
        (scenario.drafter, SdStrategy(3, 2, 5), 0.8, "sample"),
        (scenario.drafter, STRATEGY, 0.5, "sample"),
        (scenario.drafter, STRATEGY, 0.8, "topk"),
    ]

    def engines():
        built = []
        for drafter, strategy, temperature, child_mode in configs:
            engine = BatchedSpecDecodeEngine(
                scenario.target, drafter, strategy, temperature,
                child_mode=child_mode, max_batch_size=3,
            )
            engine.start(scenario.requests())
            built.append(engine)
        return built

    together, alone = engines(), engines()
    while any(engine.scheduler.has_work for engine in together):
        busy = [e for e in together if e.scheduler.has_work]
        step_engines(busy)
        for engine in alone:
            if engine.scheduler.has_work:
                step_engines([engine])
    for left, right in zip(together, alone):
        assert not right.scheduler.has_work
        assert [list(s.response) for s in left.result().slots] == [
            list(s.response) for s in right.result().slots
        ]
        assert left.counters == right.counters
        assert left.cycle_reports == right.cycle_reports


def test_an_idle_engine_is_rejected_before_any_cycle_opens(
    scenario_factory,
):
    scenario = scenario_factory(2032, num_requests=2)
    busy, idle = scenario.engine(), scenario.engine()
    busy.start(scenario.requests())
    idle.start(())
    with pytest.raises(SpecDecodeError, match="no live or waiting"):
        step_engines([busy, idle])
    assert busy.counters.busy_cycles == 0 and busy.scheduler.num_live == 0


# -- the shared-selector order -------------------------------------------------


class _RecordingSelector(StrategySelector):
    """One worker's handle on a shared selector; logs every call."""

    def __init__(self, log, worker):
        self.log, self.worker = log, worker

    def select(self, batch_size):
        self.log.append(("select", self.worker))
        return STRATEGY

    def record(self, strategy, elapsed_time, accept_lengths, batch_size):
        self.log.append(("record", self.worker))


def test_shared_selector_picks_before_any_feedback(scenario_factory):
    """Every worker picks its tick-t strategy before any worker records
    tick-t feedback, as concurrent accelerators would."""
    scenario = scenario_factory(2029, num_requests=8, max_new_tokens=10)
    log = []
    managers = [
        AdaptiveSdManager(
            AdaptiveSdConfig(
                activation_threshold=64,
                selector=_RecordingSelector(log, worker),
            )
        )
        for worker in range(2)
    ]
    pool = _pool(scenario, workers=2, strategy=None, sd_managers=managers)
    for request in scenario.requests():
        pool.submit(request)
    both = 0
    while not pool.drained:
        del log[:]
        pool.tick()
        ran = [worker for call, worker in log if call == "select"]
        assert log == [("select", w) for w in ran] + [
            ("record", w) for w in ran
        ]
        both += ran == [0, 1]
    assert both > 3


# -- the failure seam ----------------------------------------------------------


class _FailingDrafter(Drafter):
    """Delegates to ``inner``; its ``fail_at``-th fused launch raises."""

    def __init__(self, inner, fail_at):
        self.inner, self.fail_at, self.calls = inner, fail_at, 0

    def begin(self, prefix_tokens, last_hidden):
        return self.inner.begin(prefix_tokens, last_hidden)

    def propose(self, state, temperature):
        return self.inner.propose(state, temperature)

    def extend(self, state, token):
        return self.inner.extend(state, token)

    def begin_batch(self, prefixes, last_hiddens):
        return self.inner.begin_batch(prefixes, last_hiddens)

    def propose_batch(self, states, temperature):
        return self.inner.propose_batch(states, temperature)

    def pack_states(self, states):
        return self.inner.pack_states(states)

    def extend_propose_batch(self, states, tokens, temperature):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("injected drafter fault")
        return self.inner.extend_propose_batch(states, tokens, temperature)


def _committed(pools):
    return {
        slot.request.request_id: len(slot.response)
        for pool in pools
        for worker in pool.workers
        for slot in worker.engine.scheduler.live
    }


def _tick_until_raise(tick, pools):
    """Tick until the injected fault; return (committed, clocks) as
    they stood at the start of the failed tick."""
    for _ in range(200):
        before = _committed(pools), [pool.clock.now for pool in pools]
        try:
            tick()
        except RuntimeError as error:
            assert "injected" in str(error)
            return before
    raise AssertionError("the injected fault never fired")


def _assert_clean_failure(pools, before, healthy):
    committed, clocks = before
    engines = [w.engine for pool in pools for w in pool.workers]
    assert not any(engine._in_step for engine in engines)
    # No slot committed a token in the failed tick (fresh admissions
    # stay empty) and no clock advanced.
    for request_id, length in _committed(pools).items():
        assert length == committed.get(request_id, 0)
    assert [pool.clock.now for pool in pools] == clocks
    for engine in engines:  # accepted at once, as after a raising step()
        engine.swap_drafter(healthy)


def test_pool_tick_raise_leaves_no_engine_mid_step(scenario_factory):
    scenario = scenario_factory(2030, num_requests=12, max_new_tokens=12)
    failing = _FailingDrafter(scenario.drafter, fail_at=12)
    pool = ServingEngine(
        scenario.target, failing, num_workers=3, strategy=STRATEGY,
        temperature=0.8, max_batch_size=2,
    )
    for request in scenario.requests(arrival_gap=0.2):
        pool.submit(request)
    before = _tick_until_raise(pool.tick, [pool])
    _assert_clean_failure([pool], before, scenario.drafter)
    report = pool.run()  # the pool carries on after the fault
    assert all(record.finished for record in report.records)


def test_fleet_tick_raise_leaves_no_engine_mid_step(
    target, trained_drafter
):
    failing = _FailingDrafter(trained_drafter, fail_at=15)
    pools = [
        ServingEngine(
            target, failing, num_workers=2, strategy=STRATEGY,
            temperature=0.8, max_batch_size=2,
        )
        for _ in range(2)
    ]
    fleet = FleetEngine(pools)
    trace = fleet_trace(
        np.random.default_rng(13), target.config.vocab_size,
        num_tenants=4, requests_per_tenant=4, num_batch=4,
        prefix_len=3, mean_interarrival=0.3,
    )
    for request in trace:
        fleet.submit(request)
    fleet_clock = []

    def tick():
        fleet_clock[:] = [fleet.clock.now]
        fleet.tick()

    before = _tick_until_raise(tick, pools)
    assert fleet.clock.now == fleet_clock[0]
    _assert_clean_failure(pools, before, trained_drafter)
    report = fleet.run()
    assert report.num_requests == len(trace)
