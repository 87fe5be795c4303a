"""Tests for pluggable admission + prefix-cache engine integration.

Three layers are pinned here:

* the :class:`~repro.specdec.control.AdmissionPolicy` surface —
  :class:`FifoAdmission` must reproduce the scheduler's original
  front-of-queue loop exactly, :class:`PrefixAwareAdmission` must
  co-admit shared-prefix requests without starving the urgent lane,
  and the scheduler must reject malformed policy output;
* the engine's prefix-cache integration — cold-cache, warm-cache and
  no-cache runs byte-identical; one prefill row per shared prompt;
  eviction under capacity pressure never corrupting a live slot; the
  park/resume ref lifecycle;
* the serving layer — prefix-affinity and preemption-aware dispatch
  routing, and the report's prefix-cache columns.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest

from repro.cache import KVCacheManager
from repro.errors import CacheError, ConfigError, SpecDecodeError
from repro.serving import (
    INTERACTIVE,
    LeastLoadedDispatch,
    PreemptionAwareDispatch,
    PrefixAffinityDispatch,
    ServingEngine,
    ServingRequest,
)
from repro.specdec import (
    AdmissionPolicy,
    AdmissionView,
    BatchedSpecDecodeEngine,
    FifoAdmission,
    PrefixAwareAdmission,
    SdStrategy,
    make_serving_request,
)
from repro.specdec.scheduler import ContinuousBatchScheduler
from repro.workload import shared_prefix_trace


@pytest.fixture()
def strategy():
    return SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


def _requests(prompts, seed=42, max_new_tokens=24, start_id=0):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(prompts))
    return [
        make_serving_request(
            request_id=start_id + i,
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            seed=int(seeds[i]),
        )
        for i, prompt in enumerate(prompts)
    ]


GROUPED_PROMPTS = (
    [[5, 6, 7]] * 3 + [[9, 10, 11]] * 3 + [[4, 8, 12]] * 2
)
DISTINCT_PROMPTS = [
    [5, 6, 7], [9, 10, 11], [4, 8, 12], [13, 14, 15],
    [6, 9, 13], [7, 11, 5], [12, 4, 9], [15, 13, 6],
]


class TestAdmissionPolicies:
    def test_fifo_matches_default_scheduler(self):
        requests = _requests(DISTINCT_PROMPTS)
        default = ContinuousBatchScheduler(requests, max_batch_size=3)
        explicit = ContinuousBatchScheduler(
            _requests(DISTINCT_PROMPTS), max_batch_size=3,
            admission=FifoAdmission(),
        )
        for scheduler in (default, explicit):
            assert isinstance(scheduler.admission, FifoAdmission)
        first = [s.request.request_id for s in default.admit()]
        second = [s.request.request_id for s in explicit.admit()]
        assert first == second == [0, 1, 2]
        assert [r.request_id for r in default.waiting] == list(
            range(3, 8)
        )

    def test_admission_respects_resume_reservation(self):
        scheduler = ContinuousBatchScheduler(
            _requests(DISTINCT_PROMPTS), max_batch_size=2,
            admission=FifoAdmission(),
        )
        scheduler.admit()
        scheduler.park(0)
        scheduler.resume(0)
        # One live + one resume in flight: no capacity for the FIFO.
        assert scheduler.admit() == []

    def test_invalid_policy_type_rejected(self):
        with pytest.raises(SpecDecodeError):
            ContinuousBatchScheduler(
                (), max_batch_size=2, admission="fifo",  # type: ignore
            )

    @pytest.mark.parametrize(
        "indices",
        [[0, 0], [99], [-1], [0, 1, 2, 3]],
        ids=["duplicate", "out-of-range", "negative", "over-capacity"],
    )
    def test_malformed_policy_output_raises(self, indices):
        class Broken(AdmissionPolicy):
            name = "broken"

            def select(self, view: AdmissionView) -> List[int]:
                return list(indices)

        scheduler = ContinuousBatchScheduler(
            _requests(DISTINCT_PROMPTS), max_batch_size=3,
            admission=Broken(),
        )
        with pytest.raises(SpecDecodeError):
            scheduler.admit()

    def test_prefix_aware_co_admits_group(self):
        # Queue: A, B, A, B, A (by prompt); capacity 3 must pull the
        # A-sharers forward: A A A in one wave, Bs left waiting.
        prompts = [[5, 6, 7], [9, 10, 11], [5, 6, 7], [9, 10, 11],
                   [5, 6, 7]]
        scheduler = ContinuousBatchScheduler(
            _requests(prompts), max_batch_size=3,
            admission=PrefixAwareAdmission(),
        )
        admitted = scheduler.admit()
        assert [s.request.request_id for s in admitted] == [0, 2, 4]
        assert [r.request_id for r in scheduler.waiting] == [1, 3]
        # Next wave co-admits the B group.
        for request_id in (0, 2, 4):
            scheduler.cancel(request_id)
        assert [
            s.request.request_id for s in scheduler.admit()
        ] == [1, 3]

    def test_prefix_aware_degrades_to_fifo(self):
        scheduler = ContinuousBatchScheduler(
            _requests(DISTINCT_PROMPTS), max_batch_size=3,
            admission=PrefixAwareAdmission(),
        )
        assert [
            s.request.request_id for s in scheduler.admit()
        ] == [0, 1, 2]

    def test_prefix_aware_urgent_lane_first(self):
        # Urgent request 3 (prompt unlike anything) must be admitted
        # before prefix pull-forward can spend the wave's capacity.
        prompts = [[5, 6, 7], [9, 10, 11], [5, 6, 7]]
        requests = _requests(prompts)
        scheduler = ContinuousBatchScheduler(
            requests, max_batch_size=2,
            admission=PrefixAwareAdmission(),
        )
        urgent = _requests([[20, 21, 22]], start_id=3)[0]
        scheduler.push(urgent, urgent=True)
        admitted = [s.request.request_id for s in scheduler.admit()]
        assert admitted[0] == 3
        assert admitted == [3, 0]

    def test_prefix_aware_matches_against_live_and_cache(self):
        cache = KVCacheManager(capacity_tokens=64)
        # The cache keys on the effective prefill context, p[:-1].
        cache.insert((1, 13, 14), np.zeros((2, 2)), cycle=0)
        requests = _requests(
            [[5, 6, 7], [9, 10, 11], [13, 14, 15]]
        )
        scheduler = ContinuousBatchScheduler(
            requests, max_batch_size=2,
            admission=PrefixAwareAdmission(), cache=cache,
        )
        # The FIFO head goes first (starvation guard); the remaining
        # slot goes to request 2, whose prompt ([BOS,13,14,15])
        # matches the cache and jumps over request 1.
        assert [
            s.request.request_id for s in scheduler.admit()
        ] == [0, 2]

    def test_prefix_aware_head_never_starved(self):
        # A unique-prompt head must be admitted even when later-queued
        # requests share a prefix with the live set.
        prompts = [[5, 6, 7], [5, 6, 7], [20, 21, 22], [5, 6, 7]]
        scheduler = ContinuousBatchScheduler(
            _requests(prompts), max_batch_size=2,
            admission=PrefixAwareAdmission(),
        )
        assert [
            s.request.request_id for s in scheduler.admit()
        ] == [0, 1]
        scheduler.cancel(0)
        scheduler.cancel(1)
        # Head is now the unique request 2; sharer 3 matches nothing
        # selected yet... except via live/cache — either way the head
        # must be in the wave.
        admitted = [s.request.request_id for s in scheduler.admit()]
        assert admitted[0] == 2
        assert admitted == [2, 3]


class TestEnginePrefixCache:
    def _engine(self, target, drafter, strategy, **kwargs):
        return BatchedSpecDecodeEngine(
            target, drafter, strategy, temperature=0.9,
            max_batch_size=3, **kwargs,
        )

    def _run(self, engine, prompts=GROUPED_PROMPTS, seed=7):
        engine.start(_requests(prompts, seed=seed))
        while engine.has_work:
            engine.step()
        return engine.result()

    def test_cache_and_cold_runs_byte_identical(
        self, target, trained_drafter, strategy
    ):
        plain = self._run(
            self._engine(target, trained_drafter, strategy)
        )
        cached_engine = self._engine(
            target, trained_drafter, strategy,
            admission=PrefixAwareAdmission(),
            kv_cache=KVCacheManager(capacity_tokens=256),
        )
        cold = self._run(cached_engine)
        warm = self._run(cached_engine)  # second session, warm cache
        for other in (cold, warm):
            assert [s.response for s in other.slots] == [
                s.response for s in plain.slots
            ]

    def test_one_prefill_row_per_shared_prompt(
        self, target, trained_drafter, strategy
    ):
        plain_engine = self._engine(target, trained_drafter, strategy)
        plain = self._run(plain_engine)
        assert plain_engine.counters.prefill_launches == len(GROUPED_PROMPTS)
        assert plain_engine.counters.prefill_launches_saved == 0

        cached_engine = self._engine(
            target, trained_drafter, strategy,
            admission=PrefixAwareAdmission(),
            kv_cache=KVCacheManager(capacity_tokens=256),
        )
        self._run(cached_engine)
        # Three distinct prompts -> three computed rows, ever.
        assert cached_engine.counters.prefill_launches == 3
        assert (
            cached_engine.counters.prefill_launches_saved
            == len(GROUPED_PROMPTS) - 3
        )
        # Warm session: every prompt is already cached.
        self._run(cached_engine)
        assert cached_engine.counters.prefill_launches == 0
        assert (
            cached_engine.counters.prefill_launches_saved
            == len(GROUPED_PROMPTS)
        )
        assert plain == plain  # keep the reference alive for clarity

    def test_eviction_pressure_never_corrupts_outputs(
        self, target, trained_drafter, strategy
    ):
        plain = self._run(
            self._engine(target, trained_drafter, strategy),
            prompts=DISTINCT_PROMPTS,
        )
        # Capacity for a single 4-token prompt (BOS + 3): every
        # admission wave evicts the previous entries under pressure
        # while live slots keep pinning theirs.
        tiny = KVCacheManager(capacity_tokens=4)
        squeezed = self._run(
            self._engine(
                target, trained_drafter, strategy,
                admission=PrefixAwareAdmission(), kv_cache=tiny,
            ),
            prompts=DISTINCT_PROMPTS,
        )
        assert [s.response for s in squeezed.slots] == [
            s.response for s in plain.slots
        ]
        assert (
            tiny.stats.evictions
            + tiny.stats.rejected_pinned
            + tiny.stats.rejected_oversize
        ) > 0

    def test_park_resume_releases_and_reacquires_ref(
        self, target, trained_drafter, strategy
    ):
        cache = KVCacheManager(capacity_tokens=64)
        engine = self._engine(
            target, trained_drafter, strategy, kv_cache=cache,
        )
        prompts = [[5, 6, 7], [5, 6, 7]]
        # seed=1 keeps both requests live across the park/resume walk
        # (neither hits EOS before the refcounts are asserted).
        engine.start(_requests(prompts, seed=1, max_new_tokens=64))
        engine.step()
        key = (1, 5, 6)  # effective context of BOS + prompt
        assert cache.refcount(key) == 2
        engine.park(0)
        assert cache.refcount(key) == 1
        engine.resume(0)
        assert cache.refcount(key) == 1  # re-acquired at readmission
        engine.step()
        assert cache.refcount(key) == 2
        while engine.has_work:
            engine.step()
        assert cache.refcount(key) == 0  # retirement released both
        assert cache.contains(key)       # ...but the entry survives

    def test_park_survives_eviction_of_its_entry(
        self, target, trained_drafter, strategy
    ):
        plain = self._run(
            self._engine(target, trained_drafter, strategy),
            prompts=DISTINCT_PROMPTS[:4],
        )
        cache = KVCacheManager(capacity_tokens=4)
        engine = self._engine(
            target, trained_drafter, strategy, kv_cache=cache,
        )
        engine.start(
            _requests(DISTINCT_PROMPTS[:4], seed=7, max_new_tokens=24)
        )
        engine.step()
        engine.park(0)  # unpins (1,5,6,7); later waves may evict it
        while engine.has_work:
            engine.step()
        engine.resume(0)
        while engine.has_work:
            engine.step()
        result = engine.result()
        assert [s.response for s in result.slots] == [
            s.response for s in plain.slots
        ]

    def test_cancel_releases_ref(
        self, target, trained_drafter, strategy
    ):
        cache = KVCacheManager(capacity_tokens=64)
        engine = self._engine(
            target, trained_drafter, strategy, kv_cache=cache,
        )
        engine.start(_requests([[5, 6, 7]], max_new_tokens=64))
        engine.step()
        assert cache.refcount((1, 5, 6)) == 1
        engine.cancel(0)
        assert cache.refcount((1, 5, 6)) == 0


class _StubWorker:
    """Duck-typed worker for dispatch-policy unit tests."""

    def __init__(self, worker_id, free_slots, backlog, victim=None):
        self.worker_id = worker_id
        self.free_slots = free_slots
        self.backlog_tokens = backlog
        self._victim = victim
        self.matches = {}

    def park_cost(self, policy, arrival):
        return self._victim

    def prefix_match(self, prompt):
        return self.matches.get(tuple(prompt), 0)


def _arrival(request_id=0, prompt=(5, 6, 7), slo=INTERACTIVE):
    return ServingRequest(
        request_id=request_id,
        prompt=list(prompt),
        max_new_tokens=8,
        arrival_time=0.0,
        slo=slo,
    )


class TestDispatchPolicies:
    def test_preemption_aware_routes_to_cheapest_victim(self):
        workers = [
            _StubWorker(0, free_slots=0, backlog=10, victim=30),
            _StubWorker(1, free_slots=0, backlog=50, victim=4),
            _StubWorker(2, free_slots=0, backlog=5, victim=None),
        ]
        policy = PreemptionAwareDispatch()
        assert policy.choose(_arrival(), workers) == 1

    def test_preemption_aware_derives_from_policy(self):
        from repro.serving import SloPreemption

        workers = [
            _StubWorker(0, free_slots=0, backlog=10, victim=30),
            _StubWorker(1, free_slots=0, backlog=50, victim=4),
        ]
        slo_policy = SloPreemption(urgent_ttft=10.0)
        dispatch = PreemptionAwareDispatch(policy=slo_policy)
        # Urgency comes from the policy (ttft 4 <= 10), costs from
        # park_cost — the victim the policy would actually park.
        assert dispatch.choose(_arrival(), workers) == 1
        # A policy that marks nothing urgent forces the fallback even
        # though the default urgent_ttft proxy would have fired.
        strict = SloPreemption(urgent_ttft=0.5)
        dispatch = PreemptionAwareDispatch(policy=strict)
        assert dispatch.choose(_arrival(), workers) == 0

    def test_preemption_aware_falls_back_with_free_slots(self):
        workers = [
            _StubWorker(0, free_slots=0, backlog=10, victim=2),
            _StubWorker(1, free_slots=1, backlog=50, victim=4),
        ]
        policy = PreemptionAwareDispatch()
        # Free slot somewhere -> fallback (least-loaded -> worker 0).
        assert policy.choose(_arrival(), workers) == 0

    def test_preemption_aware_ignores_non_urgent(self):
        from repro.serving import BATCH

        workers = [
            _StubWorker(0, free_slots=0, backlog=50, victim=1),
            _StubWorker(1, free_slots=0, backlog=10, victim=99),
        ]
        policy = PreemptionAwareDispatch()
        assert policy.choose(_arrival(slo=BATCH), workers) == 1

    def test_preemption_aware_all_idle_victimless(self):
        workers = [
            _StubWorker(0, free_slots=0, backlog=50, victim=None),
            _StubWorker(1, free_slots=0, backlog=10, victim=None),
        ]
        assert PreemptionAwareDispatch().choose(_arrival(), workers) == 1

    def test_park_cost_matches_actual_preemption_choice(
        self, target, trained_drafter, strategy
    ):
        # SloPreemption parks the LARGEST-backlog BATCH victim;
        # park_cost must report that victim's remaining tokens (not
        # the cheapest slot on the worker), so routing and parking
        # agree on what a park costs.
        from repro.serving import BATCH, SloPreemption

        pool = ServingEngine(
            target, trained_drafter, num_workers=1, strategy=strategy,
            temperature=0.9, max_batch_size=2,
        )
        short = _arrival(0, prompt=(5, 6, 7), slo=BATCH)
        short.max_new_tokens = 8
        long = _arrival(1, prompt=(9, 10, 11), slo=BATCH)
        long.max_new_tokens = 64
        pool.submit(short)
        pool.submit(long)
        pool.tick()
        worker = pool.workers[0]
        policy = SloPreemption()
        urgent = _arrival(2, prompt=(4, 8, 12))
        cost = worker.park_cost(policy, urgent)
        live = {
            request.request_id: remaining
            for request, remaining in worker._live_pairs()
        }
        assert cost == live[1]          # the long victim gets parked
        assert cost > live[0]           # ...not the cheap slot

    def test_prefix_affinity_routes_to_best_match(self):
        workers = [
            _StubWorker(0, free_slots=1, backlog=0),
            _StubWorker(1, free_slots=1, backlog=99),
        ]
        workers[1].matches[(5, 6, 7)] = 4
        policy = PrefixAffinityDispatch()
        # Worker 1 holds the prefix: affinity beats load.
        assert policy.choose(_arrival(), workers) == 1

    def test_prefix_affinity_falls_back_below_min_match(self):
        workers = [
            _StubWorker(0, free_slots=1, backlog=9),
            _StubWorker(1, free_slots=1, backlog=1),
        ]
        workers[0].matches[(5, 6, 7)] = 1  # BOS-only coincidence
        policy = PrefixAffinityDispatch(min_match=2)
        assert policy.choose(_arrival(), workers) == 1

    def test_prefix_affinity_tie_breaks_by_backlog(self):
        workers = [
            _StubWorker(0, free_slots=1, backlog=9),
            _StubWorker(1, free_slots=1, backlog=1),
        ]
        workers[0].matches[(5, 6, 7)] = 3
        workers[1].matches[(5, 6, 7)] = 3
        assert PrefixAffinityDispatch().choose(_arrival(), workers) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            PrefixAffinityDispatch(min_match=0)
        with pytest.raises(ConfigError):
            PrefixAffinityDispatch().choose(_arrival(), [])


class TestServingIntegration:
    def _pool(self, target, drafter, strategy, **kwargs):
        return ServingEngine(
            target, drafter, num_workers=2, strategy=strategy,
            temperature=0.9, max_batch_size=2, **kwargs,
        )

    def test_prefix_affinity_co_locates_repeat_prompts(
        self, target, trained_drafter, strategy
    ):
        pool = self._pool(
            target, trained_drafter, strategy,
            dispatch=PrefixAffinityDispatch(),
            kv_cache_tokens=256,
            work_stealing=False,
        )
        trace = [
            _arrival(0, prompt=(5, 6, 7)),
            _arrival(1, prompt=(9, 10, 11)),
            _arrival(2, prompt=(5, 6, 7)),
        ]
        trace[1].arrival_time = 0.5
        trace[2].arrival_time = 1.0
        report = pool.run(trace)
        workers = {r.request.request_id: r.worker_id
                   for r in report.records}
        assert workers[0] == workers[2]
        assert workers[1] != workers[0]
        assert report.prefix_hit_rate > 0.0
        assert report.prefill_launches_saved >= 1

    def test_serving_outputs_invariant_under_prefix_stack(
        self, target, trained_drafter, strategy
    ):
        trace = shared_prefix_trace(
            np.random.default_rng(3), 24, num_requests=8,
            num_prefixes=2, prefix_len=3, suffix_len=0,
        )
        base = self._pool(target, trained_drafter, strategy).run(
            list(trace)
        )
        pref = self._pool(
            target, trained_drafter, strategy,
            dispatch=PrefixAffinityDispatch(),
            admission=PrefixAwareAdmission(),
            kv_cache_tokens=256,
        ).run(list(trace))
        assert [r.response for r in pref.records] == [
            r.response for r in base.records
        ]
        assert pref.prefill_launches < base.prefill_launches
        assert base.prefill_launches_saved == 0
        summary = pref.summary()
        assert summary["prefill_launches_saved"] > 0
        assert 0.0 < summary["prefix_hit_rate"] <= 1.0
        assert len(pref.worker_prefix_hit_rates()) == 2

    def test_kv_cache_tokens_validation(
        self, target, trained_drafter, strategy
    ):
        with pytest.raises(ConfigError):
            self._pool(
                target, trained_drafter, strategy, kv_cache_tokens=0
            )


class TestSharedPrefixTrace:
    def test_prompts_share_exact_prefixes(self):
        trace = shared_prefix_trace(
            np.random.default_rng(0), 32, num_requests=12,
            num_prefixes=3, prefix_len=4, suffix_len=2,
        )
        assert len(trace) == 12
        heads = {tuple(r.prompt[:4]) for r in trace}
        assert len(heads) <= 3
        assert all(len(r.prompt) == 6 for r in trace)
        assert trace == sorted(trace, key=lambda r: r.arrival_time)

    def test_zero_suffix_repeats_whole_prompts(self):
        trace = shared_prefix_trace(
            np.random.default_rng(0), 32, num_requests=10,
            num_prefixes=2, prefix_len=3,
        )
        assert len({tuple(r.prompt) for r in trace}) <= 2

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            shared_prefix_trace(rng, 32, 0, 1)
        with pytest.raises(ConfigError):
            shared_prefix_trace(rng, 32, 1, 0)
        with pytest.raises(ConfigError):
            shared_prefix_trace(rng, 32, 1, 1, prefix_len=0)
        with pytest.raises(ConfigError):
            shared_prefix_trace(rng, 32, 1, 1, suffix_len=-1)
        with pytest.raises(ConfigError):
            shared_prefix_trace(rng, 32, 1, 1, mean_interarrival=0.0)
