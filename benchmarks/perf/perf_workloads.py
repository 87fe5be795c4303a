"""The four benchmark workloads and the substrates they run on.

Every workload has the same three phases, all driven by the harness:

* ``setup()`` builds the models the workload serves (timed as
  ``setup_s``); model seeds are fixed, so every ``--seed`` measures the
  same program.
* ``inputs(substrate, seed, scale)`` generates the traffic from
  ``--seed``.  The program only ever sees these requests and prompts.
* ``run_pass(substrate, inputs, tracer)`` builds fresh engines, drains
  the traffic tick by tick with a wall stamp around every tick, and
  returns a :class:`PassResult`.  A pass is deterministic: repeating it
  reproduces every response byte for byte, which is what the harness's
  digest check relies on.

Why these four (the README has the long form): tree drafting is ~60 %
of wall on long-tail decode but under 30 % on short shared-prefix
traffic, where dispatch, prefill and admission dominate; the fleet run
takes the *other* tree builder on many small batches; the RL step is
training-heavy.  One scenario would mis-price most optimisations.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    TrainingStrategy,
)
from repro.drafter.training import (
    build_training_batch,
    collect_training_sequences,
)
from repro.fleet import FleetEngine, PrefixHashRouting
from repro.llm import TinyLM, TinyLMConfig, Vocabulary, generate
from repro.llm.pretrain import pretrained_target
from repro.longtail import RolloutScheduler, SchedulerMode
from repro.rl import RlConfig, RlTrainer
from repro.serving import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    LeastLoadedDispatch,
    PrefixAffinityDispatch,
    ServingEngine,
    poisson_trace,
)
from repro.serving.metrics import RequestRecord, ServingReport
from repro.serving.request import ServingRequest
from repro.specdec import PrefixAwareAdmission, SdStrategy
from repro.specdec.control import RequestEvent
from repro.specdec.metrics import SdRunMetrics
from repro.spot import OnlineDataBuffer, SpotTrainer
from repro.workload import LognormalLengths, SuccessorChainTask, fleet_trace

from perf_trace import Tracer

VOCAB = 32
Substrate = Tuple[TinyLM, Optional[EagleDrafter]]


def _lm_config(window: int) -> TinyLMConfig:
    return TinyLMConfig(
        vocab_size=VOCAB,
        hidden_size=32,
        context_window=window,
        num_layers=4,
        init_scale=0.8,
    )


# -- substrates ---------------------------------------------------------------
#
# Built here from the public ``repro`` API, not through
# ``benchmarks/_common.trained_substrate``: the driver's contract keeps
# the benchmark in directories "that hold the benchmark and nothing
# else", and the model a workload serves is part of the workload.  It
# also has set-up run "several times in a run", which the ~15 s
# calibrated build cannot afford 92 driver runs of.  The corpus and epoch
# counts below give the same model shape and near-identical acceptance
# (accept length 3.5 sampled / 4.3 greedy against 3.4 / 4.6) in ~4 s.


def pretrained_lm() -> TinyLM:
    """The pretrained window-4 target (fixed seed)."""
    return pretrained_target(
        _lm_config(4),
        np.random.default_rng(1234),
        corpus_sequences=32,
        corpus_length=48,
        epochs=250,
        chain_prob=0.72,
    )


def trained_substrate() -> Substrate:
    """Pretrained target plus an EAGLE drafter trained on its rollouts."""
    target = pretrained_lm()
    rng = np.random.default_rng(7)
    prompts = [
        list(rng.integers(3, VOCAB, size=4)) for _ in range(24)
    ]
    sequences = generate(target, prompts, 80, 0.9, rng).full_sequences
    strategy = TrainingStrategy.eagle()
    drafter = EagleDrafter(
        target,
        EagleDrafterConfig(fused_layers=strategy.fused_layers),
        np.random.default_rng(5),
    )
    batch = build_training_batch(
        collect_training_sequences(target, sequences),
        strategy.unroll_steps,
    )
    DrafterTrainer(
        drafter,
        DrafterTrainingConfig(strategy=strategy, learning_rate=5e-3),
    ).train_epochs(batch, 150)
    return target, drafter


def untrained_wide_substrate() -> Substrate:
    """Untrained window-32 target + EAGLE: prefill context is capped by
    the window, so only a wide window exercises the prefix cache."""
    rng = np.random.default_rng(4242)
    target = TinyLM(_lm_config(32), rng)
    return target, EagleDrafter(target, EagleDrafterConfig(), rng)


# -- pass result --------------------------------------------------------------


@dataclass
class PassResult:
    """Everything one pass hands the harness.

    Attributes:
        started / ended: wall stamps around the timed region.
        cpu_s: process CPU time spent in it.
        tick_starts / tick_ends: wall stamps around every pool (or
            fleet) tick, indexed by virtual tick.
        records: one record per submitted request, by request id.
        submitted: requests submitted.
        events: the pools' lifecycle event trail.
        counters: per-layer counts read from the public report objects.
        problems: correctness violations found by the workload itself.
    """

    started: float
    ended: float
    cpu_s: float
    tick_starts: List[float]
    tick_ends: List[float]
    records: List[RequestRecord]
    submitted: int
    events: List[RequestEvent]
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Wall time of the timed region."""
        return self.ended - self.started


class _Clock:
    """Wall + CPU stopwatch over a pass's timed region."""

    def __init__(self) -> None:
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def stop(self) -> Tuple[float, float]:
        """(wall stamp now, CPU seconds since start)."""
        return time.perf_counter(), time.process_time() - self.cpu0


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _drain(pool: ServingEngine, starts: List[float], ends: List[float]):
    """Tick ``pool`` until every submitted request is resolved."""
    now = time.perf_counter
    while not pool.drained:
        starts.append(now())
        pool.tick()
        ends.append(now())


def _pool_counters(
    pools: Sequence[ServingEngine], report: ServingReport
) -> Dict[str, float]:
    """specdec / cache / serving counts of one or more pools."""
    metrics = SdRunMetrics()
    cycles = live = 0
    evictions = 0
    for pool in pools:
        for worker in pool.workers:
            metrics = metrics.merged(worker.engine.metrics)
            reports = worker.engine.cycle_reports
            cycles += len(reports)
            live += sum(r.live_batch for r in reports)
            cache = worker.engine.kv_cache
            if cache is not None:
                evictions += cache.stats.evictions
    accepted = sum(c.accepted for c in metrics.cycles)
    drafted = sum(c.drafted for c in metrics.cycles)
    waits = [
        r.queue_wait for r in report.records if r.queue_wait is not None
    ]
    capacity = report.pool_slot_capacity or 1
    return {
        "specdec.cycles": float(cycles),
        "specdec.trees_built": float(metrics.num_cycles),
        "specdec.draft_launches": float(report.draft_launches),
        "specdec.draft_launches_saved": float(
            report.draft_launches_saved
        ),
        "specdec.accept_rate": accepted / drafted if drafted else 0.0,
        "specdec.tokens_per_cycle": metrics.mean_accept_length,
        "specdec.live_batch_mean": live / cycles if cycles else 0.0,
        "specdec.queue_wait_cycles_mean": metrics.mean_wait_cycles,
        "cache.hit_rate": report.prefix_hit_rate,
        "cache.prefill_tokens": float(report.prefill_tokens),
        "cache.prefill_tokens_saved": float(report.prefill_tokens_saved),
        "cache.demotions": float(report.cache_demotions),
        "cache.promotions": float(report.cache_promotions),
        "cache.evictions": float(evictions),
        "serving.slot_utilization": (
            sum(report.class_slot_cycles.values())
            / (capacity * max(report.ticks, 1.0))
        ),
        "serving.queue_wait_ticks_p50": (
            float(np.median(waits)) if waits else 0.0
        ),
        "serving.stolen": float(report.stolen),
        "serving.preemptions": float(report.preemptions),
    }


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


# -- single-pool serving ------------------------------------------------------


class _PoolWorkload:
    """Open-loop trace drained through one :class:`ServingEngine`."""

    def build_pool(self, substrate: Substrate) -> ServingEngine:
        raise NotImplementedError

    def run_pass(
        self,
        substrate: Substrate,
        trace: List[ServingRequest],
        tracer: Optional[Tracer],
    ) -> PassResult:
        starts: List[float] = []
        ends: List[float] = []
        # Building the engines is inside the timed region, so work
        # moved into a constructor still shows.
        clock = _Clock()
        pool = self.build_pool(substrate)
        for request in trace:
            pool.submit(request)
        _drain(pool, starts, ends)
        report = pool.report()
        ended, cpu_s = clock.stop()
        return PassResult(
            started=clock.wall0,
            ended=ended,
            cpu_s=cpu_s,
            tick_starts=starts,
            tick_ends=ends,
            records=report.records,
            submitted=len(trace),
            events=pool.lifecycle_events(),
            counters=_pool_counters([pool], report),
        )


class ServeLongtail(_PoolWorkload):
    """Unshared 4-token prompts, long-tail outputs: decode-bound."""

    name = "serve_longtail"
    requests = 1500
    #: 32 slots, ~4.4 ticks per request -> ~7 requests/tick saturates;
    #: this gap holds the pool near 80 % slot utilisation.
    mean_interarrival = 0.17

    def setup(self) -> Substrate:
        return trained_substrate()

    def inputs(
        self, substrate: Substrate, seed: int, scale: float
    ) -> List[ServingRequest]:
        return poisson_trace(
            np.random.default_rng(seed),
            num_requests=_scaled(self.requests, scale, 8),
            mean_interarrival=self.mean_interarrival,
            length_model=LognormalLengths(
                median=10.0, sigma=1.2, cap=80
            ),
            vocab_size=VOCAB,
            slo_mix=((INTERACTIVE, 0.3), (STANDARD, 0.5), (BATCH, 0.2)),
        )

    def build_pool(self, substrate: Substrate) -> ServingEngine:
        target, drafter = substrate
        return ServingEngine(
            target,
            drafter,
            num_workers=4,
            strategy=SdStrategy(4, 4, 8),
            temperature=0.7,
            child_mode="sample",
            max_batch_size=8,
            dispatch=LeastLoadedDispatch(),
            kv_cache_tokens=512,
        )


class ServePrefixShort(_PoolWorkload):
    """Same pool shape, long shared prompts, tiny outputs: prompt-bound."""

    name = "serve_prefix_short"
    tenants = 48
    per_tenant = 24
    groups = 48
    group_size = 8
    prefix_len = 24
    suffix_len = 4

    def setup(self) -> Substrate:
        return untrained_wide_substrate()

    def inputs(
        self, substrate: Substrate, seed: int, scale: float
    ) -> List[ServingRequest]:
        short = LognormalLengths(median=2.0, sigma=0.5, cap=4)
        return fleet_trace(
            np.random.default_rng(seed),
            VOCAB,
            num_tenants=self.tenants,
            requests_per_tenant=_scaled(self.per_tenant, scale, 2),
            num_batch=_scaled(self.groups, scale) * self.group_size,
            batch_group_size=self.group_size,
            prefix_len=self.prefix_len,
            suffix_len=self.suffix_len,
            mean_interarrival=0.25,
            batch_gap=0.8,
            max_new_tokens=short,
            batch_lengths=short,
        )

    def build_pool(self, substrate: Substrate) -> ServingEngine:
        target, drafter = substrate
        return ServingEngine(
            target,
            drafter,
            num_workers=4,
            strategy=SdStrategy(2, 2, 4),
            temperature=0.7,
            child_mode="sample",
            max_batch_size=8,
            dispatch=PrefixAffinityDispatch(
                fallback=LeastLoadedDispatch()
            ),
            admission=PrefixAwareAdmission(),
            group_affinity=True,
            # 24 tenant prefixes x 24 tokens = 576 tokens of shared
            # working set per worker against 256 HOT + 256 COLD: the
            # cache must demote, promote and evict.
            kv_cache_tokens=256,
            kv_cache_cold_tokens=256,
        )


# -- fleet_topk ---------------------------------------------------------------


class FleetTopk:
    """Four replicas of 2 workers x batch 4, greedy topk trees."""

    name = "fleet_topk"
    tenants = 16
    per_tenant = 60
    groups = 42
    group_size = 8
    #: Prefix hashing puts a seed-dependent number of tenants on each
    #: replica; at this rate (~47 % of the fleet's slots) the hot
    #: replicas rarely queue.  The floor's 336 arrivals end before the
    #: tenants' 960 do, so the larger stream sets the makespan (4.7 %
    #: seed-to-seed, against 13 % when the floor ends last).
    mean_interarrival = 0.4
    batch_gap = 1.0
    #: Tenants share 3 prompt tokens (with BOS, the whole prefill key on
    #: this window-4 model) and differ in the 4th.  With a shared 4th
    #: token, greedy decoding gives all of a tenant's requests one
    #: trajectory, a run has ~44 distinct ones, and acceptance (hence
    #: p50 latency) swings 14 % with the seed.
    prefix_len = 3

    def setup(self) -> Substrate:
        return trained_substrate()

    def inputs(
        self, substrate: Substrate, seed: int, scale: float
    ) -> List[ServingRequest]:
        longish = LognormalLengths(median=10.0, sigma=1.0, cap=64)
        return fleet_trace(
            np.random.default_rng(seed),
            VOCAB,
            num_tenants=self.tenants,
            requests_per_tenant=_scaled(self.per_tenant, scale, 2),
            num_batch=_scaled(self.groups, scale) * self.group_size,
            batch_group_size=self.group_size,
            prefix_len=self.prefix_len,
            suffix_len=4 - self.prefix_len,
            mean_interarrival=self.mean_interarrival,
            batch_gap=self.batch_gap,
            max_new_tokens=longish,
            batch_lengths=longish,
        )

    def run_pass(
        self,
        substrate: Substrate,
        trace: List[ServingRequest],
        tracer: Optional[Tracer],
    ) -> PassResult:
        target, drafter = substrate
        ends: List[float] = []
        clock = _Clock()
        pools = [
            ServingEngine(
                target,
                drafter,
                num_workers=2,
                strategy=SdStrategy(4, 4, 8),
                temperature=0.0,
                child_mode="topk",
                max_batch_size=4,
                dispatch=PrefixAffinityDispatch(
                    fallback=LeastLoadedDispatch()
                ),
                admission=PrefixAwareAdmission(),
                group_affinity=True,
                work_stealing=False,
                kv_cache_tokens=512,
            )
            for _ in range(4)
        ]
        fleet = FleetEngine(
            pools, routing=PrefixHashRouting(prefix_len=self.prefix_len)
        )
        fleet_report = fleet.run(
            trace, on_tick=lambda _: ends.append(time.perf_counter())
        )
        report = fleet_report.pooled()
        ended, cpu_s = clock.stop()
        # The fleet loop gives one stamp per tick; a tick starts where
        # the previous one ended.
        starts = [clock.wall0] + ends[:-1]

        seen: set = set()
        local = 0
        for request in trace:  # arrival order
            key = (fleet.placement[request.request_id],
                   tuple(request.prompt[: self.prefix_len]))
            local += key in seen
            seen.add(key)
        counters = _pool_counters(pools, report)
        counters["fleet.prefix_local_share"] = local / len(trace)
        counters["fleet.spills"] = float(fleet_report.spills)
        return PassResult(
            started=clock.wall0,
            ended=ended,
            cpu_s=cpu_s,
            tick_starts=starts,
            tick_ends=ends,
            records=report.records,
            submitted=len(trace),
            events=fleet.lifecycle_events(),
            counters=counters,
        )


# -- rl_step ------------------------------------------------------------------


@dataclass(frozen=True)
class RlInputs:
    """Seeds and sizes of one closed-loop RL pass."""

    trainer_seed: int
    spot_seed: int
    steps: int
    num_prompts: int
    spot_updates: int


class RlStep:
    """Closed-loop co-located GRPO: rollout -> update -> spot -> publish."""

    name = "rl_step"
    #: Steps per pass; an 18 s run holds ~4 passes, so ~8 timed steps.
    steps = 2
    #: 128 rollouts per step on 32 slots: four waves, staged tail-first.
    num_prompts = 16
    group_size = 8
    max_new_tokens = 64
    #: Sized so policy update + spot training are >= 40 % of a step.
    spot_updates = 64

    def setup(self) -> Substrate:
        return pretrained_lm(), None

    def inputs(
        self, substrate: Substrate, seed: int, scale: float
    ) -> RlInputs:
        return RlInputs(
            trainer_seed=seed,
            spot_seed=seed + 1,
            steps=_scaled(self.steps, scale),
            num_prompts=_scaled(self.num_prompts, scale, 2),
            spot_updates=_scaled(self.spot_updates, scale, 2),
        )

    def run_pass(
        self,
        substrate: Substrate,
        inputs: RlInputs,
        tracer: Optional[Tracer],
    ) -> PassResult:
        starts: List[float] = []
        ends: List[float] = []
        clock = _Clock()
        # The policy is updated in place, so every pass trains its own
        # clone of the pretrained target with a fresh EAGLE drafter.
        policy = substrate[0].clone()
        drafter = EagleDrafter(
            policy, EagleDrafterConfig(), np.random.default_rng(5)
        )
        config = RlConfig(
            num_prompts=inputs.num_prompts,
            group_size=self.group_size,
            max_new_tokens=self.max_new_tokens,
            temperature=0.9,
        )
        pool = ServingEngine(
            policy,
            drafter,
            num_workers=2,
            strategy=SdStrategy(4, 4, 8),
            temperature=config.temperature,
            child_mode="sample",
            max_batch_size=16,
            dispatch=LeastLoadedDispatch(),
            group_affinity=True,
        )
        scheduler = RolloutScheduler(
            pool,
            mode=SchedulerMode.TAIL_FIRST,
            group_size=self.group_size,
        )
        trainer = RlTrainer(
            policy,
            SuccessorChainTask(vocab=Vocabulary(VOCAB), target_pairs=10),
            config,
            rng=np.random.default_rng(inputs.trainer_seed),
        )
        spot = SpotTrainer(
            trainer=DrafterTrainer(
                drafter.clone(),
                DrafterTrainingConfig(learning_rate=5e-3),
            ),
            buffer=OnlineDataBuffer(capacity_tokens=200_000),
            batch_sequences=24,
            max_positions=1024,
        )
        spot_rng = np.random.default_rng(inputs.spot_seed)
        now = time.perf_counter
        rollout_tokens = 0
        reward = float("nan")
        for step in range(inputs.steps):
            with _span(tracer, "rl.rollout"):
                prompts = trainer.sample_prompts()
                batch_id = scheduler.submit_batch(
                    policy,
                    prompts.expanded,
                    config.max_new_tokens,
                    config.temperature,
                    trainer.rng,
                )
                # collect() runs this same pump/tick loop; driving it
                # here puts a wall stamp around every pool tick.
                while True:
                    scheduler.pump()
                    if pool.drained:
                        break
                    starts.append(now())
                    pool.tick()
                    ends.append(now())
                rollout = scheduler.collect(batch_id)
            reward = trainer.step(
                rollout=rollout, prompts=prompts
            ).mean_reward
            rollout_tokens += int(rollout.stats["rollout_tokens"])
            with _span(tracer, "spot.ingest"):
                spot.begin_step(step)
                spot.ingest(
                    collect_training_sequences(
                        policy, rollout.full_sequences, step
                    )
                )
            spot.train_slice(inputs.spot_updates, spot_rng)
            with _span(tracer, "spot.publish"):
                pool.swap_drafter(spot.snapshot_drafter())
        report = pool.report()
        ended, cpu_s = clock.stop()
        problems = []
        if not np.isfinite(reward):
            problems.append(f"final mean reward is {reward}")
        counters = _pool_counters([pool], report)
        counters.update(
            {
                "longtail.predict_mae": (
                    scheduler.predictor.calibration.mean_abs_error
                ),
                "longtail.pipelined_releases": float(
                    scheduler.stats.pipelined_releases
                ),
                "rl.rollout_tokens": float(rollout_tokens),
                "rl.reward_mean_final": reward,
                "rl.steps": float(inputs.steps),
                "spot.updates": float(spot.total_updates),
                "spot.buffer_tokens": float(spot.buffer.total_tokens),
            }
        )
        return PassResult(
            started=clock.wall0,
            ended=ended,
            cpu_s=cpu_s,
            tick_starts=starts,
            tick_ends=ends,
            records=report.records,
            submitted=(
                inputs.steps * inputs.num_prompts * self.group_size
            ),
            events=pool.lifecycle_events(),
            counters=counters,
            problems=problems,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        ServeLongtail(),
        ServePrefixShort(),
        FleetTopk(),
        RlStep(),
    )
}
