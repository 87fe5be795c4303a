"""Long-tail rollout scoreboard: tail-first pipelining + drafter zoo.

Two claims from the distribution-aware rollout loop
(``repro.longtail``), each scored against its exact baseline on the
same pool shape:

* **Makespan** — a straggler-heavy segmented GRPO trace is rolled out
  through the :class:`~repro.longtail.scheduler.RolloutScheduler`
  (a) FIFO whole-group, batch-at-a-time and (b) tail-first with
  cross-batch pipelining.  Scheduling only
  reorders work: per-request outputs are byte-identical, and the
  pipelined run finishes the same three batches in strictly fewer pool
  ticks because batch *k+1*'s members decode in the slots batch *k*'s
  stragglers drain out of.
* **Zoo acceptance** — on a two-segment trace, a
  :class:`~repro.longtail.zoo.DrafterZoo` (per-segment specialists +
  the shared generalist as arms, exploit-only bandit) is compared to a
  single-shared-drafter pool serving the identical requests.  Rounds
  repeat the same seeded traffic, so after one exploration pass per
  arm the bandit's windowed estimate IS each arm's true acceptance on
  that traffic, and the measured per-segment acceptance can never fall
  below the shared baseline (the shared arm is always available).
  Speculative decoding is distribution-lossless — every committed
  token is a faithful target-model sample under any arm — and the
  first round (both pools hosting the generalist) is byte-identical
  across pools, pinning down that the pools really serve the same
  traffic before the arms diverge.
"""

from __future__ import annotations

from _common import format_table, train_eagle, write_result

import numpy as np

from repro.drafter import EagleDrafter, EagleDrafterConfig
from repro.llm import TinyLM, TinyLMConfig, generate
from repro.longtail import (
    DrafterZoo,
    LengthPredictor,
    RolloutScheduler,
    SchedulerMode,
)
from repro.serving import SegmentAffinityDispatch, ServingEngine
from repro.specdec import SdStrategy
from repro.workload import LognormalLengths, segmented_grpo_trace

NUM_WORKERS = 2
MAX_BATCH = 4
TEMPERATURE = 0.9
STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)
WINDOW = 16

#: Part 1 — makespan trace: 3 batches of 4 GRPO groups x 3 members
#: (12 requests over 8 pool slots, so admission order matters), three
#: prompt families, response lengths set by each family's EOS hazard.
MAKESPAN_BATCHES = 3
GROUPS_PER_BATCH = 4
GROUP_SIZE = 3
MAKESPAN_CAP = 24
ROLLOUT_SEED = 77

#: Part 2 — zoo trace: 2 segments, identical seeded traffic per round;
#: one exploration round per arm, then exploit-only measurement.
ZOO_GROUPS = 4
ZOO_GROUP_SIZE = 2
ZOO_CAP = 16
ZOO_ROUND_SEED = 101
ZOO_MEASURE_ROUNDS = 2
SPECIALIST_EPOCHS = 150


def _substrate():
    config = TinyLMConfig(
        vocab_size=24,
        hidden_size=16,
        context_window=WINDOW,
        num_layers=2,
        init_scale=1.5,
    )
    rng = np.random.default_rng(4242)
    target = TinyLM(config, rng)
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    return target, drafter


def _pool(target, drafter, **kwargs):
    return ServingEngine(
        target,
        drafter,
        num_workers=NUM_WORKERS,
        strategy=STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=MAX_BATCH,
        # Fixed placement keeps the comparison clean: stealing would
        # let per-worker attribution (and part 2's segment -> drafter
        # mapping) drift between stacks.
        work_stealing=False,
        **kwargs,
    )


# -- part 1: makespan ------------------------------------------------------


def _run_rollouts(target, drafter, trace, mode, pipelined, predictor):
    engine = _pool(target, drafter)
    scheduler = RolloutScheduler(
        engine, mode=mode, predictor=predictor,
        segment_of=trace.segment_of,
    )
    rng = np.random.default_rng(ROLLOUT_SEED)
    if pipelined:
        # Lookahead-1 stepping (the ColocatedLoop.run shape): batch
        # k+1 is staged while batch k's stragglers drain, and batch
        # k+1's staging order can use batch k-1's observed lengths.
        results = []
        pending = []
        batches = list(trace.batches)
        while batches or pending:
            while batches and len(pending) < 2:
                pending.append(
                    scheduler.submit_batch(
                        target, batches.pop(0),
                        MAKESPAN_CAP, TEMPERATURE, rng,
                    )
                )
            results.append(scheduler.collect(pending.pop(0)))
    else:
        results = []
        for batch in trace.batches:
            batch_id = scheduler.submit_batch(
                target, batch, MAKESPAN_CAP, TEMPERATURE, rng
            )
            results.append(scheduler.collect(batch_id))
    return {
        "results": results,
        "ticks": engine.clock.now,
        "stats": scheduler.stats,
        "predictor": scheduler.predictor,
    }


# -- part 2: drafter zoo ---------------------------------------------------


def _family_rollouts(target, family, count=16, seed=303):
    rng = np.random.default_rng(seed)
    prompts = [family.sample_prompt(rng) for _ in range(count)]
    return generate(
        target, prompts, 40, TEMPERATURE, rng
    ).full_sequences


def _segment_deltas(report, previous, segments):
    """Per-segment (accepted, drafted) since the ``previous`` report."""
    spent = report.totals
    if previous:
        spent = spent - previous.totals
    return {
        segment: (
            spent.segment_accepted.get(segment, 0),
            spent.segment_drafted.get(segment, 0),
        )
        for segment in segments
    }


def _zoo_round(scheduler, batch, target):
    rng = np.random.default_rng(ZOO_ROUND_SEED)  # identical rounds
    batch_id = scheduler.submit_batch(
        target, batch, ZOO_CAP, TEMPERATURE, rng
    )
    return scheduler.collect(batch_id)


def _run_zoo_comparison(target, trace):
    batch = trace.batches[0]
    segments = trace.segments

    specialists = {
        f"spec-{family.name}": train_eagle(
            target,
            _family_rollouts(target, family, seed=303 + i),
            epochs=SPECIALIST_EPOCHS,
        )
        for i, family in enumerate(trace.families)
    }
    mixed = []
    for i, family in enumerate(trace.families):
        mixed.extend(
            _family_rollouts(target, family, count=8, seed=303 + i)
        )
    shared = train_eagle(target, mixed, epochs=SPECIALIST_EPOCHS)

    zoo = DrafterZoo(
        arms={"shared": shared, **specialists},
        segments=segments,
        epsilon=0.0,  # exploit-only measurement mode
        window=8,
    )
    engine_zoo = _pool(
        target, shared,
        dispatch=SegmentAffinityDispatch(zoo.segment_worker),
    )
    zoo.place(engine_zoo)
    scheduler_zoo = RolloutScheduler(
        engine_zoo, segment_of=trace.segment_of
    )

    placement = {seg: i % NUM_WORKERS for i, seg in enumerate(segments)}
    engine_base = _pool(
        target, shared,
        dispatch=SegmentAffinityDispatch(placement),
    )
    scheduler_base = RolloutScheduler(
        engine_base, segment_of=trace.segment_of
    )

    warmup_rounds = len(zoo.arms)  # one exploration pass per arm
    total_rounds = warmup_rounds + ZOO_MEASURE_ROUNDS
    measured = {s: [0, 0] for s in segments}  # zoo accepted/drafted
    baseline = {s: [0, 0] for s in segments}
    prev_zoo = prev_base = None
    base_rounds = []
    round0_identical = False
    for round_index in range(total_rounds):
        if round_index:
            for segment in segments:
                zoo.publish(engine_zoo, segment)
        # Drain the swap queue (one applies per tick) so the whole
        # round decodes under the published arms — clean attribution.
        for _ in range(len(zoo.arms) + 1):
            engine_zoo.tick()
            engine_base.tick()
        result_zoo = _zoo_round(scheduler_zoo, batch, target)
        result_base = _zoo_round(scheduler_base, batch, target)
        base_rounds.append(result_base.responses)
        if round_index == 0:
            # Unexplored-first picks "shared" (alphabetically first)
            # for every segment, so round 0 hosts the generalist on
            # both pools — the paths must match byte-for-byte.
            round0_identical = (
                result_zoo.responses == result_base.responses
            )
        report_zoo = engine_zoo.report()
        report_base = engine_base.report()
        zoo.observe_report(report_zoo)
        if round_index >= warmup_rounds:
            for seg, (a, d) in _segment_deltas(
                report_zoo, prev_zoo, segments
            ).items():
                measured[seg][0] += a
                measured[seg][1] += d
            for seg, (a, d) in _segment_deltas(
                report_base, prev_base, segments
            ).items():
                baseline[seg][0] += a
                baseline[seg][1] += d
        prev_zoo, prev_base = report_zoo, report_base

    def rate(pair):
        accepted, drafted = pair
        return accepted / drafted if drafted else 0.0

    return {
        "zoo_rate": {s: rate(measured[s]) for s in segments},
        "base_rate": {s: rate(baseline[s]) for s in segments},
        "final_arm": {
            s: zoo._bandits[s].current_arm for s in segments
        },
        "snapshot": zoo.snapshot(),
        "round0_identical": round0_identical,
        "baseline_stable": all(
            r == base_rounds[0] for r in base_rounds
        ),
        "publications": zoo.publications,
        "worker_swaps": engine_zoo.worker_swaps,
    }


# -- the scoreboard --------------------------------------------------------


def test_longtail_rollout(benchmark):
    target, base_drafter = _substrate()
    vocab = target.config.vocab_size

    makespan_trace = segmented_grpo_trace(
        np.random.default_rng(21), vocab,
        num_batches=MAKESPAN_BATCHES,
        groups_per_batch=GROUPS_PER_BATCH,
        group_size=GROUP_SIZE,
        num_families=3,
    )
    zoo_trace = segmented_grpo_trace(
        np.random.default_rng(22), vocab,
        num_batches=1,
        groups_per_batch=ZOO_GROUPS,
        group_size=ZOO_GROUP_SIZE,
        num_families=2,
    )

    def run():
        fifo = _run_rollouts(
            target, base_drafter, makespan_trace,
            SchedulerMode.FIFO, pipelined=False, predictor=None,
        )
        tail = _run_rollouts(
            target, base_drafter, makespan_trace,
            SchedulerMode.TAIL_FIRST, pipelined=True,
            predictor=LengthPredictor(
                # The trace's families are keyed by their leading
                # token (disjoint vocab slices), so a 1-token family
                # prefix lets observed lengths generalize across
                # groups instead of memorizing whole prompts.
                family_prefix=1,
                prior=LognormalLengths(
                    median=16.0, sigma=0.8, cap=MAKESPAN_CAP
                ),
            ),
        )
        zoo = _run_zoo_comparison(target, zoo_trace)
        return fifo, tail, zoo

    fifo, tail, zoo = benchmark.pedantic(run, rounds=1, iterations=1)

    calibration = tail["predictor"].calibration.summary()
    rows = [
        [
            "fifo whole-group", f"{fifo['ticks']:.0f}",
            fifo["stats"].pipelined_releases,
            fifo["stats"].requests_released,
        ],
        [
            "tail-first pipelined", f"{tail['ticks']:.0f}",
            tail["stats"].pipelined_releases,
            tail["stats"].requests_released,
        ],
        [
            "makespan win",
            f"{fifo['ticks'] / max(tail['ticks'], 1):.2f}x",
            "", "",
        ],
        [
            "predictor",
            f"hit_rate={calibration['hit_rate']:.2f}",
            f"mae={calibration['mean_abs_error']:.1f}",
            f"prior_fb={calibration['prior_fallbacks']:.0f}",
        ],
    ]
    for segment in zoo_trace.segments:
        rows.append(
            [
                f"zoo {segment}",
                f"base={zoo['base_rate'][segment]:.3f}",
                f"zoo={zoo['zoo_rate'][segment]:.3f}",
                f"arm={zoo['final_arm'][segment]}",
            ]
        )
    write_result(
        "longtail_rollout",
        format_table(
            ["mode", "ticks", "pipelined", "released"],
            rows,
        ),
    )

    # Byte identity: scheduling reorders work, never outputs.
    for a, b in zip(fifo["results"], tail["results"]):
        assert a.responses == b.responses
        assert a.prompts == b.prompts
        assert a.finished == b.finished

    # The headline: same three batches, strictly fewer pool ticks,
    # with real cross-batch overlap.
    assert tail["ticks"] < fifo["ticks"]
    assert tail["stats"].pipelined_releases > 0
    assert fifo["stats"].pipelined_releases == 0

    # The predictor closed its loop: later batches were staged from
    # observed lengths, not the prior.
    assert calibration["observations"] > 0
    assert calibration["prior_fallbacks"] < calibration["predictions"]

    # Zoo: the pools really serve the same traffic (round 0 hosts the
    # generalist on both — byte-identical paths; the baseline repeats
    # its rounds byte-for-byte), and per-segment acceptance never
    # falls below the single-shared-drafter baseline (the shared
    # generalist is an arm, and rounds repeat identical traffic).
    assert zoo["round0_identical"]
    assert zoo["baseline_stable"]
    for segment in zoo_trace.segments:
        assert (
            zoo["zoo_rate"][segment]
            >= zoo["base_rate"][segment] - 1e-9
        ), segment
    # The bandit actually deployed per-worker swaps.
    assert zoo["worker_swaps"] > 0
