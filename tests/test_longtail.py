"""Tests for the long-tail rollout subsystem (``repro.longtail``).

Three contracts under test:

* the :class:`~repro.longtail.predictor.LengthPredictor` is a true
  online estimator — family learning, prior/cap fallback, and
  calibration scored strictly before each update (no peeking);
* the :class:`~repro.longtail.scheduler.RolloutScheduler` only ever
  reorders *work*: ``generate()`` is ``collect(submit_batch())``
  (ids, responses, RNG streams, ticks), tail-first pipelined mode
  reproduces FIFO byte-for-byte, its book-keeping does not outlive a
  collected batch, and the trainer seam
  (:meth:`~repro.rl.trainer.RlTrainer.step` with an injected rollout)
  reproduces the in-line step exactly at ``lookahead=0``;
* the zoo plumbing — per-worker drafter swaps, per-segment acceptance
  counters, segment-affinity dispatch, and the
  :class:`~repro.longtail.zoo.DrafterZoo` bandit on top — moves
  acceptance rates without touching committed tokens.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, SchedulingError, ServingError
from repro.llm.vocab import BOS_ID, Vocabulary
from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    NgramDrafter,
    NgramDrafterConfig,
)
from repro.longtail import (
    ColocatedLoop,
    DrafterZoo,
    LengthPredictor,
    RolloutScheduler,
    SchedulerMode,
)
from repro.rl import RlConfig, RlTrainer
from repro.serving import (
    SegmentAffinityDispatch,
    ServingEngine,
    frontend as serving_frontend,
)
from repro.serving.metrics import ServingReport
from repro.spot import OnlineDataBuffer, SpotTrainer
from repro.specdec.metrics import WorkerCounters
from repro.workload import (
    LognormalLengths,
    SuccessorChainTask,
    segmented_grpo_trace,
)


def _frontend(scenario, num_workers=2, max_batch_size=2, **kwargs):
    return ServingEngine(
        scenario.target, scenario.drafter, num_workers=num_workers,
        strategy=scenario.strategy, temperature=scenario.temperature,
        max_batch_size=max_batch_size, **kwargs,
    )


# -- the predictor ---------------------------------------------------------


class TestLengthPredictor:
    def test_validation(self):
        for kwargs in (
            dict(family_prefix=0),
            dict(quantile=0.0),
            dict(quantile=101.0),
            dict(ewma_alpha=0.0),
            dict(min_window=0),
            dict(window=2, min_window=4),
            dict(prior_samples=0),
            dict(hit_factor=0.5),
        ):
            with pytest.raises(ConfigError):
                LengthPredictor(**kwargs)

    def test_fallback_chain(self):
        bare = LengthPredictor()
        with pytest.raises(ConfigError):
            bare.predict([5, 6, 7])  # no family, no prior, no cap
        assert bare.predict([5, 6, 7], cap=8) == 8  # cap fallback
        prior = LengthPredictor(
            prior=LognormalLengths(median=10.0, sigma=0.3, cap=64)
        )
        predicted = prior.predict([5, 6, 7], cap=64)
        assert 5 <= predicted <= 25  # near the prior's p75
        assert prior.predict([5, 6, 7], cap=3) == 3  # clipped to cap
        assert prior.calibration.prior_fallbacks == 2
        assert prior.calibration.predictions == 2

    def test_prior_consumes_no_caller_rng(self):
        """Two predictors over the same prior agree exactly — the
        prior quantile is drawn from a private fixed seed."""
        prior = LognormalLengths(median=20.0, sigma=0.8, cap=100)
        a = LengthPredictor(prior=prior)
        b = LengthPredictor(prior=prior)
        assert a.predict([1, 2], cap=100) == b.predict([1, 2], cap=100)

    def test_family_learning(self):
        predictor = LengthPredictor(family_prefix=2, min_window=4)
        long_prompt, short_prompt = [10, 11, 1], [20, 21, 2]
        for _ in range(8):
            predictor.observe(long_prompt, 40)
            predictor.observe(short_prompt, 5)
        assert predictor.num_families == 2
        assert predictor.predict(long_prompt) == 40
        assert predictor.predict(short_prompt) == 5
        # A different suffix, same leading tokens: same family.
        assert predictor.predict([10, 11, 99]) == 40

    def test_single_observation_owns_thin_window(self):
        predictor = LengthPredictor(min_window=4)
        predictor.observe([7, 7, 7, 7], 12)
        # Quantile and EWMA agree on a single sample.
        assert predictor.predict([7, 7, 7, 7]) == 12

    def test_quantile_tracks_the_tail(self):
        predictor = LengthPredictor(quantile=75.0, min_window=4)
        prompt = [3, 3, 3, 3]
        for length in (4, 4, 4, 4, 4, 4, 20, 20):
            predictor.observe(prompt, length)
        # p75 of the window sits above the median bulk.
        assert predictor.predict(prompt) > 4

    def test_calibration_scores_before_update(self):
        predictor = LengthPredictor(
            min_window=1,
            prior=LognormalLengths(median=10.0, sigma=0.3, cap=64),
        )
        prompt = [4, 5, 6, 7]
        # First observation is scored against the PRIOR, not itself.
        predictor.observe(prompt, 100)
        cal = predictor.calibration
        assert cal.observations == 1
        assert cal.underestimates == 1  # prior ~10 vs observed 100
        assert cal.within_factor == 0
        # Second observation is scored against the family estimate
        # (now exactly 100): zero error counts as an overestimate
        # (error >= 0) and lands inside the factor band.
        predictor.observe(prompt, 100)
        assert cal.observations == 2
        assert cal.overestimates == 1
        assert cal.within_factor == 1
        assert cal.hit_rate == pytest.approx(0.5)
        assert cal.mean_abs_error > 0

    def test_unscored_without_prior(self):
        """No family data and no prior: nothing to score against."""
        predictor = LengthPredictor()
        predictor.observe([1, 2, 3, 4], 10)
        assert predictor.calibration.observations == 0
        predictor.observe([1, 2, 3, 4], 10)
        assert predictor.calibration.observations == 1

    def test_observe_validation(self):
        predictor = LengthPredictor()
        with pytest.raises(ConfigError):
            predictor.observe([1, 2], 0)
        with pytest.raises(ConfigError):
            predictor.observe_batch([[1], [2]], [3])

    def test_summary_keys(self):
        summary = LengthPredictor().calibration.summary()
        assert set(summary) == {
            "predictions", "prior_fallbacks", "observations",
            "mean_abs_error", "overestimates", "underestimates",
            "hit_rate",
        }


# -- the scheduler ---------------------------------------------------------


def _grpo_prompts(scenario, groups=2, group_size=2):
    prompts = []
    for g in range(groups):
        prompts.extend(
            [list(scenario.prompts[g % len(scenario.prompts)])]
            * group_size
        )
    return prompts


class TestSchedulerValidation:
    def test_rejects_bad_group_size_and_max_ticks(self, scenario_factory):
        frontend = _frontend(scenario_factory(70))
        with pytest.raises(ConfigError):
            RolloutScheduler(frontend, group_size=0)
        with pytest.raises(ConfigError):
            RolloutScheduler(frontend, max_ticks=0)

    def test_rejects_foreign_policy_and_temperature(
        self, scenario_factory
    ):
        scenario = scenario_factory(71)
        scheduler = RolloutScheduler(_frontend(scenario))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            scheduler.submit_batch(
                scenario.target.clone(), [[5, 6]], 4,
                scenario.temperature, rng,
            )
        with pytest.raises(ConfigError):
            scheduler.submit_batch(
                scenario.target, [[5, 6]], 4,
                scenario.temperature + 0.1, rng,
            )
        with pytest.raises(ConfigError):
            scheduler.submit_batch(
                scenario.target, [[5, 6]], 0,
                scenario.temperature, rng,
            )

    def test_collect_contracts(self, scenario_factory):
        scenario = scenario_factory(72)
        scheduler = RolloutScheduler(
            _frontend(scenario), mode=SchedulerMode.FIFO
        )
        with pytest.raises(SchedulingError):
            scheduler.collect(0)  # never submitted
        batch_id = scheduler.submit_batch(
            scenario.target, [scenario.prompts[0]] * 2, 4,
            scenario.temperature, np.random.default_rng(1),
        )
        scheduler.collect(batch_id)
        with pytest.raises(SchedulingError):
            scheduler.collect(batch_id)  # already delivered


class TestGenerateIsSubmitThenCollect:
    """The backend call and the split call are one path: on twin pools
    they allocate the same ids, commit the same tokens, leave every
    request's private stream in the same state, and take the same
    number of pool ticks."""

    def _run(self, monkeypatch, scenario, mode, split):
        streams = {}
        make_request = serving_frontend.make_serving_request

        def recording(**kwargs):
            request = make_request(**kwargs)
            streams[request.request_id] = request.rng
            return request

        monkeypatch.setattr(
            serving_frontend, "make_serving_request", recording
        )
        engine = _frontend(scenario)
        scheduler = RolloutScheduler(engine, mode=mode)
        args = (
            scenario.target,
            _grpo_prompts(scenario, groups=3, group_size=2),
            6,
            scenario.temperature,
            np.random.default_rng(9),
        )
        if split:
            result = scheduler.collect(scheduler.submit_batch(*args))
        else:
            result = scheduler.generate(*args)
        return (
            result,
            sorted(engine.records),
            [streams[i].bit_generator.state for i in sorted(streams)],
            engine.report().ticks,
        )

    @pytest.mark.parametrize(
        "mode", list(SchedulerMode), ids=lambda m: m.value
    )
    def test_twin_pools(self, scenario_factory, monkeypatch, mode):
        scenario = scenario_factory(73)
        whole, whole_ids, whole_streams, whole_ticks = self._run(
            monkeypatch, scenario, mode, split=False
        )
        split, split_ids, split_streams, split_ticks = self._run(
            monkeypatch, scenario, mode, split=True
        )
        assert whole_ids == split_ids == list(range(6))
        assert whole.responses == split.responses
        assert whole.prompts == split.prompts
        assert whole.finished == split.finished
        assert whole.stats == split.stats
        assert whole_streams == split_streams
        assert whole_ticks == split_ticks > 0

    def test_one_stats_dict(self, scenario_factory):
        scenario = scenario_factory(73)
        result = RolloutScheduler(_frontend(scenario)).generate(
            scenario.target, _grpo_prompts(scenario), 6,
            scenario.temperature, np.random.default_rng(9),
        )
        assert set(result.stats) == {
            "pool_ticks", "preemptions", "stolen",
            "rollout_tokens", "prefill_launches",
            "prefill_launches_saved", "pipelined_releases",
        }
        assert result.target_steps > 0
        assert result.stats["pool_ticks"] > 0
        assert result.stats["rollout_tokens"] == sum(
            len(r) for r in result.responses
        )


class TestBookkeeping:
    def test_collected_batches_leave_no_state(self, scenario_factory):
        """A training run's worth of submit/collect rounds must not
        accumulate per-batch records (or their prompt lists)."""
        scenario = scenario_factory(79)
        scheduler = RolloutScheduler(_frontend(scenario))
        rng = np.random.default_rng(6)
        prompts = _grpo_prompts(scenario)
        for round_ in range(5):
            batch_id = scheduler.submit_batch(
                scenario.target, prompts, 4, scenario.temperature, rng
            )
            assert batch_id == round_
            assert scheduler.pending_batches == [batch_id]
            scheduler.collect(batch_id)
        assert scheduler.pending_batches == []
        assert not scheduler._batches and not scheduler._staged
        assert scheduler.stats.batches_collected == 5
        # Delivered and never-submitted ids still fail loudly.
        for batch_id in range(5):
            with pytest.raises(SchedulingError, match="already"):
                scheduler.collect(batch_id)
        for batch_id in (5, -1):
            with pytest.raises(SchedulingError, match="unknown"):
                scheduler.collect(batch_id)


class TestByteIdentity:
    def _run(self, scenario, batches, mode, pipelined, predictor=None):
        scheduler = RolloutScheduler(
            _frontend(scenario),
            mode=mode,
            predictor=predictor,
        )
        rng = np.random.default_rng(31)
        results = []
        if pipelined:
            ids = [
                scheduler.submit_batch(
                    scenario.target, batch, 8,
                    scenario.temperature, rng,
                )
                for batch in batches
            ]
            results = [scheduler.collect(i) for i in ids]
        else:
            for batch in batches:
                batch_id = scheduler.submit_batch(
                    scenario.target, batch, 8,
                    scenario.temperature, rng,
                )
                results.append(scheduler.collect(batch_id))
        return scheduler, results

    def test_tail_first_pipelined_matches_fifo(self, scenario_factory):
        """The headline contract: staging order, release timing, and
        cross-batch pipelining change NOTHING about any request's
        output — only the makespan."""
        scenario = scenario_factory(74)
        trace = segmented_grpo_trace(
            np.random.default_rng(8),
            scenario.target.config.vocab_size,
            num_batches=3,
            groups_per_batch=3,
            group_size=2,
        )
        _, fifo = self._run(
            scenario, trace.batches, SchedulerMode.FIFO, False
        )
        tail_sched, tail = self._run(
            scenario,
            trace.batches,
            SchedulerMode.TAIL_FIRST,
            True,
            predictor=LengthPredictor(
                prior=LognormalLengths(median=6.0, sigma=0.8, cap=8)
            ),
        )
        for a, b in zip(fifo, tail):
            assert a.responses == b.responses
            assert a.prompts == b.prompts
            assert a.finished == b.finished
        # The pipelined run actually overlapped batches.
        assert tail_sched.stats.pipelined_releases > 0
        assert tail_sched.stats.batches_collected == 3

    def test_fifo_never_pipelines(self, scenario_factory):
        scenario = scenario_factory(75)
        trace = segmented_grpo_trace(
            np.random.default_rng(8),
            scenario.target.config.vocab_size,
            num_batches=2,
            groups_per_batch=2,
            group_size=2,
        )
        scheduler, _ = self._run(
            scenario, trace.batches, SchedulerMode.FIFO, False
        )
        assert scheduler.stats.pipelined_releases == 0


class TestSchedulerDelivery:
    def test_group_complete_in_original_order(self, scenario_factory):
        scenario = scenario_factory(76)
        engine = _frontend(scenario)
        scheduler = RolloutScheduler(engine)
        prompts = _grpo_prompts(scenario, groups=2, group_size=3)
        batch_id = scheduler.submit_batch(
            scenario.target, prompts, 5, scenario.temperature,
            np.random.default_rng(3),
        )
        result = scheduler.collect(batch_id)
        # Original prompt order, BOS included (pool decodes with BOS).
        assert all(p[0] == BOS_ID for p in result.prompts)
        assert [p[1:] for p in result.prompts] == prompts
        # Group tags: 3 + 3 members, two distinct groups.
        groups = [
            engine.records[i].request.group
            for i in sorted(engine.records)
        ]
        assert groups[0] == groups[1] == groups[2]
        assert groups[3] == groups[4] == groups[5]
        assert groups[0] != groups[3]

    def test_predictor_closes_the_loop(self, scenario_factory):
        scenario = scenario_factory(77)
        scheduler = RolloutScheduler(_frontend(scenario))
        prompts = _grpo_prompts(scenario)
        batch_id = scheduler.submit_batch(
            scenario.target, prompts, 5, scenario.temperature,
            np.random.default_rng(4),
        )
        scheduler.collect(batch_id)
        predictor = scheduler.predictor
        assert predictor.num_families >= 1
        # Every member's observed length was absorbed.
        total = sum(
            s.observations for s in predictor.families.values()
        )
        assert total == len(prompts)

    def test_segment_tagging_and_counters(self, scenario_factory):
        scenario = scenario_factory(78)
        vocab = scenario.target.config.vocab_size
        trace = segmented_grpo_trace(
            np.random.default_rng(12), vocab,
            num_batches=1, groups_per_batch=4, group_size=2,
            num_families=2,
        )
        engine = _frontend(scenario)
        scheduler = RolloutScheduler(
            engine, segment_of=trace.segment_of
        )
        batch_id = scheduler.submit_batch(
            scenario.target, trace.batches[0], 6,
            scenario.temperature, np.random.default_rng(5),
        )
        scheduler.collect(batch_id)
        tags = {
            r.request.segment for r in engine.records.values()
        }
        assert tags == set(trace.segments)
        report = engine.report()
        totals = report.totals
        assert set(totals.segment_drafted) == set(trace.segments)
        for segment, rate in report.segment_acceptance.items():
            assert 0.0 <= rate <= 1.0
            assert totals.segment_accepted[segment] <= (
                totals.segment_drafted[segment]
            )


# -- the trainer seam ------------------------------------------------------


def _trainer(scenario, policy, backend=None, seed=123):
    vocab = Vocabulary(scenario.target.config.vocab_size)
    task = SuccessorChainTask(vocab=vocab, target_pairs=4)
    config = RlConfig(
        num_prompts=2,
        group_size=2,
        max_new_tokens=6,
        temperature=scenario.temperature,
        learning_rate=5e-3,
    )
    return RlTrainer(
        policy, task, config,
        backend=backend, rng=np.random.default_rng(seed),
    )


class _PoolScenario:
    """Scenario view whose target is a cloned (trainable) policy."""

    def __init__(self, scenario, policy):
        self.target = policy
        self.drafter = scenario.drafter
        self.strategy = scenario.strategy
        self.temperature = scenario.temperature


class TestTrainerSeam:
    def test_step_rejects_half_injection(self, scenario_factory):
        scenario = scenario_factory(80)
        policy = scenario.target.clone()
        trainer = _trainer(scenario, policy)
        with pytest.raises(ConfigError):
            trainer.step(rollout=None, prompts=trainer.sample_prompts())

    @pytest.mark.parametrize(
        "mode", list(SchedulerMode), ids=lambda m: m.value
    )
    def test_injected_rollout_matches_inline_step(
        self, scenario_factory, mode
    ):
        """lookahead=0 pipelined stepping IS the in-line loop: same
        prompts, same seeds, same updates, same reports."""
        scenario = scenario_factory(81)

        policy_a = scenario.target.clone()
        view_a = _PoolScenario(scenario, policy_a)
        trainer_a = _trainer(
            scenario, policy_a,
            backend=RolloutScheduler(_frontend(view_a), mode=mode),
        )
        inline = [trainer_a.step() for _ in range(2)]

        policy_b = scenario.target.clone()
        view_b = _PoolScenario(scenario, policy_b)
        trainer_b = _trainer(
            scenario, policy_b,
            backend=RolloutScheduler(_frontend(view_b), mode=mode),
        )
        piped = ColocatedLoop(trainer_b).run(2, lookahead=0)

        for a, b in zip(inline, piped):
            assert a.step == b.step
            assert a.mean_reward == b.mean_reward
            assert a.pg_loss == b.pg_loss
            assert a.kl_value == b.kl_value
            assert a.mean_response_length == b.mean_response_length
        probe = np.array([[1, 5, 6, 7]])
        np.testing.assert_array_equal(
            policy_a.forward(probe).logits,
            policy_b.forward(probe).logits,
        )

    def test_lookahead_pipelines_across_steps(self, scenario_factory):
        scenario = scenario_factory(82)
        policy = scenario.target.clone()
        view = _PoolScenario(scenario, policy)
        scheduler = RolloutScheduler(_frontend(view))
        trainer = _trainer(scenario, policy, backend=scheduler)
        reports = ColocatedLoop(trainer).run(3, lookahead=1)
        assert [r.step for r in reports] == [0, 1, 2]
        assert scheduler.stats.batches_collected == 3
        # Batch k+1 was staged while batch k was in flight.
        assert scheduler.stats.pipelined_releases > 0

    def test_run_pipelined_validation(self, scenario_factory):
        scenario = scenario_factory(83)
        policy = scenario.target.clone()
        view = _PoolScenario(scenario, policy)
        loop = ColocatedLoop(
            _trainer(
                scenario, policy,
                backend=RolloutScheduler(_frontend(view)),
            )
        )
        with pytest.raises(ConfigError):
            loop.run(0)
        with pytest.raises(ConfigError):
            loop.run(1, lookahead=-1)

    def test_lookahead_with_spot_submits_the_same_requests(
        self, scenario_factory, monkeypatch
    ):
        """With a spot trainer attached, lookahead moves *when* a batch
        is submitted, never *what*: same ids, seeds and prompts; every
        spot draw comes from ``spot_rng``, so ``trainer.rng`` ends where
        the spot-less run leaves it."""
        scenario = scenario_factory(84)

        def run(lookahead, with_spot):
            policy = scenario.target.clone()
            view = _PoolScenario(scenario, policy)
            view.drafter = scenario.drafter.clone()
            pool = _frontend(view)
            trainer = _trainer(
                scenario, policy, backend=RolloutScheduler(pool)
            )
            spot = spot_rng = None
            if with_spot:
                spot = SpotTrainer(
                    trainer=DrafterTrainer(
                        view.drafter,
                        DrafterTrainingConfig(learning_rate=5e-3),
                    ),
                    buffer=OnlineDataBuffer(capacity_tokens=50_000),
                    batch_sequences=4,
                    max_positions=64,
                )
                spot_rng = np.random.default_rng(7)
                slice_rngs = []
                train_slice = spot.train_slice

                def recording(max_updates, rng):
                    slice_rngs.append(rng)
                    return train_slice(max_updates, rng)

                monkeypatch.setattr(spot, "train_slice", recording)
            loop = ColocatedLoop(
                trainer, spot=spot, spot_updates_per_round=2,
                spot_rng=spot_rng,
            )
            loop.run(3, lookahead=lookahead)
            if with_spot:
                assert len(loop.published) == 3
                assert all(rng is spot_rng for rng in slice_rngs)
                assert spot_rng.bit_generator.state != (
                    np.random.default_rng(7).bit_generator.state
                )
            requests = [
                (i, r.request.seed, r.request.prompt)
                for i, r in sorted(pool.records.items())
            ]
            return requests, trainer.rng.bit_generator.state

        sequential, rng_state = run(0, with_spot=True)
        pipelined, piped_rng_state = run(1, with_spot=True)
        assert len(sequential) == 12
        assert pipelined == sequential
        assert piped_rng_state == rng_state
        assert run(0, with_spot=False) == (sequential, rng_state)


class _CountingNgram(NgramDrafter):
    """An n-gram drafter that counts the rollout batches it ingests."""

    def __init__(self, vocab_size):
        super().__init__(NgramDrafterConfig(vocab_size=vocab_size))
        self.fed = 0

    def observe_rollouts(self, sequences):
        self.fed += 1
        super().observe_rollouts(sequences)


class TestModelFreeFeed:
    def test_collect_feeds_each_model_free_drafter_once(
        self, scenario_factory
    ):
        """TLT-Base's retrieval database learns from pool rollouts:
        every collected batch reaches each distinct non-trainable
        drafter installed on the pool exactly once."""
        scenario = scenario_factory(84)
        policy = scenario.target.clone()
        vocab = policy.config.vocab_size
        shared, specialist = _CountingNgram(vocab), _CountingNgram(vocab)
        pool = ServingEngine(
            policy, shared, num_workers=3, strategy=scenario.strategy,
            temperature=scenario.temperature, max_batch_size=2,
        )
        pool.swap_worker_drafter(2, specialist)
        trainer = _trainer(scenario, policy, backend=RolloutScheduler(pool))
        ColocatedLoop(trainer).run(2)
        assert shared.fed == specialist.fed == 2
        assert shared.num_contexts > 0


# -- per-worker swaps ------------------------------------------------------


class TestWorkerSwap:
    def test_targeted_swap_applies_next_tick(
        self, scenario_factory, untrained_drafter
    ):
        scenario = scenario_factory(85)
        engine = _frontend(scenario)
        before = engine.workers[0].engine.drafter
        engine.swap_worker_drafter(1, untrained_drafter)
        assert engine.swap_in_progress
        engine.tick()
        assert engine.workers[1].engine.drafter is untrained_drafter
        assert engine.workers[0].engine.drafter is before
        assert engine.worker_swaps == 1
        assert engine.drafter_swaps == 0
        assert not engine.swap_in_progress

    def test_latest_targeted_swap_wins(
        self, scenario_factory, untrained_drafter, trained_drafter
    ):
        scenario = scenario_factory(86)
        engine = _frontend(scenario)
        engine.swap_worker_drafter(0, untrained_drafter)
        engine.swap_worker_drafter(0, trained_drafter)
        engine.tick()
        assert engine.workers[0].engine.drafter is trained_drafter
        assert engine.worker_swaps == 1
        assert not engine.swap_in_progress

    def test_pool_roll_supersedes_targeted(
        self, scenario_factory, untrained_drafter, trained_drafter
    ):
        scenario = scenario_factory(87)
        engine = _frontend(scenario)
        engine.swap_worker_drafter(1, untrained_drafter)
        engine.swap_drafter(trained_drafter)  # pool-wide roll
        engine.tick()
        engine.tick()
        for worker in engine.workers:
            assert worker.engine.drafter is trained_drafter
        assert engine.drafter_swaps == 1
        assert engine.worker_swaps == 0

    def test_swap_validation(
        self, scenario_factory, untrained_drafter
    ):
        scenario = scenario_factory(88)
        engine = _frontend(scenario)
        with pytest.raises(ServingError):
            engine.swap_worker_drafter(7, untrained_drafter)
        with pytest.raises(ServingError):
            engine.swap_worker_drafter(0, object())


# -- segment dispatch ------------------------------------------------------


class _StubWorker:
    def __init__(self, backlog):
        self.backlog_tokens = backlog


class _StubRequest:
    def __init__(self, segment):
        self.segment = segment
        self.prompt = [5, 6]
        self.predicted_length = 4


class TestSegmentAffinityDispatch:
    def test_routes_by_placement_map(self):
        placement = {"a": 1}
        policy = SegmentAffinityDispatch(placement)
        workers = [_StubWorker(0), _StubWorker(100)]
        # Tagged + mapped: the home worker wins despite its load.
        assert policy.choose(_StubRequest("a"), workers) == 1
        # Untagged and unmapped fall through to least-loaded.
        assert policy.choose(_StubRequest(None), workers) == 0
        assert policy.choose(_StubRequest("zzz"), workers) == 0
        # The map is live: the zoo can re-place mid-run.
        placement["a"] = 0
        assert policy.choose(_StubRequest("a"), workers) == 0

    def test_stale_placement_falls_back(self):
        policy = SegmentAffinityDispatch({"a": 9})
        workers = [_StubWorker(3), _StubWorker(1)]
        assert policy.choose(_StubRequest("a"), workers) == 1


# -- the zoo ---------------------------------------------------------------


def _report(accepted, drafted):
    return ServingReport(
        records=[], ticks=0.0,
        worker_counters=[
            WorkerCounters(
                segment_accepted=dict(accepted),
                segment_drafted=dict(drafted),
            )
        ],
    )


class TestDrafterZoo:
    def _zoo(self, trained, untrained, **kwargs):
        defaults = dict(
            arms={"shared": trained, "spec": untrained},
            segments=["seg0", "seg1"],
            epsilon=0.0,
        )
        defaults.update(kwargs)
        return DrafterZoo(**defaults)

    def test_validation(self, trained_drafter, untrained_drafter):
        with pytest.raises(ConfigError):
            DrafterZoo(arms={}, segments=["a"])
        with pytest.raises(ConfigError):
            DrafterZoo(
                arms={"x": trained_drafter}, segments=[]
            )
        with pytest.raises(ConfigError):
            DrafterZoo(
                arms={"x": trained_drafter}, segments=["a", "a"]
            )
        with pytest.raises(ConfigError):
            DrafterZoo(
                arms={"x": trained_drafter}, segments=["a"],
                epsilon=1.5,
            )
        with pytest.raises(ConfigError):
            DrafterZoo(arms={"x": object()}, segments=["a"])
        with pytest.raises(ConfigError):
            DrafterZoo(
                arms={"x": trained_drafter}, segments=["a"],
                window=0,
            )

    def test_place_round_robin_and_publish(
        self, scenario_factory, trained_drafter, untrained_drafter
    ):
        scenario = scenario_factory(90)
        engine = _frontend(scenario)  # 2 workers
        zoo = self._zoo(trained_drafter, untrained_drafter)
        placement = zoo.place(engine)
        assert placement == {"seg0": 0, "seg1": 1}
        assert zoo.home_worker("seg0") == 0
        # Both segments published their (unexplored-first) arm.
        assert zoo.publications == 2
        with pytest.raises(Exception):
            zoo.home_worker("nope")

    def test_unexplored_first_then_exploit(
        self, trained_drafter, untrained_drafter
    ):
        zoo = self._zoo(trained_drafter, untrained_drafter)
        # No data: alphabetically-first unexplored arm.
        assert zoo.select("seg0") == "shared"
        bandit = zoo._bandits["seg0"]
        bandit.windows["shared"].append(0.5)
        # One arm still unexplored: it goes next.
        assert zoo.select("seg0") == "spec"
        bandit.windows["spec"].append(0.9)
        # Both explored: best window mean wins.
        assert zoo.select("seg0") == "spec"
        bandit.windows["spec"].append(0.0)
        bandit.windows["spec"].append(0.0)
        assert zoo.select("seg0") == "shared"

    def test_observe_report_scores_deltas(
        self, scenario_factory, trained_drafter, untrained_drafter
    ):
        scenario = scenario_factory(91)
        engine = _frontend(scenario)
        zoo = self._zoo(trained_drafter, untrained_drafter)
        zoo.place(engine)
        current = zoo._bandits["seg0"].current_arm
        zoo.observe_report(
            _report({"seg0": 5, "seg1": 0}, {"seg0": 10, "seg1": 0})
        )
        window = zoo._bandits["seg0"].windows[current]
        assert list(window) == [0.5]
        # seg1 had no drafted tokens: no evidence, no score.
        seg1_arm = zoo._bandits["seg1"].current_arm
        assert zoo._bandits["seg1"].windows[seg1_arm].is_empty
        # Cumulative counters: only the delta is scored.
        zoo.observe_report(
            _report({"seg0": 14, "seg1": 2}, {"seg0": 20, "seg1": 2})
        )
        assert list(window) == [0.5, 0.9]
        assert list(
            zoo._bandits["seg1"].windows[seg1_arm]
        ) == [1.0]

    def test_publish_skips_noop_swaps(
        self, scenario_factory, trained_drafter, untrained_drafter
    ):
        scenario = scenario_factory(92)
        engine = _frontend(scenario)
        zoo = self._zoo(trained_drafter, untrained_drafter)
        zoo.place(engine)
        published = zoo.publications
        # Re-publishing the same selection must not churn the queue.
        zoo._bandits["seg0"].windows["shared"].append(0.9)
        zoo._bandits["seg0"].windows["spec"].append(0.1)
        # Drain pending swaps so current_arm reflects reality.
        engine.tick()
        engine.tick()
        before = engine.worker_swaps
        choice = zoo.publish(engine, "seg0")
        assert choice == "shared"
        assert zoo.publications == published  # no-op skipped
        engine.tick()
        assert engine.worker_swaps == before

    def test_refresh_arm_clears_and_republishes(
        self, scenario_factory, trained_drafter, untrained_drafter
    ):
        scenario = scenario_factory(93)
        engine = _frontend(scenario)
        zoo = self._zoo(trained_drafter, untrained_drafter)
        zoo.place(engine)
        for _ in range(2):
            engine.tick()
        hosted = {
            seg: zoo._bandits[seg].current_arm
            for seg in zoo.segments
        }
        zoo._bandits["seg0"].windows[hosted["seg0"]].append(0.4)
        fresh = scenario.drafter  # any hot-swappable drafter object
        zoo.refresh_arm(engine, hosted["seg0"], fresh)
        assert zoo.refreshes == 1
        assert zoo.arms[hosted["seg0"]] is fresh
        # Old scores described the old weights.
        for seg in zoo.segments:
            assert zoo._bandits[seg].windows[
                hosted["seg0"]
            ].is_empty
        # Republished to the hosting worker.
        engine.tick()
        engine.tick()
        home = zoo.home_worker("seg0")
        assert engine.workers[home].engine.drafter is fresh
        with pytest.raises(Exception):
            zoo.refresh_arm(engine, "unknown", fresh)

    def test_snapshot_shape(
        self, trained_drafter, untrained_drafter
    ):
        zoo = self._zoo(trained_drafter, untrained_drafter)
        zoo.select("seg0")
        snap = zoo.snapshot()
        assert set(snap) == {"seg0", "seg1"}
        row = snap["seg0"]
        assert row["selections"] == 1.0
        assert "mean_accept[shared]" in row
        assert "observations[spec]" in row
