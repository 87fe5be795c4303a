"""Tests for rollouts on the serving pool and the co-located loop.

The closed serving <-> RL integration:
:class:`~repro.longtail.RolloutScheduler`, as the trainer's rollout
backend, round-trips GRPO rollout groups through a shared
:class:`~repro.serving.frontend.ServingEngine` as BATCH-class traffic
(every backend contract here holds under both scheduler modes), and
:class:`~repro.longtail.ColocatedLoop` /
:meth:`~repro.systems.tlt.TltSystem.colocated_system` close the loop
with spot drafter refresh published pool-wide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.drafter import DrafterTrainer, DrafterTrainingConfig
from repro.errors import ConfigError, ServingError
from repro.hardware import get_gpu, get_model
from repro.llm.vocab import BOS_ID, Vocabulary
from repro.longtail import (
    ColocatedLoop,
    RolloutScheduler,
    SchedulerMode,
    group_tags,
)
from repro.rl import RlConfig, RlTrainer
from repro.serving import (
    BATCH,
    INTERACTIVE,
    RequestState,
    RoundRobinDispatch,
    ServingEngine,
    SloPreemption,
)
from repro.spot import OnlineDataBuffer, SpotTrainer
from repro.systems import TltSystem
from repro.workload import SuccessorChainTask, mixed_serving_trace


def _frontend(scenario, num_workers=2, max_batch_size=2, **kwargs):
    return ServingEngine(
        scenario.target, scenario.drafter, num_workers=num_workers,
        strategy=scenario.strategy, temperature=scenario.temperature,
        max_batch_size=max_batch_size, **kwargs,
    )


@pytest.fixture(params=list(SchedulerMode), ids=lambda m: m.value)
def mode(request):
    return request.param


class TestGroupTags:
    def test_grpo_expanded_runs(self):
        prompts = [[1, 2]] * 3 + [[3]] * 2 + [[1, 2]]
        # Consecutive identical prompts group; a repeat later is a NEW
        # group (GRPO expansion is group-major).
        assert group_tags(prompts) == [0, 0, 0, 1, 1, 2]

    def test_empty_and_singleton(self):
        assert group_tags([]) == []
        assert group_tags([[5]]) == [0]

    def test_explicit_group_size_beats_prompt_collisions(self):
        # Two adjacent groups that sampled the SAME prompt: adjacency
        # inference would merge them, the explicit shape does not.
        prompts = [[7, 7]] * 4
        assert group_tags(prompts) == [0, 0, 0, 0]
        assert group_tags(prompts, group_size=2) == [0, 0, 1, 1]
        with pytest.raises(ConfigError):
            group_tags(prompts, group_size=3)  # does not divide 4
        with pytest.raises(ConfigError):
            group_tags(prompts, group_size=0)


class TestSchedulerAsBackend:
    def test_validates_slo_policy_and_temperature(
        self, scenario_factory, mode
    ):
        scenario = scenario_factory(40)
        frontend = _frontend(scenario)
        with pytest.raises(ConfigError):
            RolloutScheduler(frontend, mode=mode, max_ticks=0)
        backend = RolloutScheduler(frontend, mode=mode)
        other_policy = scenario.target.clone()
        with pytest.raises(ConfigError):
            backend.generate(
                other_policy, [[5, 6]], 4, scenario.temperature,
                np.random.default_rng(0),
            )
        with pytest.raises(ConfigError):
            backend.generate(
                scenario.target, [[5, 6]], 4,
                scenario.temperature + 0.1, np.random.default_rng(0),
            )

    def test_rollouts_ride_the_pool_as_batch_class(
        self, scenario_factory, mode
    ):
        scenario = scenario_factory(41)
        frontend = _frontend(scenario)
        backend = RolloutScheduler(frontend, mode=mode)
        prompts = [scenario.prompts[0]] * 2 + [scenario.prompts[1]] * 2
        result = backend.generate(
            scenario.target, prompts, 6, scenario.temperature,
            np.random.default_rng(1),
        )
        assert len(result.responses) == 4
        assert all(len(r) <= 6 for r in result.responses)
        # Prompts come back as decoded (BOS included), aligned with
        # the submission order.
        assert all(p[0] == BOS_ID for p in result.prompts)
        assert [p[1:] for p in result.prompts] == [
            list(p) for p in prompts
        ]
        records = list(frontend.records.values())
        assert all(r.request.slo is BATCH for r in records)
        assert all(r.state is RequestState.FINISHED for r in records)
        # Group tags: one per GRPO group, distinct between groups.
        groups = [r.request.group for r in records]
        assert groups[0] == groups[1] != groups[2] == groups[3]
        # finished flags mirror EOS-termination of each response.
        for flag, response in zip(result.finished, result.responses):
            assert flag == (
                bool(response) and response[-1] == 2  # EOS_ID
            )

    def test_successive_batches_get_fresh_ids_and_groups(
        self, scenario_factory, mode
    ):
        scenario = scenario_factory(42)
        frontend = _frontend(scenario)
        backend = RolloutScheduler(frontend, mode=mode)
        rng = np.random.default_rng(2)
        backend.generate(
            scenario.target, [scenario.prompts[0]] * 2, 4,
            scenario.temperature, rng,
        )
        backend.generate(
            scenario.target, [scenario.prompts[0]] * 2, 4,
            scenario.temperature, rng,
        )
        ids = sorted(frontend.records)
        assert ids == [0, 1, 2, 3]  # no collisions across batches
        groups = [frontend.records[i].request.group for i in ids]
        assert groups[0] == groups[1] != groups[2] == groups[3]

    def test_interactive_traffic_served_during_rollouts(
        self, scenario_factory, mode
    ):
        """The co-location contract: interactive arrivals preempt
        rollouts mid-generate and finish inside the rollout window."""
        scenario = scenario_factory(43)
        frontend = _frontend(
            scenario, preemption=SloPreemption(),
        )
        inter = scenario.serving_requests(
            arrival_gap=1.0,
            slos=[INTERACTIVE] * scenario.num_requests,
        )
        for request in inter:
            frontend.submit(request)
        backend = RolloutScheduler(frontend, mode=mode)
        prompts = [scenario.prompts[0]] * 4 + [scenario.prompts[1]] * 4
        result = backend.generate(
            scenario.target, prompts, 24, scenario.temperature,
            np.random.default_rng(3),
        )
        assert result.stats["preemptions"] > 0
        inter_records = [
            frontend.records[r.request_id] for r in inter
        ]
        assert all(
            r.state is RequestState.FINISHED for r in inter_records
        )
        # Per-class capacity accounting sees both classes.
        report = frontend.report()
        assert report.class_slot_cycles.get("batch", 0) > 0
        assert report.class_slot_cycles.get("interactive", 0) > 0
        utilization = report.class_utilization
        assert 0.0 < sum(utilization.values()) <= 1.0 + 1e-9
        per_class = report.per_class()
        assert per_class["batch"]["utilization"] > 0.0

    def test_cancelled_rollout_fails_loudly(self, scenario_factory, mode):
        """A rollout killed mid-batch must not silently corrupt the
        GRPO group."""
        scenario = scenario_factory(44)
        frontend = _frontend(scenario, num_workers=1)
        backend = RolloutScheduler(frontend, mode=mode)

        # Cancel one rollout as soon as it is submitted, from inside
        # the pool's own event loop (subscriber fires on dispatch).
        cancelled = []

        def kill_first(event) -> None:
            if not cancelled and event.request_id is not None:
                cancelled.append(event.request_id)
                frontend.cancel(event.request_id)

        frontend.subscribe(kill_first)
        with pytest.raises(ServingError):
            backend.generate(
                scenario.target, [scenario.prompts[0]] * 2, 6,
                scenario.temperature, np.random.default_rng(4),
            )


class TestGroupAffinity:
    def test_groups_land_on_one_worker(self, scenario_factory, mode):
        scenario = scenario_factory(45)
        frontend = _frontend(
            scenario, num_workers=2, max_batch_size=4,
            dispatch=RoundRobinDispatch(), group_affinity=True,
            work_stealing=False,
        )
        backend = RolloutScheduler(frontend, mode=mode)
        prompts = (
            [scenario.prompts[0]] * 3 + [scenario.prompts[1]] * 3
        )
        backend.generate(
            scenario.target, prompts, 4, scenario.temperature,
            np.random.default_rng(5),
        )
        workers_by_group = {}
        for record in frontend.records.values():
            workers_by_group.setdefault(
                record.request.group, set()
            ).add(record.worker_id)
        assert len(workers_by_group) == 2
        # Every member of a group decoded on the group's worker even
        # though round-robin would have striped them.
        assert all(
            len(workers) == 1
            for workers in workers_by_group.values()
        )
        # Affinity state is released once a group fully resolves, so a
        # long-lived pool does not accumulate one pin per group.
        assert frontend._group_worker == {}
        assert frontend._group_pending == {}

    def test_affinity_off_stripes_groups(self, scenario_factory, mode):
        scenario = scenario_factory(45)
        frontend = _frontend(
            scenario, num_workers=2, max_batch_size=4,
            dispatch=RoundRobinDispatch(), group_affinity=False,
            work_stealing=False,
        )
        backend = RolloutScheduler(frontend, mode=mode)
        prompts = (
            [scenario.prompts[0]] * 3 + [scenario.prompts[1]] * 3
        )
        backend.generate(
            scenario.target, prompts, 4, scenario.temperature,
            np.random.default_rng(5),
        )
        workers = {
            r.worker_id for r in frontend.records.values()
        }
        assert workers == {0, 1}


class TestMixedServingTrace:
    def test_classes_arrivals_and_groups(self):
        trace = mixed_serving_trace(
            np.random.default_rng(0), vocab_size=24,
            num_interactive=6, num_batch=6, batch_group_size=3,
        )
        assert len(trace) == 12
        arrivals = [r.arrival_time for r in trace]
        assert arrivals == sorted(arrivals)
        by_class = {r.slo.name for r in trace}
        assert by_class == {"interactive", "batch"}
        batch = sorted(
            (r for r in trace if r.slo.name == "batch"),
            key=lambda r: r.request_id,
        )
        # Chunks of batch_group_size share group AND prompt.
        assert batch[0].group == batch[2].group != batch[3].group
        assert batch[0].prompt == batch[2].prompt
        assert all(r.group is None for r in trace
                   if r.slo.name == "interactive")

    def test_validation(self):
        with pytest.raises(ConfigError):
            mixed_serving_trace(
                np.random.default_rng(0), vocab_size=24,
                num_interactive=0, num_batch=2,
            )
        with pytest.raises(ConfigError):
            mixed_serving_trace(
                np.random.default_rng(0), vocab_size=24,
                num_interactive=2, num_batch=2, batch_group_size=0,
            )


class TestColocatedLoop:
    def _system(self):
        return TltSystem(
            get_model("Qwen2.5-7B"),
            ClusterSpec(
                num_workers=2, gpus_per_worker=4, gpu=get_gpu("H100")
            ),
        )

    def test_colocated_system_closes_the_loop(
        self, scenario_factory, target, trained_drafter
    ):
        scenario = scenario_factory(50)
        vocab = Vocabulary(target.config.vocab_size)
        task = SuccessorChainTask(vocab=vocab, target_pairs=4)
        policy = target.clone()  # RL-trained in place by the loop
        drafter = trained_drafter.clone()
        drafter.target = policy  # head tied to the model being trained
        spot = SpotTrainer(
            trainer=DrafterTrainer(
                drafter, DrafterTrainingConfig(learning_rate=5e-3)
            ),
            buffer=OnlineDataBuffer(capacity_tokens=50_000),
            checkpoints=None,
            batch_sequences=4,
            max_positions=64,
        )
        loop = self._system().colocated_system(
            policy, drafter, task,
            RlConfig(
                num_prompts=2, group_size=2, max_new_tokens=8,
                temperature=0.9,
            ),
            num_workers=2, max_batch_size=2,
            strategy=scenario.strategy,
            spot_trainer=spot, spot_updates_per_round=2,
            rl_rng=np.random.default_rng(1),
            spot_rng=np.random.default_rng(2),
        )
        # Interactive traffic rides the same pool across rounds.
        inter = scenario.serving_requests(
            arrival_gap=2.0,
            slos=[INTERACTIVE] * scenario.num_requests,
        )
        for request in inter:
            loop.frontend.submit(request)
        reports = loop.run(2)
        assert len(reports) == 2
        assert loop.trainer.steps_done == 2
        # Each round published a refreshed drafter pool-wide.
        assert len(loop.published) == 2
        final = loop.drain()
        assert loop.frontend.drafter_swaps == 2
        for worker in loop.frontend.workers:
            assert worker.engine.drafter is loop.published[-1]
        assert all(r.finished for r in final.records)
        # Both traffic classes shared the pool's capacity.
        assert final.class_slot_cycles.get("batch", 0) > 0
        assert final.class_slot_cycles.get("interactive", 0) > 0
        metrics = loop.metrics()
        assert metrics["rounds"] == 2.0
        assert metrics["published_drafters"] == 2.0
        assert "utilization_batch" in metrics

    def test_loop_rejects_foreign_backend(self, target):
        vocab = Vocabulary(target.config.vocab_size)
        task = SuccessorChainTask(vocab=vocab)
        trainer = RlTrainer(
            target, task,
            RlConfig(num_prompts=2, group_size=2, max_new_tokens=8,
                     temperature=0.9),
        )
        with pytest.raises(ConfigError):
            ColocatedLoop(trainer)

    def test_trainer_learns_through_the_pool(
        self, scenario_factory, target, mode
    ):
        """End to end: GRPO improves reward with rollouts generated by
        the shared pool (smoke-level, two steps)."""
        scenario = scenario_factory(52)
        policy = target.clone()
        frontend = ServingEngine(
            policy, scenario.drafter, num_workers=2,
            strategy=scenario.strategy, temperature=0.9,
            max_batch_size=2, preemption=SloPreemption(),
        )
        vocab = Vocabulary(policy.config.vocab_size)
        task = SuccessorChainTask(vocab=vocab, target_pairs=4)
        trainer = RlTrainer(
            policy, task,
            RlConfig(num_prompts=3, group_size=2, max_new_tokens=8,
                     temperature=0.9, learning_rate=5e-3),
            backend=RolloutScheduler(frontend, mode=mode),
            rng=np.random.default_rng(0),
        )
        reports = trainer.run(2)
        assert all(np.isfinite(r.mean_reward) for r in reports)
        assert all(
            r.rollout_stats["pool_ticks"] > 0 for r in reports
        )
        # 3 prompts x 2 = 6 rollouts per step, all resolved per step.
        assert len(frontend.records) == 12
        assert all(
            r.state is RequestState.FINISHED
            for r in frontend.records.values()
        )
