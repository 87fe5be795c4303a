"""Tests for the RL training loop (GRPO)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.drafter import EagleDrafter, EagleDrafterConfig
from repro.llm import TinyLM, TinyLMConfig
from repro.llm.vocab import Vocabulary
from repro.longtail import RolloutScheduler, SchedulerMode
from repro.rl import RlConfig, RlTrainer
from repro.rollout import AdaptiveSdConfig, AdaptiveSdManager
from repro.serving import ServingEngine
from repro.specdec import SdStrategy, speculative_generate
from repro.specdec.batch_engine import BatchedSpecDecodeEngine
from repro.tuner import StaticSelector
from repro.workload import SuccessorChainTask

from conftest import drain, seeded_requests


def make_policy(seed=0):
    cfg = TinyLMConfig(
        vocab_size=24, hidden_size=20, context_window=4, num_layers=3,
        init_scale=1.0,
    )
    return TinyLM(cfg, np.random.default_rng(seed))


def make_task():
    return SuccessorChainTask(vocab=Vocabulary(24), target_pairs=8)


def vanilla(policy, temperature=1.0):
    """The SD-off pool: every cycle decodes vanilla, no drafter."""
    return RolloutScheduler(
        ServingEngine(policy, None, temperature=temperature)
    )


def vanilla_trainer(policy, config, seed):
    return RlTrainer(
        policy, make_task(), config,
        backend=vanilla(policy, config.temperature),
        rng=np.random.default_rng(seed),
    )


def small_config(**overrides):
    base = dict(
        num_prompts=4, group_size=6, max_new_tokens=20,
        temperature=1.0, learning_rate=5e-3, kl_coef=0.002,
    )
    base.update(overrides)
    return RlConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_prompts=0),
            dict(group_size=0),
            dict(max_new_tokens=0),
            dict(temperature=0.0),
            dict(learning_rate=0.0),
            dict(kl_coef=-1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            small_config(**kwargs)


class TestTrainerMechanics:
    def test_step_report_fields(self):
        trainer = vanilla_trainer(make_policy(), small_config(), 0)
        report = trainer.step()
        assert 0.0 <= report.mean_reward <= 1.0
        assert report.max_response_length <= 20
        assert report.target_steps > 0
        assert trainer.steps_done == 1

    def test_reference_model_frozen(self):
        trainer = vanilla_trainer(make_policy(), small_config(), 0)
        ref_before = trainer.reference.params.copy()
        trainer.run(3)
        assert trainer.reference.params.max_abs_diff(ref_before) == 0.0
        assert (
            trainer.policy.params.max_abs_diff(ref_before) > 0.0
        )

    def test_learning_improves_reward(self):
        """GRPO must genuinely learn the successor-chain task."""
        trainer = vanilla_trainer(
            make_policy(),
            small_config(num_prompts=8, group_size=8,
                         max_new_tokens=28, learning_rate=6e-3),
            1,
        )
        reports = trainer.run(120)
        first = np.mean([r.mean_reward for r in reports[:10]])
        last = np.mean([r.mean_reward for r in reports[-10:]])
        assert last > first + 0.05

    def test_kl_grows_from_zero(self):
        trainer = vanilla_trainer(make_policy(), small_config(), 0)
        reports = trainer.run(5)
        assert reports[0].kl_value == pytest.approx(0.0, abs=1e-6)
        assert reports[-1].kl_value > 0.0

    def test_one_epoch_is_two_forwards_and_one_backward(self):
        """One step's update scores the responses once under the
        reference and once under the policy, then backpropagates once:
        the single on-policy epoch."""
        trainer = vanilla_trainer(make_policy(), small_config(), 0)
        calls = []

        def counted(model, name):
            method = getattr(model, name)

            def wrapper(*args, **kwargs):
                calls.append((model, name))
                return method(*args, **kwargs)

            setattr(model, name, wrapper)

        counted(trainer.reference, "forward")
        counted(trainer.policy, "forward")
        counted(trainer.policy, "backward")
        trainer.step()
        assert calls == [
            (trainer.reference, "forward"),
            (trainer.policy, "forward"),
            (trainer.policy, "backward"),
        ]

    def test_step_without_backend_or_rollout_raises(self):
        """The trainer builds no pool of its own: with no backend, a
        rollout must be injected, and the RNG is left undrawn."""
        trainer = RlTrainer(
            make_policy(), make_task(), small_config(),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ConfigError):
            trainer.step()
        with pytest.raises(ConfigError):
            trainer.run(1)
        assert trainer.steps_done == 0
        assert trainer.rng.random() == np.random.default_rng(0).random()


class TestSpeculativeBackend:
    """The speculative backend is a one-worker serving pool."""

    PROMPTS = [[5, 6, 7], [9, 10], [5, 6, 7], [11, 12, 13, 14]]
    STRATEGY = SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)

    def _drafter(self, policy):
        return EagleDrafter(
            policy, EagleDrafterConfig(), np.random.default_rng(3)
        )

    def _backend(
        self, policy, drafter, temperature,
        mode=SchedulerMode.TAIL_FIRST, **pool,
    ):
        pool.setdefault("strategy", self.STRATEGY)
        return RolloutScheduler(
            ServingEngine(
                policy, drafter, num_workers=1, temperature=temperature,
                **pool,
            ),
            mode=mode,
        )

    def test_sd_backend_runs_and_reports(self):
        policy = make_policy()
        backend = self._backend(policy, self._drafter(policy), 1.0)
        trainer = RlTrainer(
            policy, make_task(), small_config(num_prompts=2, group_size=4),
            backend=backend, rng=np.random.default_rng(0),
        )
        report = trainer.step()
        assert report.target_steps > 0
        assert report.rollout_stats["rollout_tokens"] == sum(
            trainer.last_rollout.response_lengths
        )
        metrics = backend.engine.workers[0].engine.metrics
        assert metrics.mean_accept_length >= 1.0

    def test_static_backend_is_speculative_generate(self):
        """Both modes decode what a bare engine stepped alone decodes
        (speculative_generate's one-worker pool does too); FIFO also
        spends the same target launches."""
        policy = make_policy()
        drafter = self._drafter(policy)
        reference = drain(
            BatchedSpecDecodeEngine(
                policy, drafter, self.STRATEGY, 0.9, max_batch_size=2
            ),
            seeded_requests(self.PROMPTS, 16, np.random.default_rng(21)),
        )
        assert speculative_generate(
            policy, drafter, self.PROMPTS, 16, 0.9,
            np.random.default_rng(21), self.STRATEGY, max_batch_size=2,
        ).responses == reference.responses
        for mode in SchedulerMode:
            out = self._backend(
                policy, drafter, 0.9, mode, max_batch_size=2
            ).generate(
                policy, self.PROMPTS, 16, 0.9, np.random.default_rng(21)
            )
            assert out.responses == reference.responses
            assert out.prompts == reference.prompts
            assert out.finished == reference.finished
            if mode is SchedulerMode.FIFO:
                assert out.target_steps == reference.target_steps

    def test_adaptive_backend_is_the_managed_engine(self):
        policy = make_policy()
        drafter = self._drafter(policy)
        config = AdaptiveSdConfig(
            activation_threshold=3, selector=StaticSelector(self.STRATEGY)
        )
        reference = drain(
            BatchedSpecDecodeEngine(
                policy, drafter, None, 0.9,
                sd_manager=AdaptiveSdManager(config),
            ),
            seeded_requests(self.PROMPTS, 16, np.random.default_rng(22)),
        )
        for mode in SchedulerMode:
            backend = self._backend(
                policy, drafter, 0.9, mode, strategy=None,
                sd_managers=[AdaptiveSdManager(config)],
            )
            out = backend.generate(
                policy, self.PROMPTS, 16, 0.9, np.random.default_rng(22)
            )
            assert out.responses == reference.responses
            assert out.prompts == reference.prompts
            assert out.finished == reference.finished
            if mode is SchedulerMode.FIFO:
                assert out.target_steps == reference.target_steps
                reports = backend.engine.workers[0].engine.cycle_reports
                assert [r.sd_active for r in reports] == [
                    r.sd_active for r in reference.cycle_reports
                ]
        assert not all(r.sd_active for r in reference.cycle_reports)

    def test_sd_and_vanilla_learning_curves_similar(self):
        """Figure 12's claim at miniature scale: same-seed prompt streams
        with vanilla vs speculative rollouts learn equally well."""
        def run(backend_factory, seed):
            policy = make_policy(seed=7)
            backend = backend_factory(policy)
            trainer = RlTrainer(
                policy, make_task(),
                small_config(num_prompts=6, group_size=6,
                             max_new_tokens=24, learning_rate=6e-3),
                backend=backend, rng=np.random.default_rng(seed),
            )
            reports = trainer.run(25)
            return np.mean([r.mean_reward for r in reports[-5:]])

        vanilla_score = run(vanilla, seed=11)

        def sd_backend(policy):
            drafter = EagleDrafter(
                policy, EagleDrafterConfig(), np.random.default_rng(5)
            )
            return self._backend(policy, drafter, 1.0)

        sd_score = run(sd_backend, seed=11)
        assert abs(sd_score - vanilla_score) < 0.15


def test_rl_package_does_not_load_the_serving_stack():
    """Layering: ``repro.rl`` sits below ``repro.serving`` and
    ``repro.longtail`` (rollouts ride a pool up there, so the trainer
    has no default backend), so importing it alone must load neither."""
    probe = (
        "import sys, repro.rl; "
        "print([m for m in sys.modules if m.startswith("
        "('repro.serving', 'repro.longtail'))])"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
