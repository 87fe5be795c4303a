"""Tests for the fluid rollout simulator and adaptive SD manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hardware import RooflineModel, get_gpu, get_model
from repro.rollout import (
    AdaptiveSdConfig,
    AdaptiveSdManager,
    MeasuredAcceptance,
    ParametricAcceptance,
    RolloutEngine,
)
from repro.rollout import acceptance, adaptive
from repro.rollout.adaptive import SWITCH_OVERHEAD_S
from repro.rollout.engine import PROMPT_TOKENS
from repro.specdec import SdStrategy


@pytest.fixture()
def roofline():
    return RooflineModel(
        model=get_model("Qwen2.5-7B"), gpu=get_gpu("H100"),
        tensor_parallel=4,
    )


def long_tail_lengths(rng, n=64, cap=16000):
    from repro.workload import LognormalLengths

    return LognormalLengths(median=1500, sigma=1.1, cap=cap).sample(
        rng, n
    ).tolist()


class TestAcceptanceModels:
    def test_parametric_monotone_in_depth(self):
        model = ParametricAcceptance()
        accepts = [
            model.accept_length(
                SdStrategy(draft_depth=d, topk=8, tokens_to_verify=64),
                1,
            )
            for d in [2, 4, 8, 16]
        ]
        assert accepts == sorted(accepts)

    def test_parametric_saturates(self):
        """Figure 13(a): gains taper once depth is large."""
        model = ParametricAcceptance()
        gain_early = model.accept_length(
            SdStrategy(draft_depth=8, topk=8, tokens_to_verify=64), 1
        ) - model.accept_length(
            SdStrategy(draft_depth=4, topk=8, tokens_to_verify=64), 1
        )
        gain_late = model.accept_length(
            SdStrategy(draft_depth=16, topk=8, tokens_to_verify=64), 1
        ) - model.accept_length(
            SdStrategy(draft_depth=12, topk=8, tokens_to_verify=64), 1
        )
        assert gain_late < gain_early

    def test_quality_scales_acceptance(self):
        strategy = SdStrategy(draft_depth=8, topk=8, tokens_to_verify=48)
        fresh = ParametricAcceptance(drafter_quality=1.0)
        stale = ParametricAcceptance(drafter_quality=0.5)
        assert (
            stale.accept_length(strategy, 1)
            < fresh.accept_length(strategy, 1)
        )

    def test_never_exceeds_verify_budget(self, monkeypatch):
        monkeypatch.setattr(acceptance, "E_MAX", 100.0)
        model = ParametricAcceptance()
        strategy = SdStrategy(draft_depth=30, topk=2, tokens_to_verify=4)
        assert model.accept_length(strategy, 1) <= 5.0

    def test_measured_lookup_and_default(self):
        strategy = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8)
        model = MeasuredAcceptance({(4, 2, 8): 3.5})
        assert model.accept_length(strategy, 1) == 3.5
        other = SdStrategy(draft_depth=6, topk=2, tokens_to_verify=8)
        with pytest.raises(ConfigError):
            model.accept_length(other, 1)
        with_default = MeasuredAcceptance({(4, 2, 8): 3.5}, default=2.0)
        assert with_default.accept_length(other, 1) == 2.0


class TestAdaptiveManager:
    def test_elastic_threshold(self):
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=32)
        )
        assert not manager.should_use_sd(100)
        assert manager.should_use_sd(32)
        assert manager.should_use_sd(1)

    def test_switch_overhead_paid_once(self):
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=32)
        )
        assert manager.engage(16) == SWITCH_OVERHEAD_S == 3.0
        assert manager.engage(8) == 0.0
        manager.reset()
        assert manager.engage(16) == SWITCH_OVERHEAD_S

    def test_engage_above_threshold_raises(self):
        """engage() outside the elastic rule is a caller bug, not a
        silent zero-overhead no-op."""
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=8)
        )
        with pytest.raises(ConfigError):
            manager.engage(100)
        assert manager.activations == 0

    def test_engage_raises_even_when_already_active(self):
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=8)
        )
        assert manager.engage(8) == 3.0
        with pytest.raises(ConfigError):
            manager.engage(9)
        assert manager.activations == 1


class TestRolloutEngine:
    def test_vanilla_profile_monotone(self, roofline):
        engine = RolloutEngine(roofline)
        rng = np.random.default_rng(0)
        timeline = engine.simulate(long_tail_lengths(rng))
        actives = [p.active_requests for p in timeline.points]
        assert actives == sorted(actives, reverse=True)
        assert actives[-1] == 0
        times = [p.time_s for p in timeline.points]
        assert times == sorted(times)

    def test_total_tokens(self, roofline):
        engine = RolloutEngine(roofline)
        lengths = [10, 20, 30]
        timeline = engine.simulate(lengths)
        assert timeline.total_tokens == 60
        assert timeline.prompt_tokens == 3 * PROMPT_TOKENS

    def test_sd_accelerates_long_tail(self, roofline):
        rng = np.random.default_rng(0)
        lengths = long_tail_lengths(rng)
        vanilla = RolloutEngine(roofline).simulate(lengths)
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=32)
        )
        adaptive = RolloutEngine(
            roofline, sd_manager=manager
        ).simulate(lengths)
        assert adaptive.total_time_s < vanilla.total_time_s
        assert adaptive.sd_start_s is not None

    def test_sd_starts_at_threshold(self, roofline):
        """Figure 14: SD engages when actives cross the threshold."""
        rng = np.random.default_rng(1)
        lengths = long_tail_lengths(rng, n=128)
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=32)
        )
        timeline = RolloutEngine(
            roofline, sd_manager=manager
        ).simulate(lengths)
        assert timeline.sd_start_s is not None
        for point in timeline.points:
            if point.time_s < timeline.sd_start_s:
                assert point.active_requests > 32 or not point.sd_active

    def test_benefit_guard_blocks_useless_sd(self, roofline):
        """With accept length 1 SD can never pay; the engine must fall
        back to vanilla and finish in the same time."""
        vanilla = RolloutEngine(roofline).simulate([100] * 8)
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(
                activation_threshold=100,
                acceptance=MeasuredAcceptance({}, default=1.0),
            )
        )
        guarded = RolloutEngine(
            roofline, sd_manager=manager
        ).simulate([100] * 8)
        assert guarded.total_time_s == pytest.approx(
            vanilla.total_time_s, rel=1e-6
        )
        assert guarded.sd_cycles == 0

    def test_empty_lengths_raise(self, roofline):
        with pytest.raises(ConfigError):
            RolloutEngine(roofline).simulate([])

    def test_mab_feedback_recorded(self, roofline):
        rng = np.random.default_rng(2)
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=64)
        )
        RolloutEngine(roofline, sd_manager=manager).simulate(
            long_tail_lengths(rng, n=32)
        )
        snapshot = manager.selector.snapshot()
        assert any(v["observations"] > 0 for v in snapshot.values())


class _CountingSelector:
    """StrategySelector wrapper counting record() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.records = 0

    def select(self, batch_size):
        return self.inner.select(batch_size)

    def record(self, strategy, elapsed_time, accept_lengths, batch_size):
        self.records += 1
        self.inner.record(
            strategy, elapsed_time, accept_lengths, batch_size
        )

    def snapshot(self):
        return self.inner.snapshot()


class TestSimulatorBugfixes:
    """Regression tests for the sd_start / bandit-feedback fixes."""

    def test_zero_switch_overhead_still_marks_sd_active(
        self, roofline, monkeypatch
    ):
        """With a zero switch overhead the timeline must still report
        when SD engaged (sd_start_s was previously left None forever)."""
        rng = np.random.default_rng(3)
        monkeypatch.setattr(adaptive, "SWITCH_OVERHEAD_S", 0.0)
        manager = AdaptiveSdManager(AdaptiveSdConfig(activation_threshold=32))
        timeline = RolloutEngine(
            roofline, sd_manager=manager
        ).simulate(long_tail_lengths(rng))
        assert manager.activations == 1
        assert timeline.sd_start_s is not None
        assert any(p.sd_active for p in timeline.points)

    def test_sd_start_matches_nonzero_overhead_run(
        self, roofline, monkeypatch
    ):
        """Zero and nonzero overhead runs engage at the same moment."""
        lengths = long_tail_lengths(np.random.default_rng(4))

        def run(overhead):
            monkeypatch.setattr(adaptive, "SWITCH_OVERHEAD_S", overhead)
            manager = AdaptiveSdManager(AdaptiveSdConfig(activation_threshold=32))
            return RolloutEngine(roofline, sd_manager=manager).simulate(lengths)

        with_overhead = run(3.0)
        without = run(0.0)
        assert without.sd_start_s == pytest.approx(
            with_overhead.sd_start_s
        )
        # The zero-overhead run finishes exactly the overhead earlier.
        assert without.total_time_s == pytest.approx(
            with_overhead.total_time_s - 3.0
        )

    def test_bandit_ignores_skipped_cycles(self, roofline):
        """When the payoff guard vetoes SD, the vetoed cycle must not be
        recorded (it never executed)."""
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(
                activation_threshold=100,
                acceptance=MeasuredAcceptance({}, default=1.0),
            )
        )
        timeline = RolloutEngine(
            roofline, sd_manager=manager
        ).simulate([100] * 8)
        assert timeline.sd_cycles == 0
        snapshot = manager.selector.snapshot()
        assert all(v["observations"] == 0 for v in snapshot.values())

    def test_bandit_window_matches_executed_segments(self, roofline):
        """Every record() corresponds to one executed SD segment."""
        from repro.tuner.mab import BegMabSelector
        from repro.specdec import default_strategy_pool

        pool = default_strategy_pool()
        counting = _CountingSelector(
            BegMabSelector(pool, [1, 4, 8, 16])
        )
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(
                activation_threshold=64, selector=counting
            )
        )
        lengths = [100, 200, 300, 400, 500, 600, 700, 800]
        timeline = RolloutEngine(
            roofline, sd_manager=manager
        ).simulate(lengths)
        # Distinct lengths => one decode segment per completion; SD pays
        # at these small batches, so every segment records exactly once.
        assert timeline.sd_cycles > 0
        assert counting.records == len(lengths)
        total_obs = sum(
            v["observations"]
            for v in counting.snapshot().values()
        )
        assert total_obs == counting.records
