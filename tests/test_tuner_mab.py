"""Tests for the BEG-MAB selector (Algorithm 1) and baselines."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TunerError
from repro.specdec import SdStrategy
from repro.tuner import (
    BegMabSelector,
    PlainEpsilonGreedy,
    StaticSelector,
    StrategySelector,
    Ucb1Selector,
)
from repro.tuner.mab import EPSILON, WINDOW_SIZE

#: ``ScriptedRng.random()`` values: at or above EPSILON the selectors
#: exploit, below it they explore.
EXPLOIT, EXPLORE = 0.5, 0.0


class ScriptedRng:
    """Stands in for a selector's generator: ``random()`` always returns
    ``uniform`` and ``integers(n)`` plays ``picks`` in a cycle (mod n)."""

    def __init__(self, uniform, picks=(0,)):
        self.uniform = uniform
        self._picks = itertools.cycle(picks)

    def random(self):
        return self.uniform

    def integers(self, n):
        return next(self._picks) % n


def make_strategies():
    return [
        SdStrategy(draft_depth=8, topk=8, tokens_to_verify=48),
        SdStrategy(draft_depth=10, topk=8, tokens_to_verify=48),
        SdStrategy(draft_depth=6, topk=6, tokens_to_verify=16),
        SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8),
    ]


class TestRewardFormula:
    def test_algorithm1_lines_8_9(self):
        """reward = (sum(accepts)/batch + 1) * batch / elapsed."""
        reward, accept = StrategySelector.reward_of(
            elapsed_time=2.0, accept_lengths=[3.0, 5.0], batch_size=2
        )
        assert accept == pytest.approx(5.0)  # (8/2) + 1
        assert reward == pytest.approx(5.0 * 2 / 2.0)

    def test_validation(self):
        with pytest.raises(TunerError):
            StrategySelector.reward_of(0.0, [1.0], 1)
        with pytest.raises(TunerError):
            StrategySelector.reward_of(1.0, [1.0], 0)


class TestBegMab:
    def test_bucket_mapping(self):
        selector = BegMabSelector(
            make_strategies(), batch_thresholds=[1, 8, 32]
        )
        # Three verify groups: 48 -> [1,8), 16 -> [8,32), 8 -> [32,inf).
        assert all(
            s.tokens_to_verify == 48
            for s in selector.candidates(1)
        )
        assert all(
            s.tokens_to_verify == 16
            for s in selector.candidates(10)
        )
        assert all(
            s.tokens_to_verify == 8
            for s in selector.candidates(100)
        )

    def test_single_candidate_fixed(self):
        selector = BegMabSelector(
            make_strategies(), batch_thresholds=[1, 8, 32]
        )
        assert selector.select(100).tokens_to_verify == 8

    def test_exploitation_prefers_higher_median(self):
        strategies = make_strategies()
        selector = BegMabSelector(
            strategies, batch_thresholds=[1, 8, 32], rng=ScriptedRng(EXPLOIT)
        )
        good, bad = strategies[0], strategies[1]
        for _ in range(5):
            selector.record(good, 1.0, [4.0], 1)
            selector.record(bad, 2.0, [4.0], 1)
        for _ in range(10):
            assert selector.select(1) == good

    def test_unexplored_arms_tried_first(self):
        strategies = make_strategies()
        selector = BegMabSelector(
            strategies, batch_thresholds=[1, 8, 32], rng=ScriptedRng(EXPLOIT)
        )
        first = selector.select(1)
        selector.record(first, 1.0, [4.0], 1)
        second = selector.select(1)
        assert second != first  # the other 48-verify arm gets its turn

    def test_exploration_rate(self):
        strategies = make_strategies()
        selector = BegMabSelector(
            strategies, batch_thresholds=[1, 8, 32],
            rng=ScriptedRng(EXPLORE, picks=(0, 1)),
        )
        for s in strategies[:2]:
            selector.record(s, 1.0, [4.0], 1)
        seen = {selector.select(1) for _ in range(50)}
        assert len(seen) == 2  # pure exploration covers the bucket
        # A real generator explores an EPSILON share of the steps, half
        # of which land on the worse of the bucket's two arms.
        selector = BegMabSelector(
            strategies, batch_thresholds=[1, 8, 32],
            rng=np.random.default_rng(0),
        )
        good, bad = strategies[0], strategies[1]
        selector.record(good, 1.0, [4.0], 1)
        selector.record(bad, 2.0, [4.0], 1)
        picks = [selector.select(1) for _ in range(4000)]
        assert picks.count(bad) / len(picks) == pytest.approx(
            EPSILON / 2, abs=0.015
        )

    def test_sliding_window_adapts(self):
        """Old rewards age out: the bandit follows the drift (§5.2)."""
        strategies = make_strategies()
        selector = BegMabSelector(
            strategies, batch_thresholds=[1, 8, 32], rng=ScriptedRng(EXPLOIT)
        )
        fast, slow = strategies[0], strategies[1]
        for _ in range(WINDOW_SIZE):
            selector.record(fast, 1.0, [4.0], 1)
            selector.record(slow, 3.0, [4.0], 1)
        assert selector.select(1) == fast
        # Workload drifts: "fast" becomes slow.
        for _ in range(WINDOW_SIZE):
            selector.record(fast, 5.0, [4.0], 1)
            selector.record(slow, 1.0, [4.0], 1)
        assert selector.select(1) == slow

    def test_record_unknown_strategy_raises(self):
        selector = BegMabSelector(
            make_strategies(), batch_thresholds=[1, 8, 32]
        )
        rogue = SdStrategy(draft_depth=2, topk=2, tokens_to_verify=99)
        with pytest.raises(TunerError):
            selector.record(rogue, 1.0, [1.0], 1)

    def test_snapshot(self):
        selector = BegMabSelector(
            make_strategies(), batch_thresholds=[1, 8, 32]
        )
        strategy = make_strategies()[2]
        selector.record(strategy, 1.0, [2.0], 2)
        snap = selector.snapshot()
        assert snap[strategy.describe()]["observations"] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_thresholds=[]),
            dict(batch_thresholds=[8, 1]),
            dict(batch_thresholds=[1, 1]),
            dict(batch_thresholds=[0, 8]),
            dict(batch_thresholds=[1]),  # fewer buckets than groups
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(TunerError):
            BegMabSelector(make_strategies(), **kwargs)

    @given(st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_property_candidates_never_empty(self, batch):
        selector = BegMabSelector(
            make_strategies(), batch_thresholds=[1, 8, 32]
        )
        assert selector.candidates(batch)


class TestBaselines:
    def test_plain_epsilon_ignores_batch(self):
        strategies = make_strategies()
        selector = PlainEpsilonGreedy(strategies, rng=ScriptedRng(EXPLOIT))
        # Can pick a 48-verify strategy even at batch 500 — the failure
        # mode BEG prevents.
        for s in strategies:
            selector.record(s, 1.0, [4.0], 1)
        selector.record(strategies[0], 0.5, [8.0], 1)
        assert selector.select(500).tokens_to_verify == 48

    def test_ucb_explores_all_arms_first(self):
        strategies = make_strategies()
        selector = Ucb1Selector(strategies)
        picked = []
        for _ in range(len(strategies)):
            s = selector.select(1)
            picked.append(s)
            selector.record(s, 1.0, [4.0], 1)
        assert set(picked) == set(strategies)

    def test_ucb_converges_to_best(self):
        strategies = make_strategies()[:2]
        selector = Ucb1Selector(strategies)
        for _ in range(30):
            s = selector.select(1)
            elapsed = 1.0 if s == strategies[0] else 4.0
            selector.record(s, elapsed, [4.0], 1)
        picks = [selector.select(1) for _ in range(10)]
        assert picks.count(strategies[0]) >= 8

    def test_static(self):
        strategy = make_strategies()[0]
        selector = StaticSelector(strategy)
        assert selector.select(1) == strategy
        assert selector.select(999) == strategy
        selector.record(strategy, 1.0, [1.0], 1)  # no-op
