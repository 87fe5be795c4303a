"""Ablations of TLT's design choices (DESIGN.md §5).

Three studies beyond the paper's tables:

* **tuner ablation** — BEG-MAB vs plain ε-greedy vs UCB1 vs static
  strategies driving the rollout simulator; bucketing should dominate
  because it never wastes cycles on verification-heavy strategies at
  large batches.
* **elastic-threshold sweep** — rollout time vs the SD activation
  threshold; both extremes (never activate / always activate) should
  lose to an intermediate threshold.
* **DataBuffer ablation** — one-step-offset sampling vs current-partial
  only: the offset buffer must expose the trainer to long sequences that
  the current partial set lacks.
"""

from __future__ import annotations

import numpy as np

from _common import format_table, write_result
from repro.drafter.training import TrainingSequence
from repro.hardware import RooflineModel, get_gpu, get_model
from repro.rollout import (
    AdaptiveSdConfig,
    AdaptiveSdManager,
    ParametricAcceptance,
    RolloutEngine,
)
from repro.spot import OnlineDataBuffer
from repro.specdec import default_strategy_pool
from repro.tuner import (
    BegMabSelector,
    PlainEpsilonGreedy,
    StaticSelector,
    Ucb1Selector,
)
from repro.workload import LognormalLengths


def _roofline():
    return RooflineModel(
        model=get_model("Qwen2.5-32B"), gpu=get_gpu("H100"),
        tensor_parallel=4,
    )


def _lengths(seed=3, n=128):
    return LognormalLengths(
        median=2500, sigma=1.1, cap=30_000
    ).sample(np.random.default_rng(seed), n).tolist()


def test_ablation_tuners(benchmark):
    strategies = default_strategy_pool()
    roofline = _roofline()
    lengths = _lengths()

    def run():
        results = {}
        selectors = {
            "BEG-MAB": BegMabSelector(
                strategies, batch_thresholds=[1, 4, 8, 16],
                rng=np.random.default_rng(0),
            ),
            "plain ε-greedy": PlainEpsilonGreedy(
                strategies, rng=np.random.default_rng(0)
            ),
            "UCB1": Ucb1Selector(strategies),
            "static (V=48)": StaticSelector(strategies[0]),
            "static (V=8)": StaticSelector(strategies[-1]),
        }
        for name, selector in selectors.items():
            manager = AdaptiveSdManager(
                AdaptiveSdConfig(
                    activation_threshold=64, selector=selector
                )
            )
            # Two passes: the second benefits from learned state.
            RolloutEngine(roofline, sd_manager=manager).simulate(lengths)
            timeline = RolloutEngine(
                roofline, sd_manager=manager
            ).simulate(lengths)
            results[name] = timeline.total_time_s
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [name, f"{t:.1f}", f"{min(results.values()) / t:.2f}"]
        for name, t in sorted(results.items(), key=lambda kv: kv[1])
    ]
    write_result(
        "ablation_tuners",
        format_table(["tuner", "rollout (s)", "rel. efficiency"], rows),
    )

    # The bucketed bandit is at least as good as every baseline.
    assert results["BEG-MAB"] <= min(results.values()) * 1.05


def test_ablation_elastic_threshold(benchmark):
    roofline = _roofline()
    lengths = _lengths(seed=5)

    def run():
        out = {}
        for threshold in [1, 8, 32, 64, 128]:
            manager = AdaptiveSdManager(
                AdaptiveSdConfig(activation_threshold=threshold)
            )
            out[threshold] = RolloutEngine(
                roofline, sd_manager=manager
            ).simulate(lengths).total_time_s
        out["vanilla"] = RolloutEngine(roofline).simulate(lengths).total_time_s
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [str(k), f"{v:.1f}"] for k, v in results.items()
    ]
    write_result(
        "ablation_threshold",
        format_table(["activation threshold", "rollout (s)"], rows),
    )

    # Any SD threshold beats vanilla (the benefit guard prevents harm)...
    for threshold in [8, 32, 64]:
        assert results[threshold] < results["vanilla"]
    # ...and a mid/large threshold beats a tiny one (engaging SD only at
    # batch 1 leaves most of the tail unaccelerated).
    assert results[32] <= results[1]


def test_ablation_databuffer_offset(benchmark):
    rng = np.random.default_rng(0)

    def make_seq(length, step):
        return TrainingSequence(
            tokens=rng.integers(0, 24, size=length),
            hidden_stacks=np.zeros((length, 2, 4)),
            step_index=step,
        )

    def run():
        # Previous step finished with long sequences; the current step's
        # partial set has only short ones (the long tail is still
        # decoding).
        samples = {}
        for label, fraction in [("offset (0.5)", 0.5), ("current-only", 0.0)]:
            buf = OnlineDataBuffer(long_fraction=fraction)
            buf.begin_step(0)
            buf.add([make_seq(400, 0), make_seq(350, 0),
                     make_seq(60, 0)])
            buf.begin_step(1)
            buf.add([make_seq(40, 1), make_seq(50, 1),
                     make_seq(30, 1), make_seq(45, 1)])
            picked = buf.sample_sequences(4, np.random.default_rng(1))
            samples[label] = max(s.length for s in picked)
        return samples

    samples = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [[k, v] for k, v in samples.items()]
    write_result(
        "ablation_databuffer",
        format_table(["sampling policy", "longest sampled seq"], rows),
    )

    # One-step offset exposes the trainer to long-tail lengths that the
    # current partial set cannot provide.
    assert samples["offset (0.5)"] >= 350
    assert samples["current-only"] <= 60
