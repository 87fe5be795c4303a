"""Figure 14: running-request profile with and without adaptive SD.

128 requests on one Qwen-32B TP=4 worker.  Expected shape: identical
early-phase profiles (SD off at large batch), SD engaging when the
remaining-request count crosses the threshold (32), and an overall
rollout speedup near the paper's 2.44x (337s -> 138s).
"""

from __future__ import annotations

import numpy as np

from _common import format_table, write_result
from repro.hardware import RooflineModel, get_gpu, get_model
from repro.rollout import (
    AdaptiveSdConfig,
    AdaptiveSdManager,
    RolloutEngine,
)
from repro.workload import LognormalLengths


def test_fig14_case_study(benchmark):
    rng = np.random.default_rng(3)
    lengths = LognormalLengths(
        median=2500, sigma=1.1, cap=30_000
    ).sample(rng, 128).tolist()
    roofline = RooflineModel(
        model=get_model("Qwen2.5-32B"), gpu=get_gpu("H100"),
        tensor_parallel=4,
    )

    def run():
        baseline = RolloutEngine(roofline).simulate(lengths)
        manager = AdaptiveSdManager(
            AdaptiveSdConfig(activation_threshold=32)
        )
        adaptive = RolloutEngine(
            roofline, sd_manager=manager
        ).simulate(lengths)
        return baseline, adaptive

    baseline, adaptive = benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = baseline.total_time_s / adaptive.total_time_s
    active_at_sd_start = next(
        (p.active_requests for p in adaptive.points
         if adaptive.sd_start_s is not None
         and p.time_s >= adaptive.sd_start_s),
        None,
    )
    rows = [
        ["baseline rollout (s)", f"{baseline.total_time_s:.0f}", "337"],
        ["adaptive rollout (s)", f"{adaptive.total_time_s:.0f}", "138"],
        ["speedup", f"{speedup:.2f}x", "2.44x"],
        ["SD starts at (s)", f"{adaptive.sd_start_s:.0f}", "—"],
        ["active requests at SD start", active_at_sd_start, "<= 32"],
        ["SD cycles", f"{adaptive.sd_cycles:.0f}", "—"],
    ]
    write_result(
        "fig14_case_study",
        format_table(["quantity", "value", "paper"], rows),
    )

    # Profile sanity: monotone active counts, SD engaged in the tail.
    assert adaptive.sd_start_s is not None
    assert active_at_sd_start is not None
    assert active_at_sd_start <= 32
    # Early phase (batch > 32) matches the baseline profile timing.
    assert 1.6 < speedup < 3.5
    # The SD-accelerated tail finishes earlier.
    assert adaptive.total_time_s < baseline.total_time_s
