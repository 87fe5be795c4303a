"""Figure 13: effect of draft depth and verification budget.

Greedy (temperature 0, as the paper's grid search) accept lengths are
*measured* on the TinyLM substrate with a trained EAGLE drafter; the
speedup panel combines those measurements with the roofline cost model
(Qwen-32B TP=4 placement).  Expected shape: accept length rises with
depth with diminishing increments; speedup peaks at an intermediate depth
because drafting cost grows linearly while acceptance saturates.
"""

from __future__ import annotations

import numpy as np

from _common import (
    format_table,
    measure_accept,
    trained_substrate,
    write_result,
)
from repro.hardware import RooflineModel, drafter_spec, get_gpu, get_model
from repro.specdec import SdStrategy

DEPTHS = [2, 4, 8, 12, 16]
VERIFY = [8, 16, 32, 64]


def test_fig13_hyperparams(benchmark):
    target, drafter, _ = trained_substrate()

    def grid():
        accepts = {}
        for depth in DEPTHS:
            for verify in VERIFY:
                strategy = SdStrategy(
                    draft_depth=depth, topk=8, tokens_to_verify=verify
                )
                metrics = measure_accept(
                    target, drafter, strategy, num_prompts=8,
                    temperature=0.0,
                )
                accepts[(depth, verify)] = metrics.mean_accept_length
        return accepts

    accepts = benchmark.pedantic(grid, rounds=1, iterations=1)

    # Speedup panel via the roofline (Qwen-32B, TP=4, as the paper).
    model = get_model("Qwen2.5-32B")
    spec = drafter_spec(model)
    roofline = RooflineModel(
        model=model, gpu=get_gpu("H100"), tensor_parallel=4
    )
    speedups = {
        key: roofline.sd_speedup(
            spec, min(value, key[1] + 1.0), 1, key[0], 8, key[1],
        )
        for key, value in accepts.items()
    }

    accept_rows = [
        [f"D={d}"] + [f"{accepts[(d, v)]:.2f}" for v in VERIFY]
        for d in DEPTHS
    ]
    speed_rows = [
        [f"D={d}"] + [f"{speedups[(d, v)]:.2f}x" for v in VERIFY]
        for d in DEPTHS
    ]
    header = ["depth \\ verify"] + [str(v) for v in VERIFY]
    write_result(
        "fig13_hyperparams",
        "(a) measured accept length (greedy)\n"
        + format_table(header, accept_rows)
        + "\n\n(b) modeled speedup (Qwen-32B TP4)\n"
        + format_table(header, speed_rows),
    )

    # Accept length rises with depth at the largest budget...
    col = [accepts[(d, 64)] for d in DEPTHS]
    assert col == sorted(col)
    # ...with diminishing increments (the paper's taper).
    assert (col[2] - col[1]) > (col[-1] - col[-2]) - 0.5
    # Maximising accept length is NOT maximising speedup: the best
    # speedup depth is below the best accept-length depth.
    best_accept_depth = max(DEPTHS, key=lambda d: accepts[(d, 64)])
    best_speed_depth = max(DEPTHS, key=lambda d: speedups[(d, 64)])
    assert best_speed_depth <= best_accept_depth
    # Reasonable magnitudes (paper peaks ~8.7 accept, ~3.6x speedup).
    assert 5.0 < max(col) < 20.0
    assert 2.0 < max(speedups.values()) < 6.0
