"""Table 5: CUDAGraph memory footprint of capture schemes.

Llama-3-8B (TP=4) with a 4-strategy search space.  Expected shape:
vanilla multi-strategy capture ~4x the single-strategy footprint;
bucketed capture close to single (paper: 7.81 / 30.39 / 10.69 GB).
"""

from __future__ import annotations

from _common import format_table, write_result
from repro.hardware import (
    CudaGraphPool,
    bucketed_plan,
    get_model,
    single_strategy_plan,
    vanilla_multi_plan,
)
from repro.specdec import default_strategy_pool

PAPER = {"single": 7.81, "vanilla-multi": 30.39, "bucketed": 10.69}


def test_tab5_cudagraph(benchmark):
    model = get_model("Llama-3-8B")
    strategies = default_strategy_pool()

    def measure():
        out = {}
        plans = {
            "single": single_strategy_plan(strategies[0]),
            "vanilla-multi": vanilla_multi_plan(strategies),
            "bucketed": bucketed_plan(strategies),
        }
        for name, plan in plans.items():
            pool = CudaGraphPool(model)
            pool.capture_plan(plan)
            out[name] = (pool.total_gib, pool.num_graphs)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = [
        [name, f"{gib:.2f}", graphs, f"{PAPER[name]:.2f}"]
        for name, (gib, graphs) in results.items()
    ]
    write_result(
        "tab5_cudagraph",
        format_table(
            ["method", "GiB", "graphs", "paper GB"], rows
        ),
    )

    single = results["single"][0]
    multi = results["vanilla-multi"][0]
    bucketed = results["bucketed"][0]
    # Paper ratios: multi/single = 3.9, bucketed/single = 1.37.
    assert 3.0 < multi / single < 4.5
    assert 1.0 < bucketed / single < 1.8
    assert bucketed < 0.5 * multi
    # Absolute footprints within 25% of the paper.
    for name, (gib, _) in results.items():
        assert abs(gib - PAPER[name]) / PAPER[name] < 0.25, name
