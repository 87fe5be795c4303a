"""Table 7: comparison of SD methods within the TLT framework.

EAGLE, HASS and EAGLE-3 drafters trained in the unified pipeline on the
same data/compute-normalised setting; accept lengths measured on the
substrate, throughputs modeled on Qwen-7B TP=2 (the paper's Table 7
placement).  Expected shape: all drafters land in the same accept-length
band, HASS/EAGLE-3 slightly ahead of EAGLE, with 3x/7x relative training
cost — the paper's reason for defaulting to EAGLE under the rollout-
bubble time budget.
"""

from __future__ import annotations

import numpy as np

from _common import (
    build_target,
    format_table,
    measure_accept,
    rollout_data,
    train_eagle,
    write_result,
)
from repro.drafter import TrainingStrategy
from repro.hardware import RooflineModel, drafter_spec, get_gpu, get_model
from repro.specdec import SdStrategy

PAPER = {
    "eagle": (6.53, 2.24, 1.0),
    "hass": (6.67, 2.29, 3.0),
    "eagle3": (6.83, 2.55, 7.0),
}

MEASURE = SdStrategy(draft_depth=8, topk=4, tokens_to_verify=24)
#: Equal-compute budget: epochs scale inversely with per-step cost.
BASE_EPOCHS = 240


def test_tab7_sd_methods(benchmark):
    def run():
        target = build_target(seed=907)
        data = rollout_data(target, num_prompts=40, seed=3)
        strategies = {
            "eagle": TrainingStrategy.eagle(),
            "hass": TrainingStrategy.hass(),
            "eagle3": TrainingStrategy.eagle3(target.num_layers),
        }
        results = {}
        for name, strategy in strategies.items():
            epochs = max(int(BASE_EPOCHS / strategy.relative_cost), 40)
            drafter = train_eagle(
                target, data, strategy=strategy, epochs=epochs
            )
            metrics = measure_accept(
                target, drafter, MEASURE, num_prompts=8,
                temperature=0.9,
            )
            results[name] = (
                metrics.mean_accept_length, strategy.relative_cost
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    # Throughput model: Qwen-7B TP=2, BS=1 (paper's Table 7 setting).
    model = get_model("Qwen2.5-7B")
    roofline = RooflineModel(
        model=model, gpu=get_gpu("H100"), tensor_parallel=2
    )
    spec = drafter_spec(model)
    base_tps = roofline.vanilla_tokens_per_s(1)

    rows = [["Base (No-SD)", "1.00", f"{base_tps:.0f}", "1.00x", "-"]]
    speedups = {}
    for name, (accept, cost) in results.items():
        tps = roofline.sd_tokens_per_s(
            spec, max(accept, 1.0), 1,
            MEASURE.draft_depth, MEASURE.topk, MEASURE.tokens_to_verify,
        )
        speedups[name] = tps / base_tps
        paper_len, paper_speed, paper_cost = PAPER[name]
        rows.append(
            [name, f"{accept:.2f}", f"{tps:.0f}",
             f"{speedups[name]:.2f}x",
             f"{cost:.0f}x (paper: {paper_len}/{paper_speed}x"
             f"/{paper_cost:.0f}x)"]
        )
    write_result(
        "tab7_sd_methods",
        format_table(
            ["method", "accept len", "tokens/s", "speedup",
             "train cost"],
            rows,
        ),
    )

    accepts = {name: acc for name, (acc, _) in results.items()}
    # All methods produce effective drafters (accept length > 2.5).
    assert min(accepts.values()) > 2.5
    # The band is tight: within ~25% of each other (paper: within 5%).
    assert max(accepts.values()) / min(accepts.values()) < 1.35
    # Every method accelerates decoding.
    assert min(speedups.values()) > 1.3
    # Training costs are ordered eagle < hass < eagle3.
    assert results["eagle"][1] < results["hass"][1] < results["eagle3"][1]
