"""Table 1: effect of topK on speculative decoding.

Depth 12, Tokens_to_Verify=64, greedy (the paper's grid settings).
Expected shape: accept length and speedup are nearly flat in topK — the
reason TLT fixes topK for the MAB tuner.
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

TOPKS = [4, 6, 8, 10, 12, 16]
PAPER_ACCEPT = {4: 8.29, 6: 8.66, 8: 8.67, 10: 8.67, 12: 8.60, 16: 8.42}
PAPER_SPEED = {4: 3.51, 6: 3.65, 8: 3.64, 10: 3.64, 12: 3.56, 16: 3.47}


def test_tab1_topk(benchmark):
    target, drafter, _ = trained_substrate()

    def sweep():
        accepts = {}
        for topk in TOPKS:
            strategy = SdStrategy(
                draft_depth=12, topk=topk, tokens_to_verify=64
            )
            metrics = measure_accept(
                target, drafter, strategy, num_prompts=8,
                temperature=0.0,
            )
            accepts[topk] = metrics.mean_accept_length
        return accepts

    accepts = benchmark.pedantic(sweep, rounds=1, iterations=1)

    model = get_model("Qwen2.5-32B")
    roofline = RooflineModel(
        model=model, gpu=get_gpu("H100"), tensor_parallel=4
    )
    spec = drafter_spec(model)
    speedups = {
        topk: roofline.sd_speedup(
            spec, min(value, 65.0), 1, 12, topk, 64,
        )
        for topk, value in accepts.items()
    }

    rows = [
        [k, f"{accepts[k]:.2f}", f"{speedups[k]:.2f}x",
         f"{PAPER_ACCEPT[k]:.2f}", f"{PAPER_SPEED[k]:.2f}x"]
        for k in TOPKS
    ]
    write_result(
        "tab1_topk",
        format_table(
            ["topK", "accept len", "speedup",
             "paper accept", "paper speedup"],
            rows,
        ),
    )

    values = np.asarray([accepts[k] for k in TOPKS])
    # Near-flat: relative spread under 25% (paper: ~4%).
    assert (values.max() - values.min()) / values.mean() < 0.25
    # Speedup flat too.
    speeds = np.asarray([speedups[k] for k in TOPKS])
    assert (speeds.max() - speeds.min()) / speeds.mean() < 0.25
