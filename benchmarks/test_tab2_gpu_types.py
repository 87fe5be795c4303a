"""Table 2: rollout throughput and SD speedup across GPU types.

Qwen2.5-7B at BS=1, TP=1 on six GPU generations.  Expected shape: both
absolute throughputs close to the paper and the speedup *ordering*
(newer, higher-bandwidth GPUs gain less from SD because the GPU-
independent drafting overhead is a larger share of their faster steps).
"""

from __future__ import annotations

from _common import format_table, write_result
from repro.hardware import RooflineModel, drafter_spec, get_gpu, get_model

PAPER = {
    "B200": (605.05, 259.71, 2.33),
    "H100": (430.24, 164.65, 2.61),
    "A100": (259.01, 92.83, 2.79),
    "RTX5090": (293.84, 100.89, 2.91),
    "RTX4090": (187.44, 65.28, 2.87),
    "RTX3090": (166.41, 51.75, 3.22),
}

ACCEPT_LENGTH = 5.2
DEPTH, TOPK, VERIFY = 6, 8, 48


def test_tab2_gpu_types(benchmark):
    model = get_model("Qwen2.5-7B")
    drafter = drafter_spec(model)

    def sweep():
        out = {}
        for gpu_name in PAPER:
            rl = RooflineModel(model=model, gpu=get_gpu(gpu_name))
            vanilla = rl.vanilla_tokens_per_s(1)
            sd = rl.sd_tokens_per_s(
                drafter, ACCEPT_LENGTH, 1, DEPTH, TOPK, VERIFY,
            )
            out[gpu_name] = (sd, vanilla, sd / vanilla)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for gpu_name, (sd, vanilla, speedup) in results.items():
        p_sd, p_van, p_speed = PAPER[gpu_name]
        rows.append(
            [gpu_name, f"{sd:.0f}", f"{vanilla:.0f}",
             f"{speedup:.2f}x",
             f"{p_sd:.0f}", f"{p_van:.0f}", f"{p_speed:.2f}x"]
        )
    write_result(
        "tab2_gpu_types",
        format_table(
            ["GPU", "w/ SD", "w/o SD", "speedup",
             "paper w/SD", "paper w/o", "paper x"],
            rows,
        ),
    )

    # Absolute vanilla throughput within 25% of the paper per GPU.
    for gpu_name, (sd, vanilla, speedup) in results.items():
        _, p_van, p_speed = PAPER[gpu_name]
        assert abs(vanilla - p_van) / p_van < 0.25, gpu_name
        assert abs(speedup - p_speed) / p_speed < 0.25, gpu_name
    # Ordering: B200 gains least, RTX3090 most.
    assert results["B200"][2] < results["H100"][2]
    assert results["H100"][2] < results["RTX3090"][2]
