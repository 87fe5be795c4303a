"""Table 3: end-to-end TLT speedup across cluster scales.

TLT vs VeRL speedup for Qwen-7B and Qwen-32B on 1-8 DGX-H100 nodes.
Expected shape: speedup grows with cluster size; Qwen-32B OOMs on 1-2
nodes (optimizer state + long-sequence activations) exactly as the paper
records.
"""

from __future__ import annotations

import numpy as np

from _common import format_table, write_result
from repro.cluster import ClusterSpec, StepWorkload
from repro.errors import OutOfMemoryError
from repro.hardware import get_gpu, get_model
from repro.systems import TltSystem, VerlSystem
from repro.workload import LognormalLengths

NODES = [1, 2, 4, 8]
PAPER = {
    "Qwen2.5-7B": {1: 1.21, 2: 1.45, 4: 1.62, 8: 1.76},
    "Qwen2.5-32B": {1: "OOM", 2: "OOM", 4: 1.83, 8: 2.12},
}


def _ratio(model_name: str, nodes: int, workload) -> object:
    model = get_model(model_name)
    tp = 4 if model_name == "Qwen2.5-7B" else 8
    cluster = ClusterSpec(
        num_workers=nodes * 8 // tp, gpus_per_worker=tp,
        gpu=get_gpu("H100"),
    )
    try:
        verl = VerlSystem(model, cluster).simulate_step(workload)
        tlt = TltSystem(model, cluster).simulate_step(workload)
    except OutOfMemoryError:
        return "OOM"
    return tlt.throughput_tps / verl.throughput_tps


def test_tab3_scaling(benchmark):
    rng = np.random.default_rng(5)
    lengths = LognormalLengths(
        median=2500, sigma=1.15, cap=32_768
    ).sample(rng, 512)
    workload = StepWorkload(lengths=lengths.tolist())

    def sweep():
        return {
            model_name: {
                nodes: _ratio(model_name, nodes, workload)
                for nodes in NODES
            }
            for model_name in PAPER
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for model_name, per_node in results.items():
        row = [model_name]
        for nodes in NODES:
            value = per_node[nodes]
            row.append(value if value == "OOM" else f"{value:.2f}x")
        row.append(
            " / ".join(str(PAPER[model_name][n]) for n in NODES)
        )
        rows.append(row)
    write_result(
        "tab3_scaling",
        format_table(
            ["model"] + [f"{n} node(s)" for n in NODES] + ["paper"],
            rows,
        ),
    )

    seven = results["Qwen2.5-7B"]
    thirty_two = results["Qwen2.5-32B"]
    # 7B runs everywhere and the speedup grows with scale.
    ratios = [seven[n] for n in NODES]
    assert all(isinstance(r, float) for r in ratios)
    assert ratios[-1] > ratios[0]
    # 32B OOMs on 1-2 nodes, runs on 4-8 with a larger speedup than 7B.
    assert thirty_two[1] == "OOM" and thirty_two[2] == "OOM"
    assert isinstance(thirty_two[4], float)
    assert thirty_two[8] > seven[8]
