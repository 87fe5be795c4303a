"""Figure 1(a): response-length distribution and RL-step time breakdown.

Reproduces both panels: the long-tail PDF of rollout response lengths
(mass concentrated at short lengths with a spike at the cap) and the
normalized step-time breakdown showing rollout dominating (~85%) under
VeRL and shrinking under TLT.
"""

from __future__ import annotations

import numpy as np

from _common import format_table, write_result
from repro.cluster import ClusterSpec, StepWorkload
from repro.hardware import get_gpu, get_model
from repro.systems import TltSystem, VerlSystem
from repro.workload import LognormalLengths, length_statistics


def _workload(rng: np.random.Generator) -> StepWorkload:
    lengths = LognormalLengths(
        median=2500, sigma=1.15, cap=30_000
    ).sample(rng, 512)
    return StepWorkload(lengths=lengths.tolist())


def test_fig01_longtail(benchmark):
    rng = np.random.default_rng(0)
    workload = _workload(rng)
    lengths = np.asarray(workload.lengths)

    model = get_model("Qwen2.5-7B")
    cluster = ClusterSpec(
        num_workers=16, gpus_per_worker=4, gpu=get_gpu("H100")
    )

    def run():
        return (
            VerlSystem(model, cluster).simulate_step(workload),
            TltSystem(model, cluster).simulate_step(workload),
        )

    verl, tlt = benchmark.pedantic(run, rounds=1, iterations=1)

    # -- panel 1: length distribution ---------------------------------
    stats = length_statistics(lengths)
    hist, edges = np.histogram(
        lengths, bins=12, range=(0, 30_000), density=False
    )
    pdf = hist / hist.sum() * 100.0
    dist_rows = [
        [f"{int(edges[i])}-{int(edges[i + 1])}", f"{pdf[i]:.1f}%"]
        for i in range(len(pdf))
    ]

    # -- panel 2: step-time breakdown ----------------------------------
    def breakdown(report):
        total = report.step_time_s
        other = total - report.phases["rollout"]
        return report.phases["rollout"] / total, other / total

    verl_roll, verl_other = breakdown(verl)
    tlt_roll, tlt_other = breakdown(tlt)

    table = format_table(
        ["quantity", "value", "paper"],
        [
            ["median length", f"{stats['p50']:.0f}", "~2-3K"],
            ["p75 length", f"{stats['p75']:.0f}", "—"],
            ["max length", f"{stats['max']:.0f}", "30K (cap)"],
            ["VeRL rollout frac", f"{verl_roll:.2f}", "~0.85"],
            ["VeRL other frac", f"{verl_other:.2f}", "~0.15"],
            ["TLT rollout frac (norm.)",
             f"{tlt.phases['rollout'] / verl.step_time_s:.2f}",
             "shrinks"],
            ["TLT total (norm. to VeRL)",
             f"{tlt.step_time_s / verl.step_time_s:.2f}", "< 0.6"],
        ],
    )
    pdf_table = format_table(["length bin", "PDF"], dist_rows)
    write_result(
        "fig01_longtail", table + "\n\nResponse-length PDF:\n" + pdf_table
    )

    # Shape assertions: long tail + rollout dominance + TLT shrinkage.
    assert stats["p50"] < 0.15 * stats["max"]
    assert pdf[0] > 20.0  # mass at short lengths
    assert pdf[-1] > 0.0  # spike at the cap
    assert verl_roll > 0.7
    assert tlt.step_time_s < 0.75 * verl.step_time_s
