"""Cluster-scale simulation: VeRL vs TLT on a long-tail workload.

Uses the roofline-calibrated simulator to reproduce the paper's headline
comparison on a 64-GPU H100 cluster: per-system RL-step times, the
Figure 14-style running-request profile of one worker, and the idle-GPU
time TLT converts into free drafter training.

Run:  python examples/adaptive_rollout_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterSpec, StepWorkload
from repro.hardware import RooflineModel, get_gpu, get_model
from repro.rollout import (
    AdaptiveSdConfig,
    AdaptiveSdManager,
    RolloutEngine,
)
from repro.systems import (
    OpenR1System,
    TltBaseSystem,
    TltSystem,
    VerlSystem,
)
from repro.workload import LognormalLengths


def main() -> None:
    rng = np.random.default_rng(0)
    lengths = LognormalLengths(
        median=2500, sigma=1.15, cap=32_768
    ).sample(rng, 512)
    workload = StepWorkload(lengths=lengths.tolist())
    print(f"workload: {workload.num_requests} requests, "
          f"median {np.median(lengths):.0f}, max {lengths.max()} tokens")

    model = get_model("Qwen2.5-7B")
    cluster = ClusterSpec(
        num_workers=16, gpus_per_worker=4, gpu=get_gpu("H100")
    )

    print("\n=== end-to-end RL step (Qwen-7B, 64x H100) ===")
    print(f"{'system':>10} {'step (s)':>9} {'tput (t/s)':>11} "
          f"{'vs VeRL':>8} {'drafter upd':>11}")
    reports = [
        cls(model, cluster).simulate_step(workload)
        for cls in [OpenR1System, VerlSystem, TltBaseSystem, TltSystem]
    ]
    verl_tps = next(
        r.throughput_tps for r in reports if r.system == "VeRL"
    )
    for report in reports:
        ratio = report.throughput_tps / verl_tps
        print(f"{report.system:>10} {report.step_time_s:>9.1f} "
              f"{report.throughput_tps:>11.0f} {ratio:>7.2f}x "
              f"{report.drafter_updates:>11}")

    print("\n=== one worker's running-request profile (Figure 14) ===")
    roofline = RooflineModel(
        model=get_model("Qwen2.5-32B"), gpu=get_gpu("H100"),
        tensor_parallel=4,
    )
    worker_lengths = LognormalLengths(
        median=2500, sigma=1.1, cap=30_000
    ).sample(np.random.default_rng(3), 128).tolist()
    baseline = RolloutEngine(roofline).simulate(worker_lengths)
    manager = AdaptiveSdManager(
        AdaptiveSdConfig(activation_threshold=32)
    )
    adaptive = RolloutEngine(roofline, sd_manager=manager).simulate(
        worker_lengths
    )
    print(f"baseline rollout : {baseline.total_time_s:7.1f}s")
    print(f"adaptive SD      : {adaptive.total_time_s:7.1f}s "
          f"({baseline.total_time_s / adaptive.total_time_s:.2f}x)")
    print(f"SD engaged at    : {adaptive.sd_start_s:7.1f}s "
          f"(threshold: 32 running requests)")

    marks = np.linspace(0, adaptive.total_time_s, 20)
    profile = []
    for mark in marks:
        active = next(
            (p.active_requests for p in adaptive.points
             if p.time_s >= mark),
            0,
        )
        profile.append(active)
    print("active requests over time: " +
          " ".join(f"{a:3d}" for a in profile))


if __name__ == "__main__":
    main()
