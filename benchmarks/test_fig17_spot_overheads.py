"""Figure 17: checkpointing latency and sequence-packing throughput.

(a) Real wall-clock foreground latencies of vanilla synchronous, async,
and selective-async checkpointing on a drafter-plus-tied-weights payload
(paper: 893ms -> 280ms -> 97ms, 9.2x total).
(b) Compute-utilisation gain of sequence packing over padded batching on
a long-tail length mix (paper: 2.2x, 13.3 -> 29.6 samples/s).
"""

from __future__ import annotations

import numpy as np

from _common import format_table, write_result
from repro.spot import CheckpointManager, packing_efficiency
from repro.workload import LognormalLengths


def _payload():
    rng = np.random.default_rng(0)
    # Trainable drafter weights plus tied (frozen) embedding/LM-head
    # arrays that the vanilla checkpoint needlessly dumps.
    return {
        "w_r": rng.normal(size=(512, 1024)),
        "w_up": rng.normal(size=(2048, 512)),
        "w_down": rng.normal(size=(512, 2048)),
        "b_r": rng.normal(size=512),
        "frozen_embed": rng.normal(size=(8192, 1024)),
        "frozen_lm_head": rng.normal(size=(8192, 1024)),
    }


def test_fig17a_checkpointing(benchmark, tmp_path):
    state = _payload()

    def measure():
        latencies = {}
        manager = CheckpointManager(str(tmp_path))
        # Warm the filesystem path once.
        manager.save(state, step=0, mode="sync")
        for mode in ("sync", "async", "selective_async"):
            times = []
            for rep in range(3):
                result = manager.save(state, step=rep + 1, mode=mode)
                times.append(result.foreground_s)
                manager.wait_all()
            latencies[mode] = min(times)
        return latencies

    latencies = benchmark.pedantic(measure, rounds=1, iterations=1)

    sync_ms = latencies["sync"] * 1e3
    async_ms = latencies["async"] * 1e3
    selective_ms = latencies["selective_async"] * 1e3
    rows = [
        ["vanilla ckpt (sync)", f"{sync_ms:.1f} ms", "893 ms"],
        ["async ckpt", f"{async_ms:.1f} ms",
         f"280 ms (3.2x)"],
        ["selective async ckpt", f"{selective_ms:.1f} ms",
         "97 ms (9.2x)"],
        ["total reduction", f"{sync_ms / selective_ms:.1f}x", "9.2x"],
    ]
    write_result(
        "fig17a_checkpointing",
        format_table(["method", "foreground latency", "paper"], rows),
    )

    assert async_ms < sync_ms
    assert selective_ms < async_ms
    assert sync_ms / selective_ms > 3.0


def test_fig17b_packing(benchmark):
    rng = np.random.default_rng(1)
    lengths = LognormalLengths(
        median=120, sigma=1.0, cap=1024
    ).sample(rng, 96).tolist()

    vanilla, packed = benchmark.pedantic(
        lambda: packing_efficiency(lengths, capacity=1024),
        rounds=1,
        iterations=1,
    )

    gain = packed / vanilla
    base_rate = 13.3
    rows = [
        ["vanilla batching util", f"{vanilla:.2f}",
         f"{base_rate:.1f} samples/s"],
        ["sequence packing util", f"{packed:.2f}",
         f"{base_rate * 2.2:.1f} samples/s"],
        ["throughput gain", f"{gain:.2f}x", "2.2x"],
    ]
    write_result(
        "fig17b_packing",
        format_table(["method", "utilization", "paper"], rows),
    )

    assert gain > 1.8
    assert packed > 0.8
