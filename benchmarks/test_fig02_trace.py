"""Figure 2: the ByteDance-style multi-step RL production trace.

Reproduces the three signatures of the 385-step / 11-day trace: response
lengths growing over training, the per-step max pinned at the configured
cap (20,480) for most steps, and a persistent under-utilised gap between
p75 and the max.
"""

from __future__ import annotations

import numpy as np

from _common import format_table, write_result
from repro.workload import synthesize_trace


def test_fig02_trace(benchmark):
    rng = np.random.default_rng(42)

    trace = benchmark.pedantic(
        lambda: synthesize_trace(385, rng),
        rounds=1,
        iterations=1,
    )

    p50 = trace.series("p50")
    p75 = trace.series("p75")
    max_series = trace.series("max_length")

    def window(series, lo, hi):
        return float(np.mean(series[lo:hi]))

    rows = [
        ["steps", trace.num_steps, "385"],
        ["total days (40min/step, eval 20min/5steps)",
         f"{trace.total_days:.1f}", "~11"],
        ["median @ steps 0-50", f"{window(p50, 0, 50):.0f}", "~1-2K"],
        ["median @ steps 335-385", f"{window(p50, 335, 385):.0f}",
         "grows"],
        ["p75 @ steps 335-385", f"{window(p75, 335, 385):.0f}",
         "~5-8K"],
        ["fraction of steps hitting cap",
         f"{trace.cap_hit_fraction:.2f}", "most"],
        ["mean p75->max gap",
         f"{float(np.mean(max_series - p75)):.0f}",
         "large (under-utilized zone)"],
    ]
    write_result(
        "fig02_trace", format_table(["quantity", "value", "paper"], rows)
    )

    assert trace.num_steps == 385
    assert 8 <= trace.total_days <= 14
    assert window(p50, 335, 385) > 1.5 * window(p50, 0, 50)
    assert trace.cap_hit_fraction > 0.6
    assert float(np.mean(max_series - p75)) > 0.4 * 20_480
