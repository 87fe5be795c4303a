"""Online serving: dispatch policies under a long-tail Poisson arrival mix.

The serving front-end's reason to exist: under a heavy-tailed response-
length distribution, a single FIFO worker head-of-line blocks short
interactive requests behind long stragglers; striping the same trace
across two workers — and especially routing by predicted length — cuts
tail latency.  Expected shape: every 2-worker policy achieves lower p99
completion latency than single-worker FIFO on the same trace (the
acceptance criterion), committed tokens are byte-identical across all
policies (dispatch is lossless), and SLO attainment improves.
"""

from __future__ import annotations

from _common import format_table, trained_substrate, write_result

import numpy as np

from repro.serving import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    LeastLoadedDispatch,
    LongTailDispatch,
    RoundRobinDispatch,
    ServingEngine,
    poisson_trace,
)
from repro.specdec import SdStrategy
from repro.workload import LognormalLengths

NUM_REQUESTS = 36
MEAN_INTERARRIVAL = 0.6
MAX_BATCH = 4
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8)
LENGTHS = LognormalLengths(median=10.0, sigma=1.2, cap=80)
SLO_MIX = ((INTERACTIVE, 0.3), (STANDARD, 0.5), (BATCH, 0.2))


def _run(target, drafter, trace, workers, dispatch, stealing):
    frontend = ServingEngine(
        target, drafter, num_workers=workers, strategy=STRATEGY,
        temperature=TEMPERATURE, max_batch_size=MAX_BATCH,
        dispatch=dispatch, work_stealing=stealing,
    )
    return frontend.run(trace)


def test_serving_throughput(benchmark):
    target, drafter, _ = trained_substrate()
    trace = poisson_trace(
        np.random.default_rng(17),
        num_requests=NUM_REQUESTS,
        mean_interarrival=MEAN_INTERARRIVAL,
        length_model=LENGTHS,
        vocab_size=target.config.vocab_size,
        slo_mix=SLO_MIX,
    )
    setups = [
        ("fifo-1w", 1, RoundRobinDispatch(), False),
        ("round-robin-2w", 2, RoundRobinDispatch(), True),
        ("least-loaded-2w", 2, LeastLoadedDispatch(), True),
        ("long-tail-2w", 2, LongTailDispatch(threshold=24), True),
    ]

    def sweep():
        return {
            label: _run(target, drafter, trace, workers, policy, steal)
            for label, workers, policy, steal in setups
        }

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    baseline = [tuple(r.response) for r in grid["fifo-1w"].records]
    rows = []
    for label, workers, _policy, _steal in setups:
        report = grid[label]
        responses = [tuple(r.response) for r in report.records]
        rows.append(
            [
                label,
                workers,
                f"{report.p50_latency:.1f}",
                f"{report.p99_latency:.1f}",
                f"{report.ttft_percentile(99):.1f}",
                f"{report.slo_attainment:.0%}",
                report.stolen,
                f"{report.ticks:.0f}",
                "yes" if responses == baseline else "NO",
            ]
        )
    write_result(
        "serving_throughput",
        format_table(
            [
                "policy", "workers", "p50 lat", "p99 lat", "p99 ttft",
                "SLO", "stolen", "ticks", "identical",
            ],
            rows,
        ),
    )

    single = grid["fifo-1w"]
    for label, workers, _policy, _steal in setups:
        report = grid[label]
        # Dispatch is lossless: identical tokens under every policy.
        assert [tuple(r.response) for r in report.records] == baseline
        assert all(r.finished for r in report.records)
        if workers > 1:
            # The acceptance criterion: multi-worker beats single-worker
            # FIFO on tail latency for a long-tail arrival trace.
            assert report.p99_latency < single.p99_latency
            assert report.slo_attainment >= single.slo_attainment
