"""SLO-aware preemption: parking the long tail for interactive traffic.

The control-plane payoff in one experiment: a mixed Poisson workload of
short INTERACTIVE requests arriving over a floor of long BATCH rollouts
(the paper's RL traffic soaking idle capacity).  Without preemption an
interactive arrival that meets a full worker queues behind multi-
hundred-token stragglers — head-of-line blocking by SLO class.  With
:class:`~repro.serving.dispatch.SloPreemption`, the longest-backlog
BATCH request is parked (slot stashed whole: tokens, hidden hand-off,
random stream), the interactive request takes the freed slot, and the
parked rollout resumes byte-identically once capacity frees.

Expected shape (the acceptance criteria, asserted below): INTERACTIVE
p99 completion latency drops and INTERACTIVE SLO attainment rises
versus the no-preemption PR 2 baseline on the same trace, while every
request of both classes still finishes and every committed token is
identical between the two runs — preemption trades latency *across*
classes without touching outputs.
"""

from __future__ import annotations

from _common import format_table, trained_substrate, write_result

import numpy as np

from repro.serving import (
    BATCH,
    INTERACTIVE,
    LeastLoadedDispatch,
    ServingEngine,
    SloPreemption,
    poisson_trace,
)
from repro.specdec import RequestEventKind, SdStrategy
from repro.workload import LognormalLengths

NUM_WORKERS = 2
MAX_BATCH = 2
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8)

#: Long-tail background rollouts (the paper's RL traffic).
NUM_BATCH = 12
BATCH_LENGTHS = LognormalLengths(median=80.0, sigma=0.4, cap=160)
BATCH_GAP = 1.0

#: Short latency-critical requests arriving over the rollout floor.
NUM_INTERACTIVE = 16
INTERACTIVE_LENGTHS = LognormalLengths(median=5.0, sigma=0.4, cap=10)
INTERACTIVE_GAP = 2.5


def _mixed_trace(vocab_size: int):
    """BATCH floor + INTERACTIVE stream, merged by arrival time."""
    rng = np.random.default_rng(23)
    floor = poisson_trace(
        rng,
        num_requests=NUM_BATCH,
        mean_interarrival=BATCH_GAP,
        length_model=BATCH_LENGTHS,
        vocab_size=vocab_size,
        slo_mix=((BATCH, 1.0),),
        start_id=0,
    )
    stream = poisson_trace(
        rng,
        num_requests=NUM_INTERACTIVE,
        mean_interarrival=INTERACTIVE_GAP,
        length_model=INTERACTIVE_LENGTHS,
        vocab_size=vocab_size,
        slo_mix=((INTERACTIVE, 1.0),),
        start_id=NUM_BATCH,
    )
    return sorted(floor + stream, key=lambda r: r.arrival_time)


def _run(target, drafter, trace, preemption):
    frontend = ServingEngine(
        target,
        drafter,
        num_workers=NUM_WORKERS,
        strategy=STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=MAX_BATCH,
        dispatch=LeastLoadedDispatch(),
        preemption=preemption,
    )
    return frontend, frontend.run(trace)


def test_preemption(benchmark):
    target, drafter, _ = trained_substrate()
    trace = _mixed_trace(target.config.vocab_size)

    def sweep():
        return {
            "no-preemption": _run(target, drafter, trace, None),
            "slo-preemption": _run(
                target, drafter, trace, SloPreemption()
            ),
        }

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_responses = [
        tuple(r.response) for r in grid["no-preemption"][1].records
    ]
    rows = []
    for label in ("no-preemption", "slo-preemption"):
        frontend, report = grid[label]
        per_class = report.per_class()
        inter = per_class["interactive"]
        batch = per_class["batch"]
        responses = [tuple(r.response) for r in report.records]
        rows.append(
            [
                label,
                f"{inter['p99_latency']:.1f}",
                f"{inter['slo_attainment']:.0%}",
                f"{batch['p99_latency']:.1f}",
                f"{report.slo_attainment:.0%}",
                report.preemptions,
                f"{report.ticks:.0f}",
                "yes" if responses == base_responses else "NO",
            ]
        )
    write_result(
        "preemption",
        format_table(
            [
                "policy", "inter p99", "inter SLO", "batch p99",
                "SLO all", "parks", "ticks", "identical",
            ],
            rows,
        ),
    )

    _, base = grid["no-preemption"]
    frontend, pre = grid["slo-preemption"]
    base_inter = base.per_class()["interactive"]
    pre_inter = pre.per_class()["interactive"]

    # Preemption actually fired.
    assert pre.preemptions > 0
    events = frontend.lifecycle_events()
    assert any(e.kind is RequestEventKind.PREEMPTED for e in events)
    assert any(e.kind is RequestEventKind.RESUMED for e in events)
    # The acceptance criteria: INTERACTIVE p99 latency and SLO
    # attainment improve vs the no-preemption baseline.
    assert pre_inter["p99_latency"] < base_inter["p99_latency"]
    assert pre_inter["slo_attainment"] > base_inter["slo_attainment"]
    # Zero dropped requests in either class, and parking/resuming never
    # moved a single committed token.
    assert all(r.finished for r in pre.records)
    assert [tuple(r.response) for r in pre.records] == base_responses
