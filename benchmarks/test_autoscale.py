"""Elastic autoscaling: the scenario-zoo scoreboard.

Three adversarially shaped traces — a flash crowd, a diurnal sinusoid,
and a square-wave burst train with long-tail stragglers — each served
by three fleets: a static 1-replica fleet (cheap, drowns at peak), a
static 4-replica fleet (meets SLO, idles off-peak), and an autoscaled
fleet that starts at 1 replica and lets a hysteresis policy ride the
load.  Cost is ``worker_cycles``: provisioned worker-ticks, what you
pay whether or not the workers are busy.

Asserted shape (the elasticity claim):

* flash crowd: the autoscaled fleet matches the static-large fleet's
  SLO attainment at measurably fewer worker-cycles, and beats the
  static-small fleet on SLO;
* every autoscaled run is zero-drop — scale-in drains migrate queued
  work, and each request id is served exactly once;
* under the oscillating adversarial trace, hysteresis (watermark band
  + asymmetric cooldowns) executes fewer membership changes and
  cheaper ring movement than a thrash-prone no-band/no-cooldown
  reference policy.
"""

from __future__ import annotations

from _common import format_table, trained_substrate, write_result

import numpy as np

from repro.autoscale import Autoscaler, HysteresisPolicy
from repro.fleet import FleetEngine
from repro.serving import ServingEngine
from repro.specdec import SdStrategy
from repro.workload import (
    adversarial_longtail_trace,
    diurnal_trace,
    flash_crowd_trace,
)
from repro.workload.scenarios import SCENARIO_SLO

NUM_WORKERS = 2
MAX_BATCH = 2
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8)
KV_CACHE_TOKENS = 4096
MAX_REPLICAS = HysteresisPolicy.MAX_REPLICAS
WARMUP_TICKS = 1
MAX_TICKS = 20_000


def _policy():
    return HysteresisPolicy(
        high_watermark=1.1,
        low_watermark=0.45,
        out_cooldown=2,
        in_cooldown=12,
        surge_factor=1.8,
    )


def _naive_policy():
    # The thrash reference: no watermark band, no cooldowns.  Every
    # pressure wiggle becomes a membership change.
    return HysteresisPolicy(
        high_watermark=0.9,
        low_watermark=0.85,
        out_cooldown=0,
        in_cooldown=0,
        surge_factor=1.8,
    )


def _scenarios(vocab_size):
    return {
        "flash-crowd": lambda: flash_crowd_trace(
            np.random.default_rng(17),
            vocab_size,
            num_base=24,
            num_crowd=60,
            crowd_interarrival=0.25,
            slo=SCENARIO_SLO,
        ),
        "diurnal": lambda: diurnal_trace(
            np.random.default_rng(23), vocab_size, num_requests=90
        ),
        "adversarial": lambda: adversarial_longtail_trace(
            np.random.default_rng(29), vocab_size
        ),
    }


def test_autoscale(benchmark):
    target, drafter, _ = trained_substrate()
    scenarios = _scenarios(target.config.vocab_size)

    def pool():
        return ServingEngine(
            target,
            drafter,
            num_workers=NUM_WORKERS,
            strategy=STRATEGY,
            temperature=TEMPERATURE,
            max_batch_size=MAX_BATCH,
            kv_cache_tokens=KV_CACHE_TOKENS,
        )

    def run_static(trace, replicas):
        fleet = FleetEngine([pool() for _ in range(replicas)])
        return fleet.run(trace, max_ticks=MAX_TICKS), None

    def run_autoscaled(trace, policy_fn=_policy):
        fleet = FleetEngine([pool()], warmup_ticks=WARMUP_TICKS)
        scaler = Autoscaler(
            fleet, replica_factory=pool, policy=policy_fn()
        )
        report = fleet.run(
            trace, on_tick=scaler.on_tick, max_ticks=MAX_TICKS
        )
        return report, scaler

    def sweep():
        grid = {}

        def measure(scenario, label, run_fn):
            report, scaler = run_fn()
            grid[scenario, label] = {
                "report": report,
                "scaler": scaler,
            }

        for scenario, make_trace in scenarios.items():
            measure(
                scenario,
                "static-small",
                lambda t=make_trace: run_static(t(), 1),
            )
            measure(
                scenario,
                "static-large",
                lambda t=make_trace: run_static(t(), MAX_REPLICAS),
            )
            measure(
                scenario,
                "autoscaled",
                lambda t=make_trace: run_autoscaled(t()),
            )
        # Thrash reference on the oscillating trace only: same
        # actuation, no hysteresis.
        measure(
            "adversarial",
            "no-hysteresis",
            lambda: run_autoscaled(
                scenarios["adversarial"](), _naive_policy
            ),
        )
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for (scenario, label), run in grid.items():
        report, scaler = run["report"], run["scaler"]
        peak = (
            max(
                s.active_replicas + s.joining_replicas
                for s in scaler.signals.snapshots
            )
            if scaler
            else int(report.summary().get("replicas", 1))
        )
        rows.append(
            [
                scenario,
                label,
                peak,
                f"{report.slo_attainment:.0%}",
                f"{report.p99_latency:.1f}",
                report.worker_cycles,
                scaler.membership_changes if scaler else "",
                sum(e.ring_moves for e in scaler.events)
                if scaler
                else "",
                report.migrations,
            ]
        )
    write_result(
        "autoscale",
        format_table(
            [
                "scenario", "config", "peak", "slo", "p99",
                "cycles", "scales", "ring", "migr",
            ],
            rows,
        ),
    )

    def served_ids(report):
        return sorted(
            record.request.request_id
            for pool_report in report.replica_reports
            for record in pool_report.records
        )

    # Zero-drop: every autoscaled run serves each request id exactly
    # once — scale-in drains migrate queued work instead of losing it.
    for (scenario, label), run in grid.items():
        if run["scaler"] is None:
            continue
        trace = scenarios[scenario]()
        assert served_ids(run["report"]) == sorted(
            r.request_id for r in trace
        ), (scenario, label)

    # The elasticity claim, on the flash crowd: match the static-large
    # fleet's SLO at measurably fewer provisioned worker-cycles, and
    # beat the undersized static fleet on SLO.
    small = grid["flash-crowd", "static-small"]["report"]
    large = grid["flash-crowd", "static-large"]["report"]
    auto = grid["flash-crowd", "autoscaled"]["report"]
    assert auto.slo_attainment >= large.slo_attainment
    assert auto.worker_cycles < large.worker_cycles
    assert auto.slo_attainment > small.slo_attainment

    # Hysteresis bounds thrash under oscillating load: strictly fewer
    # membership changes and cheaper ring movement than the no-band,
    # no-cooldown reference riding the same burst train.
    calm = grid["adversarial", "autoscaled"]["scaler"]
    thrash = grid["adversarial", "no-hysteresis"]["scaler"]
    assert calm.membership_changes < thrash.membership_changes
    assert sum(e.ring_moves for e in calm.events) < sum(
        e.ring_moves for e in thrash.events
    )
    # And the bound is absolute, not just relative: at most two
    # membership changes per burst cycle (one out, one in).
    adversarial_bursts = 4
    assert calm.membership_changes <= 4 * adversarial_bursts
