"""Elastic autoscaling: a 1-replica fleet rides out a flash crowd.

Builds a fleet that starts as a single 2-worker pool, wires an
:class:`~repro.autoscale.controller.Autoscaler` (hysteresis policy,
watermarks 1.25 / 0.45, fast scale-out + slow scale-in cooldowns) onto
its run loop, and drives a :func:`~repro.workload.scenarios.
flash_crowd_trace` through it: a calm Poisson baseline shattered
mid-run by a crowd arriving an order of magnitude faster, spread over
fresh prompt families.

Watch the audit trail: pressure crosses the high watermark a few ticks
into the crowd, replicas are added (warming up before they join the
ring), the crowd drains, and the slow cooldown retires the extra
replicas one zero-drop drain at a time — every decision logged with
the pressure snapshot that triggered it and the ring movement it cost.

Run:  python examples/autoscaled_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro.autoscale import Autoscaler, HysteresisPolicy
from repro.drafter import EagleDrafter, EagleDrafterConfig
from repro.fleet import FleetEngine
from repro.llm import TinyLMConfig
from repro.llm.pretrain import pretrained_target
from repro.serving import ServingEngine
from repro.specdec import SdStrategy
from repro.workload import flash_crowd_trace

NUM_WORKERS = 2


def main() -> None:
    rng = np.random.default_rng(0)
    config = TinyLMConfig(
        vocab_size=32, hidden_size=32, context_window=4, num_layers=4,
        init_scale=0.8,
    )
    target = pretrained_target(config, rng, chain_prob=0.75)
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    strategy = SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8)

    def build_pool() -> ServingEngine:
        return ServingEngine(
            target,
            drafter,
            num_workers=NUM_WORKERS,
            strategy=strategy,
            temperature=0.7,
            max_batch_size=2,
            kv_cache_tokens=4096,
        )

    trace = flash_crowd_trace(
        np.random.default_rng(7),
        config.vocab_size,
        num_base=30,
        num_crowd=60,
        crowd_interarrival=0.3,
    )
    print(
        f"trace: {len(trace)} requests — calm baseline, then a crowd "
        f"arriving ~13x faster over fresh prompt families\n"
    )

    fleet = FleetEngine([build_pool()], warmup_ticks=2)
    scaler = Autoscaler(
        fleet,
        replica_factory=build_pool,
        policy=HysteresisPolicy(
            high_watermark=1.25,
            low_watermark=0.45,
            out_cooldown=3,
            in_cooldown=12,
        ),
    )
    report = fleet.run(trace, on_tick=scaler.on_tick)

    print("=== audit trail ===")
    for event in scaler.events:
        ids = (
            f" replicas={event.replica_ids}"
            if event.replica_ids
            else ""
        )
        moves = (
            f" ring_moves={event.ring_moves}"
            if event.ring_moves
            else ""
        )
        print(
            f"t={event.time:>5.0f}  {event.decision.action.value:<14}"
            f"x{event.decision.magnitude}{ids}{moves}  "
            f"[{event.decision.reason}]"
        )

    print("\n=== outcome ===")
    peak = max(
        s.active_replicas + s.joining_replicas
        for s in scaler.signals.snapshots
    )
    print(f"  requests served     : {report.num_requests}")
    print(f"  peak replicas       : {peak} (started at 1)")
    print(f"  final replicas      : "
          f"{sum(1 for r in fleet.replicas if r.state.value == 'active')}")
    print(f"  slo attainment      : {report.slo_attainment:.0%}")
    print(f"  p99 latency         : {report.p99_latency:.1f}")
    print(f"  worker cycles (cost): {report.worker_cycles}")
    print(f"  membership changes  : {scaler.membership_changes}")
    print(f"  migrations          : {report.migrations}")

    ids = sorted(
        record.request.request_id
        for pool_report in report.replica_reports
        for record in pool_report.records
    )
    assert ids == sorted(r.request_id for r in trace)
    print("\nzero-drop: every request id served exactly once")


if __name__ == "__main__":
    main()
