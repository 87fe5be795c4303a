"""Fleet tier: prefix-hash routing vs replica-oblivious round-robin.

The sharded-serving claim at fleet scale: M replicas (each a full
serving pool with per-worker prefix caches) behind a router.  Routing
by a consistent hash of the prompt prefix concentrates every tenant's
shared-prefix traffic — and every GRPO group's shared prompt — on ONE
replica, so each family pays its prefill once fleet-wide; round-robin
over replicas scatters each family across all M and pays the prefill
again on (up to) every replica.

Asserted shape:

* the prefix-hash fleet launches >= 2x fewer prefills than the
  round-robin fleet on the grouped-rollout + shared-prefix trace;
* p99 latency and SLO attainment are no worse than round-robin;
* every configuration — both fleets, a static-snapshot replay, and a
  single-pool reference — commits byte-identical tokens: routing moves
  work, never outputs (the determinism contract).
"""

from __future__ import annotations

from _common import format_table, trained_substrate, write_result

import numpy as np

from repro.fleet import (
    FleetEngine,
    FleetRoundRobin,
    PrefixHashRouting,
)
from repro.serving import (
    LeastLoadedDispatch,
    PrefixAffinityDispatch,
    ServingEngine,
)
from repro.specdec import PrefixAwareAdmission, SdStrategy
from repro.workload import fleet_trace

NUM_REPLICAS = 4
NUM_WORKERS = 2
MAX_BATCH = 2
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8)
KV_CACHE_TOKENS = 4096

#: Multi-tenant stream: 8 tenants each reusing one prompt family, over
#: a rollout floor of 4 GRPO groups x 4 members sharing prompts.
NUM_TENANTS = 8
PER_TENANT = 5
NUM_GROUPS = 4
GROUP_SIZE = 4
TRACE_SEED = 41


def _trace(vocab_size):
    return fleet_trace(
        np.random.default_rng(TRACE_SEED),
        vocab_size,
        num_tenants=NUM_TENANTS,
        requests_per_tenant=PER_TENANT,
        num_batch=NUM_GROUPS * GROUP_SIZE,
        batch_group_size=GROUP_SIZE,
        prefix_len=4,
        mean_interarrival=2.0,
        batch_gap=3.0,
    )


def _pool(target, drafter):
    return ServingEngine(
        target,
        drafter,
        num_workers=NUM_WORKERS,
        strategy=STRATEGY,
        temperature=TEMPERATURE,
        max_batch_size=MAX_BATCH,
        dispatch=PrefixAffinityDispatch(fallback=LeastLoadedDispatch()),
        group_affinity=True,
        # Keep placement under the routing policies being measured —
        # stealing would smear a family's prefill across caches.
        work_stealing=False,
        admission=PrefixAwareAdmission(),
        kv_cache_tokens=KV_CACHE_TOKENS,
    )


def _fleet(target, drafter, routing):
    return FleetEngine(
        [_pool(target, drafter) for _ in range(NUM_REPLICAS)],
        routing=routing,
    )


def test_fleet_serving(benchmark):
    target, drafter, _ = trained_substrate()
    vocab_size = target.config.vocab_size
    trace = _trace(vocab_size)

    def sweep():
        grid = {}

        def measure(label, run_fn):
            report = run_fn()
            grid[label] = {"report": report}
            return report

        measure(
            "single-pool",
            lambda: _pool(target, drafter).run(trace),
        )
        measure(
            "fleet-rr",
            lambda: _fleet(
                target, drafter, FleetRoundRobin()
            ).run(trace),
        )
        # Spilling is load-shedding insurance for sustained hot spots;
        # at this trace's load a tight threshold would trade warm
        # cache hits for balance, so give affinity generous headroom
        # (the spill path itself is exercised by the unit tests).
        hash_fleet = _fleet(
            target,
            drafter,
            PrefixHashRouting(spill_factor=4.0, spill_margin=128),
        )
        measure("fleet-hash", lambda: hash_fleet.run(trace))
        snapshot = hash_fleet.snapshot_routing()
        measure(
            "hash-replay",
            lambda: _fleet(target, drafter, snapshot).run(trace),
        )
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for label, run in grid.items():
        report = run["report"]
        summary = report.summary()
        rows.append(
            [
                label,
                int(summary.get("replicas", 1)),
                report.prefill_launches,
                report.prefill_launches_saved,
                f"{report.prefix_hit_rate:.0%}",
                f"{report.p99_latency:.2f}",
                f"{report.slo_attainment:.0%}",
                int(summary.get("spills", 0)),
            ]
        )
    rr = grid["fleet-rr"]["report"]
    hashed = grid["fleet-hash"]["report"]
    rows.append(
        [
            "amortisation",
            "",
            f"{rr.prefill_launches / max(hashed.prefill_launches, 1):.1f}x",
            "", "", "", "", "",
        ]
    )
    write_result(
        "fleet_serving",
        format_table(
            [
                "config", "replicas", "prefill", "saved", "hit rate",
                "p99", "slo", "spills",
            ],
            rows,
        ),
    )

    def responses(report):
        pooled = (
            report.pooled() if hasattr(report, "pooled") else report
        )
        return {
            r.request.request_id: r.response for r in pooled.records
        }

    # Determinism contract: every configuration commits byte-identical
    # tokens — sharding and routing move work, never outputs.
    reference = responses(grid["single-pool"]["report"])
    assert len(reference) == len(trace)
    for label, run in grid.items():
        assert responses(run["report"]) == reference, label

    # Prefix-hash concentrates each tenant/group on one replica, so
    # each family's prefill amortises fleet-wide: >= 2x fewer launches
    # than round-robin scattering the family across all M replicas.
    assert hashed.prefill_launches * 2 <= rr.prefill_launches

    # And the cache win is not bought with tail latency or SLO: no
    # worse than the round-robin fleet on the same trace.
    assert hashed.p99_latency <= rr.p99_latency * 1.01
    assert hashed.slo_attainment >= rr.slo_attainment

    # The static-snapshot replay reproduced the hash fleet's placement
    # (same routed counts), not just its outputs.
    assert (
        grid["hash-replay"]["report"].routed == hashed.routed
    )
