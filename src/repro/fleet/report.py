"""Fleet-wide observability: per-replica reports + one rolled-up view.

A fleet run produces one :class:`~repro.serving.metrics.ServingReport`
per replica (each already aggregating its own workers).  The
:class:`FleetReport` keeps those per-replica views — capacity planning
needs them — and rolls everything into fleet-wide numbers by pooling
the records and per-worker counter ledgers into one synthetic
:class:`~repro.serving.metrics.ServingReport` (:meth:`pooled`), so
fleet p50/p99, TTFT, SLO attainment, prefix hit rate, and the
prefill/draft launch-amortisation counters are computed by exactly the
same code the single-pool benchmarks trust.  On top ride the
fleet-only counters: per-replica routing decisions, hot-spot spills,
drain migrations, consistent-hash key movement, completed drains, and
fleet-wide drafter rolls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serving.metrics import RequestRecord, ServingReport


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet run.

    Attributes:
        replica_ids: replica ids in report order.
        replica_states: final lifecycle state name per replica.
        replica_reports: one pool report per replica (same order).
        ticks: fleet virtual time the run spanned.
        policy: routing-policy name (labelling only).
        routed: arrivals routed to each replica (same order; includes
            re-routed migrations).
        spills: arrivals shed off their hashed owner by hot-spot
            spilling.
        migrations: queued/pending requests moved off draining
            replicas.
        ring_moves: previously-routed prefix keys that changed ring
            owner across membership changes.
        drains: replicas drained during the run.
        drafter_rolls: fleet-wide rolling drafter swaps completed.
        worker_cycles: worker-ticks provisioned across the run (every
            non-retired replica charges one cycle per worker per fleet
            tick, busy or idle) — the cost denominator the autoscaling
            scoreboard judges fleets by.
    """

    replica_ids: List[int]
    replica_states: List[str]
    replica_reports: List[ServingReport]
    ticks: float
    policy: str = ""
    routed: List[int] = field(default_factory=list)
    spills: int = 0
    migrations: int = 0
    ring_moves: int = 0
    drains: int = 0
    drafter_rolls: int = 0
    worker_cycles: int = 0

    # -- rolled-up view ----------------------------------------------------

    def pooled(self) -> ServingReport:
        """Every replica's records and counters as ONE pool report.

        The fleet-wide percentiles/SLO/hit-rate numbers come from the
        same :class:`~repro.serving.metrics.ServingReport` arithmetic
        the single-pool layer uses — one implementation to trust.
        """
        records: List[RequestRecord] = []
        capacity: Optional[int] = 0
        class_slot_cycles: Dict[str, int] = {}
        for report in self.replica_reports:
            records.extend(report.records)
            for name, cycles in report.class_slot_cycles.items():
                class_slot_cycles[name] = (
                    class_slot_cycles.get(name, 0) + cycles
                )
            if capacity is not None:
                if report.pool_slot_capacity is None:
                    capacity = None
                else:
                    capacity += report.pool_slot_capacity
        return ServingReport(
            records=sorted(
                records, key=lambda r: r.request.request_id
            ),
            ticks=self.ticks,
            worker_counters=[
                counters
                for report in self.replica_reports
                for counters in report.worker_counters
            ],
            stolen=sum(r.stolen for r in self.replica_reports),
            policy=self.policy,
            class_slot_cycles=class_slot_cycles,
            pool_slot_capacity=capacity,
        )

    # -- headline numbers (delegated to the pooled view) -------------------

    @property
    def num_requests(self) -> int:
        """Requests resolved across the fleet."""
        return sum(len(r.records) for r in self.replica_reports)

    @property
    def p99_latency(self) -> float:
        """Fleet-wide tail completion latency."""
        return self.pooled().p99_latency

    @property
    def slo_attainment(self) -> float:
        """Fraction of all fleet requests meeting their SLO."""
        return self.pooled().slo_attainment

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet-wide exact prefix-cache hit rate."""
        return self.pooled().prefix_hit_rate

    @property
    def prefill_launches(self) -> int:
        """Prefill forwards computed across every replica."""
        return self.pooled().prefill_launches

    @property
    def prefill_launches_saved(self) -> int:
        """Prefill forwards avoided fleet-wide (caches + coalescing)."""
        return self.pooled().prefill_launches_saved

    # -- tables ------------------------------------------------------------

    def per_replica(self) -> List[Dict[str, float]]:
        """One row of headline numbers per replica (report order)."""
        rows: List[Dict[str, float]] = []
        for index, report in enumerate(self.replica_reports):
            routed = (
                float(self.routed[index])
                if index < len(self.routed)
                else 0.0
            )
            rows.append(
                {
                    "replica": float(self.replica_ids[index]),
                    "state": self.replica_states[index],
                    "routed": routed,
                    "requests": float(len(report.records)),
                    "p99_latency": report.p99_latency,
                    "slo_attainment": report.slo_attainment,
                    "prefix_hit_rate": report.prefix_hit_rate,
                    "prefill_launches": float(report.prefill_launches),
                    "prefill_saved": float(
                        report.prefill_launches_saved
                    ),
                }
            )
        return rows

    def summary(self) -> Dict[str, float]:
        """Flat dict of fleet-wide headline numbers (benchmark rows)."""
        pooled = self.pooled()
        out = pooled.summary()
        out.update(
            {
                "replicas": float(len(self.replica_reports)),
                "spills": float(self.spills),
                "migrations": float(self.migrations),
                "ring_moves": float(self.ring_moves),
                "drains": float(self.drains),
                "drafter_rolls": float(self.drafter_rolls),
                "worker_cycles": float(self.worker_cycles),
            }
        )
        return out
