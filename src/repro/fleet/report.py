"""Fleet-wide observability: per-replica reports + one rolled-up view.

A fleet run produces one :class:`~repro.serving.metrics.ServingReport`
per replica (each already aggregating its own workers).  The
:class:`FleetReport` keeps those per-replica views — capacity planning
needs them — and rolls everything into fleet-wide numbers by pooling
the records and per-worker counters into one synthetic
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
        for report in self.replica_reports:
            records.extend(report.records)
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
            worker_busy_cycles=self._concat("worker_busy_cycles"),
            worker_target_steps=self._concat("worker_target_steps"),
            stolen=sum(r.stolen for r in self.replica_reports),
            policy=self.policy,
            class_slot_cycles=self._sum_dicts("class_slot_cycles"),
            pool_slot_capacity=capacity,
            worker_prefix_hits=self._concat("worker_prefix_hits"),
            worker_prefix_misses=self._concat("worker_prefix_misses"),
            worker_prefill_launches=self._concat(
                "worker_prefill_launches"
            ),
            worker_prefill_saved=self._concat("worker_prefill_saved"),
            worker_draft_launches=self._concat("worker_draft_launches"),
            worker_draft_saved=self._concat("worker_draft_saved"),
            worker_prefill_tokens=self._concat("worker_prefill_tokens"),
            worker_prefill_tokens_saved=self._concat(
                "worker_prefill_tokens_saved"
            ),
            worker_cache_demotions=self._concat(
                "worker_cache_demotions"
            ),
            worker_cache_promotions=self._concat(
                "worker_cache_promotions"
            ),
            worker_cache_cold_hits=self._concat(
                "worker_cache_cold_hits"
            ),
            worker_cache_cold_evictions=self._concat(
                "worker_cache_cold_evictions"
            ),
            segment_accepted=self._sum_dicts("segment_accepted"),
            segment_drafted=self._sum_dicts("segment_drafted"),
        )

    def _sum_dicts(self, attribute: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for report in self.replica_reports:
            for key, count in getattr(report, attribute).items():
                out[key] = out.get(key, 0) + count
        return out

    def _concat(self, attribute: str) -> List[int]:
        out: List[int] = []
        for report in self.replica_reports:
            out.extend(getattr(report, attribute))
        return out

    # -- headline numbers (delegated to the pooled view) -------------------

    @property
    def num_requests(self) -> int:
        """Requests resolved across the fleet."""
        return sum(len(r.records) for r in self.replica_reports)

    @property
    def p50_latency(self) -> float:
        """Fleet-wide median completion latency."""
        return self.pooled().p50_latency

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

    @property
    def prefill_tokens(self) -> int:
        """Prompt tokens actually prefilled across every replica."""
        return self.pooled().prefill_tokens

    @property
    def prefill_tokens_saved(self) -> int:
        """Prompt tokens avoided fleet-wide (hits + block reuse)."""
        return self.pooled().prefill_tokens_saved

    @property
    def draft_launches(self) -> int:
        """Batched drafter launches issued across every replica."""
        return self.pooled().draft_launches

    @property
    def draft_launches_saved(self) -> int:
        """Drafter launches avoided fleet-wide vs per-node drafting."""
        return self.pooled().draft_launches_saved

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
