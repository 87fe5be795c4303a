"""CUDAGraph capture pool with memory-efficient bucketed capture.

Reproduces §5.1's "Memory-Efficient CUDAGraph Capture" (Figure 10) and the
Table 5 footprint comparison.  A captured graph pins activation buffers
sized for its ``(role, batch_bucket, tokens)`` configuration, so memory
grows with the number of *distinct* captures:

* ``single_strategy_plan`` — one SD strategy across all batch buckets
  (Figure 10a);
* ``vanilla_multi_plan`` — every strategy x every bucket for both target
  and draft models (Figure 10b, memory grows linearly in strategies);
* ``bucketed_plan`` — the paper's optimisation (Figure 10c):
  (1) each strategy only covers the batch-bucket range it is actually
  selected for (bigger batches verify fewer tokens),
  (2) target and draft captures are disaggregated (a key is
  ``tokens_to_verify`` for the target but ``topk`` for the drafter), and
  (3) identical keys across strategies are merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import HardwareModelError, OutOfMemoryError
from repro.hardware.gpus import BYTES_PER_PARAM, ModelSpec, drafter_spec
from repro.specdec.strategy import SdStrategy

_GIB = 1024.0**3

#: Batch-size buckets every capture plan covers, ascending.
BATCH_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Fixed per-graph bookkeeping bytes (graph topology, cuBLAS workspaces,
#: stream state).  Calibrated with the activation factors below so the
#: Table 5 footprints land near the paper's measurements.
GRAPH_FIXED_BYTES: float = 0.3 * _GIB

#: Per-sequence persistent workspace factor (padded static buffers sized
#: for the capture's batch bucket, independent of verify tokens).
SEQ_ACT_FACTOR: float = 700.0

#: Per-token activation factor (the smaller, token-count-dependent part).
TOK_ACT_FACTOR: float = 3.0

#: TP degree of the pool's placement (activations shard across ranks).
TENSOR_PARALLEL = 4

#: Bytes the pool may pin, in GB (a guard above any plan's footprint).
MEMORY_BUDGET_GB = 500


@dataclass(frozen=True)
class CaptureKey:
    """Identity of one captured graph.

    Attributes:
        role: ``"target"`` or ``"draft"``.
        batch_bucket: padded batch size the graph was captured at.
        tokens: tokens per sequence inside the capture
            (``tokens_to_verify + 1`` for the target role, ``topk`` for
            the draft role).
        tag: disambiguator for capture plans that deliberately do NOT
            share graphs across strategies (the vanilla multi-strategy
            baseline of Figure 10b); empty for shareable captures.
    """

    role: str
    batch_bucket: int
    tokens: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.role not in ("target", "draft"):
            raise HardwareModelError(
                f"role must be 'target' or 'draft', got {self.role!r}"
            )
        if self.batch_bucket < 1 or self.tokens < 1:
            raise HardwareModelError(
                "batch_bucket and tokens must be >= 1"
            )


@dataclass
class CapturePlan:
    """A set of capture keys plus the strategy routing table.

    Attributes:
        keys: distinct graphs to capture.
        routing: maps (strategy, batch_bucket) -> (target key, draft key),
            the lookup the Adaptive SD Manager performs per input batch.
    """

    keys: List[CaptureKey]
    routing: Dict[Tuple[SdStrategy, int], Tuple[CaptureKey, CaptureKey]] = (
        field(default_factory=dict)
    )


class CudaGraphPool:
    """Captured-graph memory accounting and lookup for one target model
    (and its drafter) at ``TENSOR_PARALLEL`` ranks under a
    ``MEMORY_BUDGET_GB`` budget."""

    def __init__(self, target: ModelSpec) -> None:
        self.target = target
        self.drafter = drafter_spec(target)
        self.memory_budget_bytes = MEMORY_BUDGET_GB * _GIB
        self._captured: Dict[CaptureKey, float] = {}
        self._routing: Dict[
            Tuple[SdStrategy, int], Tuple[CaptureKey, CaptureKey]
        ] = {}

    # -- memory model ----------------------------------------------------

    def graph_bytes(self, key: CaptureKey) -> float:
        """Buffer bytes pinned by one captured graph.

        Two components beyond the fixed bookkeeping cost: a per-sequence
        padded workspace (static buffers sized for the batch bucket, the
        dominant term in real engines) and a smaller token-count-dependent
        activation term.
        """
        model = self.target if key.role == "target" else self.drafter
        unit = model.hidden_size * model.num_layers * BYTES_PER_PARAM
        seq_ws = key.batch_bucket * unit * SEQ_ACT_FACTOR
        tok_ws = key.batch_bucket * key.tokens * unit * TOK_ACT_FACTOR
        return (seq_ws + tok_ws) / TENSOR_PARALLEL + GRAPH_FIXED_BYTES

    def capture(self, key: CaptureKey) -> float:
        """Capture one graph (idempotent); returns its byte cost.

        Raises:
            OutOfMemoryError: if capturing would exceed the budget.
        """
        if key in self._captured:
            return self._captured[key]
        cost = self.graph_bytes(key)
        if self.total_bytes + cost > self.memory_budget_bytes:
            raise OutOfMemoryError(
                f"capturing {key} needs {cost / _GIB:.2f} GiB; pool at "
                f"{self.total_gib:.2f}/"
                f"{self.memory_budget_bytes / _GIB:.2f} GiB"
            )
        self._captured[key] = cost
        return cost

    def capture_plan(self, plan: CapturePlan) -> None:
        """Capture every key in a plan and install its routing table."""
        for key in plan.keys:
            self.capture(key)
        self._routing.update(plan.routing)

    @property
    def total_bytes(self) -> float:
        """Bytes pinned by all captured graphs."""
        return sum(self._captured.values())

    @property
    def total_gib(self) -> float:
        """GiB pinned by all captured graphs."""
        return self.total_bytes / _GIB

    @property
    def num_graphs(self) -> int:
        """Number of distinct captured graphs."""
        return len(self._captured)

    # -- lookup -------------------------------------------------------------

    def lookup(
        self, strategy: SdStrategy, batch_size: int
    ) -> Tuple[CaptureKey, CaptureKey]:
        """Resolve the (target, draft) graphs serving a live batch.

        The smallest captured bucket >= ``batch_size`` is used (graphs run
        padded).
        """
        candidates = [
            (bucket, keys)
            for (strat, bucket), keys in self._routing.items()
            if strat == strategy and bucket >= batch_size
        ]
        if not candidates:
            raise HardwareModelError(
                f"no captured graph serves {strategy.describe()} at "
                f"batch {batch_size}"
            )
        _, keys = min(candidates, key=lambda item: item[0])
        return keys


def single_strategy_plan(
    strategy: SdStrategy,
) -> CapturePlan:
    """Figure 10(a): one strategy, graphs for every batch bucket."""
    keys: List[CaptureKey] = []
    routing = {}
    for bucket in BATCH_BUCKETS:
        target_key = CaptureKey("target", bucket, strategy.tokens_to_verify + 1)
        draft_key = CaptureKey("draft", bucket, strategy.topk)
        keys.extend([target_key, draft_key])
        routing[(strategy, bucket)] = (target_key, draft_key)
    return CapturePlan(keys=keys, routing=routing)


def vanilla_multi_plan(
    strategies: Sequence[SdStrategy],
) -> CapturePlan:
    """Figure 10(b): every strategy captures every bucket independently.

    No sharing (keys are tagged per strategy): memory grows linearly with
    the number of strategies.
    """
    keys: List[CaptureKey] = []
    routing = {}
    for strategy in strategies:
        tag = strategy.describe()
        for bucket in BATCH_BUCKETS:
            target_key = CaptureKey(
                "target", bucket, strategy.tokens_to_verify + 1, tag=tag
            )
            draft_key = CaptureKey("draft", bucket, strategy.topk, tag=tag)
            keys.extend([target_key, draft_key])
            routing[(strategy, bucket)] = (target_key, draft_key)
    return CapturePlan(keys=keys, routing=routing)


def bucketed_plan(
    strategies: Sequence[SdStrategy],
) -> CapturePlan:
    """Figure 10(c): the paper's memory-efficient capture.

    Strategies are sorted by ``tokens_to_verify`` descending and each is
    assigned a contiguous slice of the batch-bucket range (most verify
    tokens -> smallest batches).  Target and draft captures are
    disaggregated and identical keys merged.
    """
    if not strategies:
        raise HardwareModelError("strategies must be non-empty")
    ordered = sorted(
        strategies, key=lambda s: -s.tokens_to_verify
    )
    slices = _split_buckets(BATCH_BUCKETS, len(ordered))
    # Boundary overlap: each strategy also covers the first bucket of the
    # next slice, so the MAB has >= 2 candidates at bucket boundaries and
    # batch-size drift across a threshold never forces a re-capture.
    for i in range(len(slices) - 1):
        slices[i] = slices[i] + [slices[i + 1][0]]

    seen: Dict[CaptureKey, None] = {}
    keys: List[CaptureKey] = []
    routing = {}
    for strategy, bucket_slice in zip(ordered, slices):
        for bucket in bucket_slice:
            target_key = CaptureKey(
                "target", bucket, strategy.tokens_to_verify + 1
            )
            draft_key = CaptureKey("draft", bucket, strategy.topk)
            for key in (target_key, draft_key):
                if key not in seen:
                    seen[key] = None
                    keys.append(key)
            # Later (smaller-V) strategies own the routing at shared
            # buckets; overlap keys remain available for exploration.
            routing[(strategy, bucket)] = (target_key, draft_key)
    return CapturePlan(keys=keys, routing=routing)


def _split_buckets(
    buckets: Sequence[int], parts: int
) -> List[List[int]]:
    """Partition buckets into ``parts`` contiguous groups, small first."""
    out: List[List[int]] = []
    n = len(buckets)
    base, extra = divmod(n, parts)
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        group = list(buckets[start : start + size])
        start += size
        if not group:  # more strategies than buckets: reuse the last bucket
            group = [buckets[-1]]
        out.append(group)
    return out
