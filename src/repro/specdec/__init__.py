"""Speculative decoding core (paper §2.2, §5.1).

Implements the mathematically lossless accept/reject rule (multi-round
speculative sampling of SpecInfer; with one candidate per node it is the
chain rule of Leviathan et al.), confidence-guided draft-tree construction
(Figure 9; a chain is the ``topk = 1`` tree, ``SdStrategy(d, 1, d)``), and
the end-to-end speculative generation loop used by every accept-length and
speedup experiment.
"""

from repro.specdec.batch_engine import (
    BatchedGenerationResult,
    BatchedSpecDecodeEngine,
    EngineStep,
)
from repro.specdec.control import (
    AdmissionPolicy,
    AdmissionView,
    EventBus,
    FifoAdmission,
    PrefixAwareAdmission,
    RequestEvent,
    RequestEventKind,
)
from repro.specdec.engine import speculative_generate
from repro.specdec.metrics import (
    AcceptanceProfile,
    SdCycleStats,
    SdRunMetrics,
    WorkerCounters,
)
from repro.specdec.scheduler import (
    BatchCycleReport,
    ContinuousBatchScheduler,
    RequestState,
    SequenceSlot,
)
from repro.specdec.strategy import SdStrategy, default_strategy_pool
from repro.specdec.tree import (
    DraftBatch,
    GrowMap,
    Verdicts,
    build_draft_trees,
    verify_trees,
)

__all__ = [
    "SdStrategy",
    "default_strategy_pool",
    "DraftBatch",
    "GrowMap",
    "Verdicts",
    "build_draft_trees",
    "verify_trees",
    "speculative_generate",
    "BatchedSpecDecodeEngine",
    "BatchedGenerationResult",
    "EngineStep",
    "BatchCycleReport",
    "ContinuousBatchScheduler",
    "RequestState",
    "SequenceSlot",
    "EventBus",
    "RequestEvent",
    "RequestEventKind",
    "AdmissionPolicy",
    "AdmissionView",
    "FifoAdmission",
    "PrefixAwareAdmission",
    "SdCycleStats",
    "SdRunMetrics",
    "AcceptanceProfile",
    "WorkerCounters",
]
