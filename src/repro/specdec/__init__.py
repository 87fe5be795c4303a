"""Speculative decoding core (paper §2.2, §5.1).

Implements the mathematically lossless accept/reject rules (chain rule of
Leviathan et al. for linear drafts, multi-round speculative sampling of
SpecInfer for tree drafts), confidence-guided draft-tree construction
(Figure 9), and the end-to-end speculative generation loop used by every
accept-length and speedup experiment.
"""

from repro.specdec.acceptance import (
    AcceptResult,
    accept_token,
    multi_round_accept,
    residual_distribution,
)
from repro.specdec.batch_engine import (
    BatchedGenerationResult,
    BatchedSpecDecodeEngine,
    EngineStep,
    make_serving_request,
)
from repro.specdec.control import (
    AdmissionPolicy,
    AdmissionView,
    EngineControl,
    EventBus,
    FifoAdmission,
    PrefixAwareAdmission,
    RequestEvent,
    RequestEventKind,
)
from repro.specdec.engine import (
    SpeculativeGenerationOutput,
    speculative_generate,
)
from repro.specdec.linear import (
    LinearDraftResult,
    draft_chain,
    linear_decode_step,
    linear_decode_steps,
)
from repro.specdec.metrics import (
    AcceptanceProfile,
    SdCycleStats,
    SdRunMetrics,
)
from repro.specdec.scheduler import (
    BatchCycleReport,
    ContinuousBatchScheduler,
    RequestLifecycle,
    SequenceRequest,
    SequenceSlot,
)
from repro.specdec.strategy import SdStrategy, default_strategy_pool
from repro.specdec.tree import (
    FlatDraftTree,
    GrowMap,
    build_draft_trees,
    verify_tree,
    verify_trees,
)

__all__ = [
    "SdStrategy",
    "default_strategy_pool",
    "AcceptResult",
    "accept_token",
    "multi_round_accept",
    "residual_distribution",
    "FlatDraftTree",
    "GrowMap",
    "build_draft_trees",
    "verify_tree",
    "verify_trees",
    "LinearDraftResult",
    "draft_chain",
    "linear_decode_step",
    "linear_decode_steps",
    "speculative_generate",
    "SpeculativeGenerationOutput",
    "BatchedSpecDecodeEngine",
    "BatchedGenerationResult",
    "EngineStep",
    "make_serving_request",
    "BatchCycleReport",
    "ContinuousBatchScheduler",
    "RequestLifecycle",
    "SequenceRequest",
    "SequenceSlot",
    "EngineControl",
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
]
