"""Online serving front-end over the batched spec-decode engine.

Opens the online-serving workload beyond RL training: requests arrive
over discrete-event virtual time with SLO classes and per-request
cancellation, an SLO-aware dispatcher routes them across N
continuous-batching workers using predicted-length-aware policies with
work stealing, and per-request latency/TTFT/SLO-attainment metrics close
the loop back into the adaptive SD layer — each worker's
:class:`~repro.rollout.adaptive.AdaptiveSdManager` sees its own live
batch every cycle.

The layer drives the engine's lifecycle methods
(:mod:`repro.specdec.control`): an optional
:class:`SloPreemption` policy parks live BATCH stragglers
byte-identically for urgent arrivals,
:meth:`ServingEngine.swap_drafter` rolls refreshed drafter weights
across the pool one worker per tick with zero downtime, and every
lifecycle transition is published on a pool-wide event trail
(:meth:`ServingEngine.lifecycle_events`).
"""

from repro.serving.clock import VirtualClock
from repro.serving.dispatch import (
    DispatchPolicy,
    LeastLoadedDispatch,
    LongTailDispatch,
    PreemptionAwareDispatch,
    PreemptionPolicy,
    PrefixAffinityDispatch,
    RoundRobinDispatch,
    SegmentAffinityDispatch,
    SloPreemption,
    steal_work,
)
from repro.serving.frontend import ServingEngine, ServingWorker
from repro.serving.metrics import RequestRecord, ServingReport
from repro.serving.request import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    RequestIdAllocator,
    RequestState,
    ServingRequest,
    SloClass,
    poisson_trace,
)

__all__ = [
    "VirtualClock",
    "DispatchPolicy",
    "RoundRobinDispatch",
    "LeastLoadedDispatch",
    "LongTailDispatch",
    "PreemptionPolicy",
    "PrefixAffinityDispatch",
    "PreemptionAwareDispatch",
    "SegmentAffinityDispatch",
    "SloPreemption",
    "steal_work",
    "ServingEngine",
    "ServingWorker",
    "RequestRecord",
    "RequestIdAllocator",
    "ServingReport",
    "ServingRequest",
    "SloClass",
    "RequestState",
    "poisson_trace",
    "INTERACTIVE",
    "STANDARD",
    "BATCH",
]
