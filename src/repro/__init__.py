"""TLT: Taming the Long-Tail — ASPLOS 2026 reproduction.

A laptop-scale but complete reproduction of *"Taming the Long-Tail:
Efficient Reasoning RL Training with Adaptive Drafter"*: lossless tree
speculative decoding (a chain is ``topk=1``) over a real numpy LM substrate,
EAGLE/HASS/EAGLE-3 drafter training, the BEG-MAB strategy tuner, the spot
trainer (DataBuffer, packing, selective async checkpointing, worker
coordinator), GRPO-family RL, and a roofline-calibrated cluster simulator
that regenerates every table and figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import (TinyLM, TinyLMConfig, EagleDrafter,
                       EagleDrafterConfig, SdStrategy,
                       speculative_generate)

    rng = np.random.default_rng(0)
    target = TinyLM(TinyLMConfig(), rng)
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    out = speculative_generate(
        target, drafter, [[5, 6, 7]], max_new_tokens=64,
        temperature=0.9, rng=rng,
        strategy=SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8),
    )
    print(out.metrics.mean_accept_length)

The names below are resolved on first access, so importing one
sub-package (``import repro.rl``) loads that package and what it
depends on, not the whole stack.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> sub-package that defines it.
_EXPORTS = {
    "repro.llm": ("TinyLM", "TinyLMConfig", "Vocabulary", "generate"),
    "repro.drafter": (
        "EagleDrafter",
        "EagleDrafterConfig",
        "NgramDrafter",
        "NgramDrafterConfig",
        "DrafterTrainer",
        "DrafterTrainingConfig",
        "TrainingStrategy",
    ),
    "repro.specdec": (
        "SdStrategy",
        "default_strategy_pool",
        "speculative_generate",
        "FifoAdmission",
        "PrefixAwareAdmission",
    ),
    "repro.tuner": ("BegMabSelector",),
    "repro.rl": ("RlTrainer", "RlConfig", "VanillaRollout"),
    "repro.longtail": ("ColocatedLoop",),
    "repro.serving": (
        "ServingEngine",
        "ServingRequest",
        "SloClass",
        "RequestIdAllocator",
        "poisson_trace",
    ),
    "repro.cache": ("KVCacheManager", "PrefixIndex"),
    "repro.fleet": (
        "FleetEngine",
        "FleetReport",
        "RoutingPolicy",
        "FleetRoundRobin",
        "FleetLeastLoaded",
        "PrefixHashRouting",
        "StaticRouting",
        "ConsistentHashRing",
        "ReplicaState",
    ),
    "repro.autoscale": (
        "Autoscaler",
        "HysteresisPolicy",
        "PressureSnapshot",
        "ScaleDecision",
        "ScaleEvent",
        "ScalingPolicy",
        "SignalAggregator",
    ),
}
_HOME = {
    name: package for package, names in _EXPORTS.items() for name in names
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    package = _HOME.get(name)
    if package is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(package), name)
    globals()[name] = value
    return value
