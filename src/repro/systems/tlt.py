"""TLT and TLT-Base system models.

``TLT-Base`` is the paper's ablation: the adaptive rollout engine with the
model-free n-gram drafter only (no learned drafter, no spot training).
``TLT`` is the full system: a continuously adapted EAGLE drafter whose
freshness is maintained by spot training inside the long-tail bubbles,
plus the <1% bookkeeping overhead for drafter weight updates and
optimizer offloading the paper measures.

Each system carries its rollout policy in two interchangeable forms: the
roofline-calibrated cluster simulator (:meth:`~RlSystem.simulate_step`)
and the *algorithmic* continuous-batching engine — serving pools built by
:meth:`~_AdaptiveSdSystem.serving_frontend` (and the co-located
builder on top of it) from the same
:class:`~repro.rollout.adaptive.AdaptiveSdConfig`, so the elastic
threshold and strategy pool that shape the simulated timeline also drive
real batched token generation on the TinyLM substrate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.cluster.simulator import ClusterSpec, RlStepSimulator
from repro.drafter.base import Drafter

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.rl.trainer import RlConfig
    from repro.spot.trainer import SpotTrainer
    from repro.workload.prompts import Task
from repro.hardware.gpus import ModelSpec
from repro.llm.model import TinyLM
from repro.longtail.colocated import ColocatedLoop
from repro.longtail.scheduler import RolloutScheduler
from repro.serving.dispatch import SloPreemption
from repro.rollout.acceptance import ParametricAcceptance
from repro.rollout.adaptive import AdaptiveSdConfig, AdaptiveSdManager
from repro.serving.frontend import ServingEngine
from repro.specdec.strategy import SdStrategy
from repro.systems.base import RlSystem

#: Calibrated drafter qualities (fractions of the fresh-drafter accept
#: asymptote): the n-gram retrieval drafter (lookahead-style accept
#: lengths of ~4-5 on repetitive math/code) vs the spot-trained EAGLE.
MODEL_FREE_QUALITY = 0.6
ADAPTIVE_QUALITY = 1.0
#: TLT's multiplicative step overhead for drafter weight updates and
#: optimizer offloading (the paper measures < 1%).
EXTRA_OVERHEAD_FRACTION = 0.008


class _AdaptiveSdSystem(RlSystem):
    """Shared plumbing for systems whose rollouts use adaptive SD."""

    sd_config: AdaptiveSdConfig

    def serving_frontend(
        self,
        target: TinyLM,
        drafter: Drafter,
        num_workers: int = 2,
        strategy: Optional[SdStrategy] = None,
        **pool_kwargs,
    ) -> ServingEngine:
        """Online serving front-end mirroring this system's SD policy.

        Builds one :class:`~repro.rollout.adaptive.AdaptiveSdManager`
        per worker from ``self.sd_config`` — the same elastic threshold
        and strategy pool the cluster simulator uses — so each worker's
        SD/vanilla decision is driven by *its own* live-batch size as the
        dispatcher shapes it.  The workers feed one BEG-MAB selector,
        pooling accept-length measurements across the pool (more
        traffic, faster convergence) while keeping elastic activation
        state per worker.

        Args:
            target: the target model served by every worker.
            drafter: the draft model (spot-trained EAGLE for full TLT,
                the n-gram retrieval drafter for TLT-Base).
            num_workers: decode workers in the pool.
            strategy: static SD configuration; when set, per-worker
                adaptive managers are NOT built and every cycle runs
                this strategy (what byte-identity guarantees need —
                elastic SD legitimately depends on the live batch).
            **pool_kwargs: every other
                :class:`~repro.serving.frontend.ServingEngine` keyword
                (``max_batch_size`` defaults to 8 here).
        """
        pool_kwargs.setdefault("max_batch_size", 8)
        managers: List[AdaptiveSdManager] = []
        if strategy is None:
            selector = self.sd_config.selector
            for _ in range(num_workers):
                manager = AdaptiveSdManager(
                    replace(self.sd_config, selector=selector)
                )
                selector = manager.selector
                managers.append(manager)
        return ServingEngine(
            target,
            drafter,
            num_workers=num_workers,
            strategy=strategy,
            sd_managers=managers or None,
            **pool_kwargs,
        )

    def colocated_system(
        self,
        policy: TinyLM,
        drafter: Drafter,
        task: "Task",
        rl_config: "RlConfig",
        spot_trainer: Optional["SpotTrainer"] = None,
        spot_updates_per_round: int = 20,
        rl_rng: Optional[np.random.Generator] = None,
        spot_rng: Optional[np.random.Generator] = None,
        **pool_kwargs,
    ) -> ColocatedLoop:
        """Wire serving, RL training, and drafter refresh into one loop.

        The ROADMAP's north-star scenario: ONE worker pool serves
        online traffic *and* generates the trainer's GRPO rollouts.
        Rollout groups enter through a
        :class:`~repro.longtail.scheduler.RolloutScheduler` as
        group-tagged BATCH requests, the
        :class:`~repro.serving.dispatch.SloPreemption` policy (the
        default) parks them byte-identically whenever interactive
        arrivals need slots, and — when a spot trainer is attached —
        each round ends with the refreshed EAGLE weights rolling across
        the pool with zero downtime.

        Args:
            policy: the model being RL-trained; the pool serves the
                SAME object, so in-place updates reach every worker.
            drafter: the pool's initial drafter.
            task: prompt generator + verifier for the RL loop.
            rl_config: RL hyper-parameters (the pool inherits its
                rollout temperature).
            spot_trainer: optional spot drafter trainer closing the
                refresh loop.
            spot_updates_per_round: drafter update budget per round.
            rl_rng / spot_rng: generators for the trainer and the
                spot-buffer sampling.
            **pool_kwargs: forwarded to :meth:`serving_frontend`, whose
                defaults apply except ``max_batch_size=4``,
                ``group_affinity=True`` (groups share prompts by
                construction; with ``admission=``
                :class:`~repro.specdec.control.PrefixAwareAdmission`
                + ``kv_cache_tokens`` each co-located GRPO group pays
                ONE prefill launch instead of one per member) and
                ``preemption=SloPreemption()`` — the policy that makes
                co-location safe for interactive latency.  Pass a
                static ``strategy=`` when you need byte-identity
                against a dedicated pool (elastic SD legitimately
                depends on the live batch).

        Returns:
            A ready-to-run :class:`~repro.longtail.colocated.
            ColocatedLoop`; submit interactive traffic to its
            ``frontend`` at any point.
        """
        from repro.rl.trainer import RlTrainer

        pool_kwargs.setdefault("max_batch_size", 4)
        pool_kwargs.setdefault("group_affinity", True)
        pool_kwargs.setdefault("preemption", SloPreemption())
        pool_kwargs.setdefault("temperature", rl_config.temperature)
        frontend = self.serving_frontend(policy, drafter, **pool_kwargs)
        trainer = RlTrainer(
            policy,
            task,
            rl_config,
            backend=RolloutScheduler(
                frontend, group_size=rl_config.group_size
            ),
            rng=rl_rng,
        )
        return ColocatedLoop(
            trainer,
            spot=spot_trainer,
            spot_updates_per_round=spot_updates_per_round,
            spot_rng=spot_rng,
        )


class TltBaseSystem(_AdaptiveSdSystem):
    """TLT with the model-free drafter only (paper's TLT-Base)."""

    name = "TLT-Base"

    def __init__(self, model: ModelSpec, cluster: ClusterSpec) -> None:
        super().__init__(model, cluster)
        self.sd_config = AdaptiveSdConfig(
            acceptance=ParametricAcceptance(
                drafter_quality=MODEL_FREE_QUALITY
            ),
        )
        self._simulator = RlStepSimulator(
            model=model,
            cluster=cluster,
            sd_config=self.sd_config,
            spot_training=False,
        )


class TltSystem(_AdaptiveSdSystem):
    """Full TLT: adaptive learned drafter + spot training in bubbles."""

    name = "TLT"

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        activation_threshold: int = 32,
        drafter_quality: float = ADAPTIVE_QUALITY,
    ) -> None:
        super().__init__(model, cluster)
        self.sd_config = AdaptiveSdConfig(
            activation_threshold=activation_threshold,
            acceptance=ParametricAcceptance(
                drafter_quality=drafter_quality
            ),
        )
        self._simulator = RlStepSimulator(
            model=model,
            cluster=cluster,
            sd_config=self.sd_config,
            spot_training=True,
            extra_overhead_fraction=EXTRA_OVERHEAD_FRACTION,
        )
