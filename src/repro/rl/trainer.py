"""The end-to-end RL training loop (rollout → inference → update).

One :meth:`RlTrainer.step` is one Figure 4 step:

1. **Rollout** — the backend (vanilla or speculative) samples
   ``group_size`` responses per prompt from the current policy.
2. **Inference** — teacher-forced forwards score every response token
   under the policy and the frozen reference model; rule-based rewards
   come from the task verifier.
3. **Training** — a token-level policy-gradient update with group-relative
   advantages and a KL penalty, applied through TinyLM's exact backward.

The update supports PPO-style ratio clipping for multi-epoch reuse, but
defaults to the single on-policy epoch GRPO prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.llm.model import TinyLM, pad_sequences
from repro.llm.optim import Adam
from repro.llm.sampler import temperature_probs
from repro.rl.algorithms import GrpoAdvantages
from repro.rl.kl import KL_ESTIMATORS, kl_estimate, kl_grad_coef
from repro.rl.rollout_backends import (
    RolloutBackend,
    RolloutResult,
    VanillaRollout,
)
from repro.workload.prompts import PromptBatch, Task, make_prompt_batch


@dataclass(frozen=True)
class RlConfig:
    """Hyper-parameters of the RL loop.

    Attributes:
        num_prompts: distinct prompts per step.
        group_size: responses per prompt (GRPO group).
        max_new_tokens: rollout length cap.
        temperature: rollout sampling temperature (also used for scoring,
            matching the behaviour distribution).
        learning_rate: Adam step size.
        kl_coef: KL-penalty weight (0 disables the reference model term).
        kl_estimator: ``k1`` / ``k2`` / ``k3``.
        grad_clip: global gradient-norm clip.
        clip_eps: PPO ratio clip (active when ``inner_epochs > 1``).
        inner_epochs: optimisation epochs per rollout batch.
    """

    num_prompts: int = 8
    group_size: int = 8
    max_new_tokens: int = 48
    temperature: float = 0.9
    learning_rate: float = 1e-3
    kl_coef: float = 0.02
    kl_estimator: str = "k3"
    grad_clip: float = 1.0
    clip_eps: float = 0.2
    inner_epochs: int = 1

    def __post_init__(self) -> None:
        if self.num_prompts < 1 or self.group_size < 1:
            raise ConfigError("num_prompts and group_size must be >= 1")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")
        if self.temperature <= 0:
            raise ConfigError(
                "temperature must be positive (greedy RL degenerates)"
            )
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.kl_coef < 0:
            raise ConfigError("kl_coef must be non-negative")
        if self.kl_estimator not in KL_ESTIMATORS:
            raise ConfigError(
                f"kl_estimator must be one of {KL_ESTIMATORS}"
            )
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive")
        if self.inner_epochs < 1:
            raise ConfigError("inner_epochs must be >= 1")


@dataclass
class RlStepReport:
    """Metrics from one RL step.

    Attributes:
        step: step index (0-based).
        mean_reward: batch mean rule-based reward.
        pg_loss: policy-gradient loss component.
        kl_value: mean per-token KL estimate vs the reference model.
        mean_response_length / max_response_length: rollout length stats.
        target_steps: target-model forward launches in the rollout stage.
        rollout_stats: backend extras (pool ticks, preemptions etc.).
    """

    step: int
    mean_reward: float
    pg_loss: float
    kl_value: float
    mean_response_length: float
    max_response_length: int
    target_steps: int
    rollout_stats: Dict[str, float] = field(default_factory=dict)


class RlTrainer:
    """GRPO trainer over a TinyLM policy.

    Args:
        policy: the model being trained (mutated in place).
        task: prompt generator + verifier.
        config: loop hyper-parameters.
        backend: rollout backend (defaults to vanilla decoding; the TLT
            integration point is a :class:`repro.longtail.
            RolloutScheduler` over a serving pool — one worker for a
            dedicated rollout).
        rng: generator for prompts and rollouts.
    """

    def __init__(
        self,
        policy: TinyLM,
        task: Task,
        config: RlConfig,
        backend: Optional[RolloutBackend] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.policy = policy
        self.task = task
        self.config = config
        self.backend = backend or VanillaRollout()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.reference = policy.clone()
        self.optimizer = Adam(lr=config.learning_rate)
        self.steps_done = 0
        self.history: List[RlStepReport] = []
        #: Most recent rollout (consumed by the spot trainer's DataBuffer).
        self.last_rollout: Optional[RolloutResult] = None

    # -- public API ----------------------------------------------------------

    def sample_prompts(self) -> PromptBatch:
        """Draw one step's prompt batch from the trainer's RNG.

        The pipelining seam: a caller that splits the backend's
        ``generate`` into ``submit_batch`` / ``collect``
        (:meth:`repro.longtail.ColocatedLoop.run` over the same
        ``RolloutScheduler`` that serves as the in-line backend)
        samples the prompts here — consuming the trainer's RNG in
        exactly the order :meth:`step` would — keeps batches in flight
        across steps, and hands each finished
        :class:`~repro.rl.rollout_backends.RolloutResult` back through
        ``step(rollout=..., prompts=...)``.  Because prompt sampling
        and the backend's per-request seed draws are the only RNG
        consumers in the rollout stage, a caller that preserves this
        call order reproduces the in-line step byte-for-byte.
        """
        config = self.config
        return make_prompt_batch(
            self.task, config.num_prompts, config.group_size, self.rng
        )

    def step(
        self,
        rollout: Optional[RolloutResult] = None,
        prompts: Optional[PromptBatch] = None,
    ) -> RlStepReport:
        """Run one full RL step and return its report.

        Args:
            rollout: pre-computed rollout to train on (the scheduler
                seam).  When omitted, the trainer samples prompts and
                runs its backend in-line.
                Must be provided together with ``prompts`` — the
                prompt batch the rollout was generated from.
            prompts: the :class:`~repro.workload.prompts.PromptBatch`
                matching ``rollout`` (from :meth:`sample_prompts`).
        """
        config = self.config
        if (rollout is None) != (prompts is None):
            raise ConfigError(
                "step() needs rollout and prompts together (or neither)"
            )
        if rollout is None:
            batch = self.sample_prompts()
            rollout = self.backend.generate(
                self.policy,
                batch.expanded,
                config.max_new_tokens,
                config.temperature,
                self.rng,
            )
        else:
            batch = prompts
            if len(rollout.responses) != len(batch.expanded):
                raise ConfigError(
                    f"injected rollout has {len(rollout.responses)} "
                    f"responses for {len(batch.expanded)} prompts"
                )
        self.last_rollout = rollout

        rewards = self.task.reward_batch(batch.expanded, rollout.responses)
        reward_matrix = rewards.reshape(
            config.num_prompts, config.group_size
        )
        advantages = GrpoAdvantages().compute(reward_matrix)
        pg_loss, kl_value = self._update_policy(
            rollout, advantages.reshape(-1)
        )

        report = RlStepReport(
            step=self.steps_done,
            mean_reward=float(rewards.mean()),
            pg_loss=pg_loss,
            kl_value=kl_value,
            mean_response_length=float(
                np.mean(rollout.response_lengths)
            ),
            max_response_length=int(max(rollout.response_lengths)),
            target_steps=rollout.target_steps,
            rollout_stats=dict(rollout.stats),
        )
        self.history.append(report)
        self.steps_done += 1
        return report

    def run(self, num_steps: int) -> List[RlStepReport]:
        """Run several steps; returns their reports."""
        return [self.step() for _ in range(num_steps)]

    def evaluate(self, num_prompts: int, rng: np.random.Generator) -> float:
        """Mean reward on fresh prompts (the paper's periodic eval)."""
        batch = make_prompt_batch(self.task, num_prompts, 1, rng)
        rollout = VanillaRollout().generate(
            self.policy,
            batch.expanded,
            self.config.max_new_tokens,
            self.config.temperature,
            rng,
        )
        rewards = self.task.reward_batch(batch.expanded, rollout.responses)
        return float(rewards.mean())

    # -- update ---------------------------------------------------------------

    def _update_policy(
        self,
        rollout: RolloutResult,
        advantages: np.ndarray,
    ) -> tuple:
        """Token-level policy-gradient update; returns (pg_loss, kl)."""
        config = self.config
        tokens, lengths = pad_sequences(rollout.full_sequences)
        starts = np.array([len(p) for p in rollout.prompts])
        total_resp = int((lengths - starts).sum())
        if total_resp == 0:
            return 0.0, 0.0

        # Flat (row, position, token) indices of every response token:
        # token y_t is predicted at position t-1.
        counts = lengths - starts
        row_idx = np.repeat(np.arange(counts.size), counts)
        first = np.cumsum(counts) - counts
        tok_pos = np.arange(row_idx.size) + (starts - first)[row_idx]
        pos_idx = tok_pos - 1
        chosen = tokens[row_idx, tok_pos]
        adv = advantages[row_idx]
        scale = 1.0 / (total_resp * config.temperature)

        # Reference logprobs are fixed across inner epochs.
        ref_logits = self.reference.forward(tokens).logits
        ref_probs = temperature_probs(ref_logits, config.temperature)
        logp_ref = np.log(
            np.maximum(ref_probs[row_idx, pos_idx, chosen], 1e-300)
        )

        old_logp: Optional[np.ndarray] = None
        for _ in range(config.inner_epochs):
            result = self.policy.forward(tokens, keep_cache=True)
            probs = temperature_probs(result.logits, config.temperature)
            logp = np.log(
                np.maximum(probs[row_idx, pos_idx, chosen], 1e-300)
            )
            if old_logp is None:
                old_logp = logp
            ratio = np.exp(np.clip(logp - old_logp, -30.0, 30.0))
            pg_coef = -adv * ratio
            if config.inner_epochs > 1:
                clipped_hi = (adv > 0) & (ratio > 1.0 + config.clip_eps)
                clipped_lo = (adv < 0) & (ratio < 1.0 - config.clip_eps)
                pg_coef = pg_coef * ~(clipped_hi | clipped_lo)
            kl_coef = config.kl_coef * kl_grad_coef(
                logp, logp_ref, config.kl_estimator
            )
            coef = (pg_coef + kl_coef) * scale
            # dlogits = coef * (onehot - probs) at the response positions.
            dlogits = np.zeros_like(result.logits)
            dlogits[row_idx, pos_idx] = (
                -coef[:, None] * probs[row_idx, pos_idx]
            )
            dlogits[row_idx, pos_idx, chosen] += coef

            grads = self.policy.backward(result.cache, dlogits)
            grads.clip_global_norm(config.grad_clip)
            self.optimizer.step(self.policy.params, grads)
            pg_loss_value = float(np.sum(-adv * ratio * logp)) / total_resp
            kl = kl_estimate(logp, logp_ref, config.kl_estimator)
            kl_value = float(np.sum(kl)) / total_resp
        return pg_loss_value, kl_value
