"""End-to-end integration: the full TLT pipeline over several RL steps.

Wires every component together the way the paper's system does — GRPO
with speculative rollouts on a one-worker serving pool, hidden-state
capture into the DataBuffer, and spot drafter training with selective
async checkpointing — and asserts cross-component invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
)
from repro.drafter.training import collect_training_sequences
from repro.llm import TinyLMConfig
from repro.llm.pretrain import pretrained_target
from repro.llm.vocab import Vocabulary
from repro.longtail import RolloutScheduler
from repro.rl import RlConfig, RlTrainer
from repro.serving import ServingEngine
from repro.specdec import SdStrategy
from repro.spot import CheckpointManager, OnlineDataBuffer, SpotTrainer
from repro.workload import SuccessorChainTask


def _pool_backend(policy, drafter, strategy, temperature):
    """A dedicated rollout engine: a one-worker serving pool."""
    return RolloutScheduler(
        ServingEngine(
            policy, drafter, num_workers=1, strategy=strategy,
            temperature=temperature,
        )
    )


def _accept_length(backend, step):
    """Mean committed tokens per SD cycle over what ``step()`` decoded."""
    metrics = backend.engine.workers[0].engine.metrics
    before = len(metrics.cycles)
    report = step()
    cycles = metrics.cycles[before:]
    return report, sum(c.committed for c in cycles) / len(cycles)


@pytest.fixture(scope="module")
def tlt_run(tmp_path_factory):
    """Run 4 TLT-style RL steps and return all the artefacts."""
    tmp_path = tmp_path_factory.mktemp("tlt")
    config = TinyLMConfig(
        vocab_size=24, hidden_size=24, context_window=4, num_layers=3,
        init_scale=0.8,
    )
    policy = pretrained_target(
        config, np.random.default_rng(0), corpus_sequences=48,
        corpus_length=40, epochs=120, chain_prob=0.75,
    )
    task = SuccessorChainTask(vocab=Vocabulary(24), target_pairs=8)
    drafter = EagleDrafter(
        policy, EagleDrafterConfig(), np.random.default_rng(1)
    )
    backend = _pool_backend(
        policy, drafter, SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8),
        1.0,
    )
    spot = SpotTrainer(
        trainer=DrafterTrainer(
            drafter, DrafterTrainingConfig(learning_rate=5e-3)
        ),
        buffer=OnlineDataBuffer(capacity_tokens=100_000),
        checkpoints=CheckpointManager(str(tmp_path)),
        batch_sequences=16,
        max_positions=512,
        checkpoint_every=10,
    )
    trainer = RlTrainer(
        policy, task,
        RlConfig(num_prompts=4, group_size=6, max_new_tokens=24,
                 temperature=1.0, learning_rate=5e-3, kl_coef=0.002),
        backend=backend,
        rng=np.random.default_rng(2),
    )
    spot_rng = np.random.default_rng(3)
    reports = []
    accept_lengths = []
    for step in range(4):
        spot.begin_step(step)
        report, accept = _accept_length(backend, trainer.step)
        reports.append(report)
        accept_lengths.append(accept)
        assert trainer.last_rollout is not None
        spot.ingest(
            collect_training_sequences(
                policy, trainer.last_rollout.full_sequences, step
            )
        )
        spot.train_slice(15, spot_rng)
    spot.checkpoints.wait_all()
    return {
        "reports": reports,
        "accepts": accept_lengths,
        "spot": spot,
        "policy": policy,
        "drafter": drafter,
    }


class TestPipelineCoherence:
    def test_every_step_produced_rewards(self, tlt_run):
        for report in tlt_run["reports"]:
            assert 0.0 <= report.mean_reward <= 1.0
            assert np.isfinite(report.pg_loss)

    def test_speculation_active_every_step(self, tlt_run):
        for accept in tlt_run["accepts"]:
            assert accept >= 1.0

    def test_spot_training_ran(self, tlt_run):
        assert tlt_run["spot"].total_updates >= 45

    def test_buffer_holds_multiple_steps(self, tlt_run):
        stats = tlt_run["spot"].buffer.stats()
        assert stats.current_step == 3
        assert stats.num_sequences > 0

    def test_checkpoint_written_and_loadable(self, tlt_run):
        spot = tlt_run["spot"]
        path = spot.checkpoints.latest()
        assert path is not None
        state = spot.checkpoints.load(path)
        # Every drafter weight under its own name; everything else is the
        # trainer's namespaced optimizer state (a resumable checkpoint).
        assert {name for name in state if "." not in name} == set(
            tlt_run["drafter"].params.names()
        )
        assert all(
            name.startswith(("optimizer.", "trainer."))
            for name in state
            if "." in name
        )

    def test_drafter_adapts_to_updated_policy(self, tlt_run):
        """Later-step accept lengths should not collapse even though the
        policy's weights moved (the whole point of spot training)."""
        accepts = tlt_run["accepts"]
        assert accepts[-1] >= accepts[0] - 0.5

    def test_policy_actually_updated(self, tlt_run):
        trainer_ref = tlt_run["reports"]
        policy = tlt_run["policy"]
        # Reference model differs from the trained policy after 4 steps.
        assert trainer_ref[-1].kl_value >= 0.0

