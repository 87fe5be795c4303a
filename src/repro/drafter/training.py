"""Unified drafter-training framework (paper §4.1, Figure 7).

All published single-layer drafter training recipes are expressed as
:class:`TrainingStrategy` values over one pipeline:

========  ==============  ==================  =============  ==========
Strategy  Hidden states    Loss               Training-time  Rel. cost
                                               test (unroll)
========  ==============  ==================  =============  ==========
EAGLE     top layer        L1 + CE (soft KD)   1 step         1x
HASS      top layer        L1 + CE (soft KD)   3 steps        3x
EAGLE-3   bottom/mid/top   CE only             7 steps        7x
OSD       top layer        reverse-KD CE       1 step         1x
========  ==============  ==================  =============  ==========

Training data is exactly what the paper caches: target-model hidden states
collected during the RL inference (prefilling) stage, paired with the
rollout tokens.  :func:`collect_training_sequences` performs that capture;
:class:`DrafterTrainer` runs the (optionally unrolled) forward, computes
the configured losses, backpropagates through the drafter's single decoder
layer only (embedding/LM head stay frozen), and applies Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.drafter.eagle import EagleDrafter
from repro.errors import DrafterError
from repro.llm.model import TinyLM, pad_sequences
from repro.llm.optim import Adam
from repro.llm.sampler import log_softmax, softmax

CeMode = str  # "hard" | "soft" | "reverse_kd"
_CE_MODES = ("hard", "soft", "reverse_kd")


@dataclass(frozen=True)
class TrainingStrategy:
    """One drafter-training recipe.

    Attributes:
        name: identifier used in benchmark tables.
        fused_layers: target hidden layers fused into the input feature.
        unroll_steps: training-time-test depth (self-fed forward steps).
        l1_weight: weight of the hidden-state alignment L1 loss.
        ce_mode: classification loss — ``hard`` (label CE), ``soft``
            (forward KD against the target distribution), or
            ``reverse_kd`` (OSD-style reverse KL).
        relative_cost: per-step training cost normalised to EAGLE
            (Table 7's "Training Cost" column).
    """

    name: str
    fused_layers: Tuple[int, ...] = (-1,)
    unroll_steps: int = 1
    l1_weight: float = 1.0
    ce_mode: CeMode = "soft"
    relative_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.unroll_steps < 1:
            raise DrafterError("unroll_steps must be >= 1")
        if self.l1_weight < 0:
            raise DrafterError("l1_weight must be non-negative")
        if self.ce_mode not in _CE_MODES:
            raise DrafterError(
                f"ce_mode must be one of {_CE_MODES}, got {self.ce_mode!r}"
            )

    @staticmethod
    def eagle() -> "TrainingStrategy":
        """EAGLE: top-layer hiddens, L1 + soft CE, no unroll."""
        return TrainingStrategy(name="eagle")

    @staticmethod
    def hass() -> "TrainingStrategy":
        """HASS: EAGLE plus 3-step training-time test."""
        return TrainingStrategy(name="hass", unroll_steps=3,
                                relative_cost=3.0)

    @staticmethod
    def eagle3(num_target_layers: int) -> "TrainingStrategy":
        """EAGLE-3: bottom/middle/top fusion, CE only, 7-step unroll."""
        mid = max(num_target_layers // 2, 0)
        layers = tuple(sorted({0, mid, num_target_layers - 1}))
        return TrainingStrategy(
            name="eagle3",
            fused_layers=layers,
            unroll_steps=7,
            l1_weight=0.0,
            relative_cost=7.0,
        )

    @staticmethod
    def osd() -> "TrainingStrategy":
        """OSD-style online distillation: reverse-KD classification loss."""
        return TrainingStrategy(name="osd", ce_mode="reverse_kd")


@dataclass
class TrainingSequence:
    """One cached rollout sequence for drafter training.

    Attributes:
        tokens: (T,) token ids (prompt + response).
        hidden_stacks: (T, layers, d) target hidden states at every
            position, captured during the RL inference stage: the full
            stack (``layers = num_layers``) as captured, or the top
            ``layers`` of it as the DataBuffer keeps them
            (:meth:`repro.spot.SpotTrainer.ingest`).  Readers index
            layers from the top (the top hidden is ``[:, -1]``).
        step_index: RL step the sequence was generated at (used by the
            one-step-offset DataBuffer sampling).
    """

    tokens: np.ndarray
    hidden_stacks: np.ndarray
    step_index: int = 0

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.hidden_stacks = np.asarray(self.hidden_stacks, dtype=np.float64)
        if self.tokens.ndim != 1:
            raise DrafterError("tokens must be 1-D")
        if self.hidden_stacks.shape[0] != self.tokens.shape[0]:
            raise DrafterError(
                "hidden_stacks and tokens length mismatch: "
                f"{self.hidden_stacks.shape[0]} vs {self.tokens.shape[0]}"
            )

    @property
    def length(self) -> int:
        """Sequence length in tokens."""
        return int(self.tokens.shape[0])


def collect_training_sequences(
    target: TinyLM,
    full_sequences: Sequence[Sequence[int]],
    step_index: int = 0,
) -> List[TrainingSequence]:
    """Capture target hidden states for drafter training.

    Runs one teacher-forced target forward over the real positions of
    the finished prompt+response sequences: they are right-padded into
    a grid (the window is causal, so padding cannot reach an earlier
    position) and only the cells inside each sequence are computed.
    Each sequence's (T, num_layers, d) stack is then copied straight
    out of the per-layer hidden rows, so it owns its memory and no
    batch-wide stack exists.  Sequences shorter than 3 tokens hold no
    training position and are skipped.

    In the paper's engine this forward is not an extra cost: the RL
    inference (prefilling) stage already scores prompt+response under
    the policy, and its hidden states are copied to the host-memory
    DataBuffer as a by-product.  Here the capture is its own pass over
    the same tokens.
    """
    kept = [
        np.asarray(list(map(int, seq)), dtype=np.int64)
        for seq in full_sequences
        if len(seq) >= 3
    ]
    if not kept:
        return []
    tokens, lengths = pad_sequences(kept)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    rows = np.repeat(np.arange(lengths.size), lengths)
    cells = (rows, np.arange(rows.size) - starts[rows])
    hiddens = [h[0] for h in target.forward(tokens, cells=cells).hiddens]
    return [
        TrainingSequence(
            tokens=seq,
            hidden_stacks=np.stack([h[start:end] for h in hiddens], axis=1),
            step_index=step_index,
        )
        for seq, start, end in zip(kept, starts.tolist(), ends.tolist())
    ]


@dataclass
class TrainingBatch:
    """Flattened training positions ready for the (unrolled) forward.

    For base position ``t`` and unroll step ``j`` (1-indexed): the drafter
    consumes token ``x_{t+j-1}``, predicts ``x_{t+j}``, and aligns its
    hidden with the target's top hidden at ``t+j-1``.

    Attributes:
        fuse_stacks: (N, layers, d) target stacks at position ``t-1``
            (as many top layers as the sequences carry).
        tokens: (N, J) consumed tokens per unroll step.
        labels: (N, J) ground-truth next tokens per unroll step.
        top_hiddens: (N, J, d) target top hiddens per unroll step.
    """

    fuse_stacks: np.ndarray
    tokens: np.ndarray
    labels: np.ndarray
    top_hiddens: np.ndarray

    @property
    def num_positions(self) -> int:
        """Number of base positions (N)."""
        return int(self.tokens.shape[0])

    @property
    def unroll_steps(self) -> int:
        """Unroll depth (J)."""
        return int(self.tokens.shape[1])


def build_training_batch(
    sequences: Sequence[TrainingSequence],
    unroll_steps: int,
    max_positions: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> TrainingBatch:
    """Flatten cached sequences into an unrolled training batch.

    Args:
        sequences: cached rollout data.
        unroll_steps: training-time-test depth J.
        max_positions: optional subsample cap (uniform without
            replacement; requires ``rng``).
        rng: generator for subsampling.

    Raises:
        DrafterError: when no sequence is long enough to contribute.
    """
    eligible = [s for s in sequences if s.length - 1 - unroll_steps >= 1]
    if not eligible:
        raise DrafterError(
            "no sequence long enough for the requested unroll depth"
        )
    # Base positions t = 1 .. length-1-J of every sequence, as indices
    # into the sequences laid end to end.
    lengths = np.array([seq.length for seq in eligible])
    first = np.cumsum(lengths) - lengths + 1
    base = np.concatenate(
        [t1 + np.arange(n - 1 - unroll_steps) for t1, n in zip(first, lengths)]
    )
    if max_positions is not None and base.size > max_positions:
        if rng is None:
            raise DrafterError("max_positions subsampling requires rng")
        base = base[rng.choice(base.size, size=max_positions, replace=False)]
    all_tokens = np.concatenate([seq.tokens for seq in eligible])
    all_stacks = np.concatenate([seq.hidden_stacks for seq in eligible])
    unrolled = base[:, None] + np.arange(unroll_steps)
    return TrainingBatch(
        fuse_stacks=all_stacks[base - 1],
        tokens=all_tokens[unrolled],
        labels=all_tokens[unrolled + 1],
        top_hiddens=all_stacks[unrolled, -1],
    )


@dataclass(frozen=True)
class DrafterTrainingConfig:
    """Optimisation hyper-parameters for the drafter trainer."""

    strategy: TrainingStrategy = field(default_factory=TrainingStrategy.eagle)
    learning_rate: float = 3e-3
    grad_clip: float = 10.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise DrafterError("learning_rate must be positive")
        if self.grad_clip <= 0:
            raise DrafterError("grad_clip must be positive")


@dataclass
class TrainStepReport:
    """Losses and sizes from one drafter optimisation step."""

    ce_loss: float
    l1_loss: float
    num_positions: int
    unroll_steps: int

    @property
    def total_loss(self) -> float:
        """CE + weighted L1 (already weighted)."""
        return self.ce_loss + self.l1_loss


class DrafterTrainer:
    """Trains an :class:`EagleDrafter` with a configured strategy."""

    def __init__(
        self, drafter: EagleDrafter, config: DrafterTrainingConfig
    ) -> None:
        strategy = config.strategy
        if tuple(drafter.config.fused_layers) != tuple(strategy.fused_layers):
            raise DrafterError(
                "drafter fused_layers "
                f"{drafter.config.fused_layers} do not match strategy "
                f"{strategy.fused_layers}"
            )
        self.drafter = drafter
        self.config = config
        self.optimizer = Adam(lr=config.learning_rate)
        self.steps_done = 0

    def prepare(self, batch: TrainingBatch) -> tuple:
        """What every update on ``batch`` shares while the target stays put.

        Returns ``(state, token_embeds, teacher, rows)``: the (N, d) fused
        input state (None when the fusion is trainable and has to be
        re-run), the (N, J, d) frozen token embeddings, per unroll step
        the target's (N, V) distribution (``soft``) or log-distribution
        (``reverse_kd``; None for ``hard``), and ``arange(N)``.  The owner
        of an update loop (:meth:`train_epochs`, a spot-trainer slice)
        drops it on return, so a moved target is always re-read.
        """
        strategy = self.config.strategy
        drafter = self.drafter
        if batch.unroll_steps < strategy.unroll_steps:
            raise DrafterError(
                f"batch unroll depth {batch.unroll_steps} < strategy "
                f"requirement {strategy.unroll_steps}"
            )
        embed = drafter.target.params["embed"]
        teacher = None
        if strategy.ce_mode != "hard":
            normalise = softmax if strategy.ce_mode == "soft" else log_softmax
            teacher = [
                normalise(batch.top_hiddens[:, j, :] @ embed.T)
                for j in range(strategy.unroll_steps)
            ]
        frozen_fusion = "w_fuse" not in drafter.params
        return (
            drafter.fuse(batch.fuse_stacks) if frozen_fusion else None,
            embed[batch.tokens], teacher, np.arange(batch.num_positions),
        )

    def train_step(
        self, batch: TrainingBatch, prepared: Optional[tuple] = None
    ) -> TrainStepReport:
        """One full-batch forward/backward/Adam update.

        The forward self-feeds for ``strategy.unroll_steps`` steps (HASS /
        EAGLE-3 training-time test); gradients flow through the unroll.
        ``prepared`` is ``self.prepare(batch)`` when the caller shares it
        across the updates of one loop; it is computed here otherwise.
        """
        strategy = self.config.strategy
        drafter = self.drafter
        fused, token_embeds, teacher, rows = prepared or self.prepare(batch)
        fuse_trains = fused is None
        steps = strategy.unroll_steps
        n = batch.num_positions
        embed = drafter.target.params["embed"]
        norm = 1.0 / (n * steps)

        # Unrolled forward with per-step losses and hidden-space gradients.
        state = drafter.fuse(batch.fuse_stacks) if fuse_trains else fused
        ce_total = 0.0
        l1_total = 0.0
        caches: List[dict] = []
        dhiddens: List[np.ndarray] = []
        for j in range(steps):
            state, cache = drafter.cell(state, token_embeds[:, j, :])
            caches.append(cache)
            logq = log_softmax(state @ embed.T)
            q = np.exp(logq)
            if strategy.ce_mode == "hard":
                labels_j = batch.labels[:, j]
                ce_total += -float(np.mean(logq[rows, labels_j]))
                dlogits = q
                dlogits[rows, labels_j] -= 1.0
            elif strategy.ce_mode == "soft":
                ce_total += -float(
                    np.mean(np.sum(teacher[j] * logq, axis=-1))
                )
                dlogits = q - teacher[j]
            else:  # reverse_kd
                diff = logq - teacher[j]
                expected = np.sum(q * diff, axis=-1, keepdims=True)
                ce_total += float(np.mean(expected))
                dlogits = q * (diff - expected)
            dhidden = (dlogits @ embed) * norm
            if strategy.l1_weight > 0:
                delta = state - batch.top_hiddens[:, j, :]
                l1_total += strategy.l1_weight * float(
                    np.mean(np.abs(delta))
                )
                dhidden += np.sign(delta) * (
                    strategy.l1_weight / (n * steps * delta.shape[-1])
                )
            dhiddens.append(dhidden)

        # Backward through the unroll (BPTT).
        grads = drafter.params.zeros_like()
        dstate = None
        for j in range(steps - 1, -1, -1):
            dh = dhiddens[j] if dstate is None else dhiddens[j] + dstate
            dstate = drafter.backward_cell_batch(
                caches[j], dh, grads, input_grad=j > 0 or fuse_trains
            )
        if fuse_trains:
            drafter.backward_fuse(batch.fuse_stacks, dstate, grads)

        grads.clip_global_norm(self.config.grad_clip)
        self.optimizer.step(drafter.params, grads)
        self.steps_done += 1
        return TrainStepReport(
            ce_loss=ce_total / steps,
            l1_loss=l1_total / steps,
            num_positions=n,
            unroll_steps=steps,
        )

    def train_epochs(
        self, batch: TrainingBatch, epochs: int
    ) -> List[TrainStepReport]:
        """Run several optimisation steps over the same batch."""
        prepared = self.prepare(batch)
        return [self.train_step(batch, prepared) for _ in range(epochs)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name -> array state a preempted trainer resumes from
        exactly: the drafter's weights under their own names, Adam's
        state under ``optimizer.*`` and ``trainer.steps_done`` (the
        mapping :meth:`repro.spot.checkpoint.CheckpointManager.save`
        takes)."""
        state = dict(self.drafter.state_dict())
        for name, array in self.optimizer.state_dict().items():
            state[f"optimizer.{name}"] = array
        state["trainer.steps_done"] = np.asarray(self.steps_done)
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore weights, both Adam moments and the step counters."""
        self.drafter.load_state_dict(state)
        self.optimizer.load_state_dict(
            {
                name[len("optimizer.") :]: array
                for name, array in state.items()
                if name.startswith("optimizer.")
            }
        )
        self.steps_done = int(state["trainer.steps_done"])


def evaluate_topk_accuracy(
    drafter: EagleDrafter, batch: TrainingBatch, k: int = 3
) -> float:
    """Top-k next-token accuracy of the drafter's *first* draft step.

    This is the paper's Figure 15 metric (drafter top-3 accuracy).
    """
    if k < 1:
        raise DrafterError(f"k must be >= 1, got {k}")
    state = drafter.fuse(batch.fuse_stacks)
    hidden, _ = drafter.forward_cell_batch(state, batch.tokens[:, 0])
    logits = hidden @ drafter.target.params["embed"].T
    k = min(k, logits.shape[-1])
    top = np.argpartition(-logits, kth=k - 1, axis=-1)[:, :k]
    labels = batch.labels[:, 0]
    hits = (top == labels[:, None]).any(axis=-1)
    return float(np.mean(hits))
