"""Loop / einsum reference for the training-side kernels (test oracle).

The production gradients (:meth:`repro.llm.model.TinyLM.backward`,
:meth:`repro.drafter.eagle.EagleDrafter.backward_cell_batch` /
``backward_fuse``) are 2-D BLAS products over flattened ``(rows,
features)`` arrays plus a segmented embedding scatter, and
:func:`repro.drafter.training.build_training_batch` /
``collect_training_sequences`` are index arithmetic over whole batches,
as is the token-level coefficient math of
``repro.rl.trainer.RlTrainer._update_policy``.
This module is the definition they are held to: the same mathematics
written one ``np.einsum`` outer-product sum, one ``np.add.at`` and one
Python loop iteration at a time — the form in which each gradient term
can be read off the forward pass.

A GEMM sums in a different order than einsum, so gradients are compared
to 1e-12 relative; the batch builders only gather, so they are compared
exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.drafter.eagle import EagleDrafter
from repro.drafter.training import TrainingBatch, TrainingSequence
from repro.errors import DrafterError
from repro.llm.model import ForwardCache, TinyLM
from repro.llm.params import ParamSet
from repro.llm.sampler import temperature_probs
from repro.llm.vocab import PAD_ID
from repro.rl.kl import kl_estimate, kl_grad_coef


def tinylm_backward(
    model: TinyLM, cache: ForwardCache, dlogits: np.ndarray
) -> ParamSet:
    """``TinyLM.backward`` with per-term einsums and an ``add.at`` scatter."""
    dlogits = np.asarray(dlogits, dtype=np.float64)

    embed = model.params["embed"]
    grads = model.params.zeros_like()
    h_last = cache.hiddens[-1]

    # LM head (tied embedding): logits = h_last @ E^T.
    grads["embed"] += np.einsum("btv,btd->vd", dlogits, h_last)
    dh = dlogits @ embed  # (B, T, d)

    # Residual tanh blocks, reverse order.
    for i in range(model.config.num_layers - 1, 0, -1):
        act = cache.block_acts[i - 1]
        h_prev = cache.hiddens[i - 1]
        dz = dh * (1.0 - act * act)
        grads[f"w_{i}"] += np.einsum("btd,bte->de", dz, h_prev)
        grads[f"b_{i}"] += dz.sum(axis=(0, 1))
        dh = dh + dz @ model.params[f"w_{i}"]

    # Input projection: h_0 = tanh(W_in x + b_in).
    h0 = cache.hiddens[0]
    dz0 = dh * (1.0 - h0 * h0)
    x = embed[cache.windows].reshape(dz0.shape[:2] + (-1,))  # (B, T, k*d)
    grads["w_in"] += np.einsum("btd,bte->de", dz0, x)
    grads["b_in"] += dz0.sum(axis=(0, 1))
    dx = dz0 @ model.params["w_in"]  # (B, T, k*d)

    # Scatter input-embedding gradients back through the window lookup.
    d = model.config.hidden_size
    k = model.config.context_window
    dx = dx.reshape(dx.shape[0], dx.shape[1], k, d)
    flat_ids = cache.windows.reshape(-1)
    flat_grad = dx.reshape(-1, d)
    np.add.at(grads["embed"], flat_ids, flat_grad)
    return grads


def backward_cell_batch(
    drafter: EagleDrafter,
    cache: dict,
    dhidden: np.ndarray,
    grads: ParamSet,
) -> np.ndarray:
    """One EAGLE cell step backwards; returns the (N, d) state gradient."""
    a = cache["a"]
    z = cache["z"]
    u = cache["u"]
    # h = z + a W_down^T
    grads["w_down"] += np.einsum("nd,nf->df", dhidden, a)
    da = dhidden @ drafter.params["w_down"]
    dpre = da * (1.0 - a * a)
    grads["w_up"] += np.einsum("nf,nd->fd", dpre, z)
    grads["b_up"] += dpre.sum(axis=0)
    dz = dhidden + dpre @ drafter.params["w_up"]
    grads["w_r"] += np.einsum("nd,ne->de", dz, u)
    grads["b_r"] += dz.sum(axis=0)
    du = dz @ drafter.params["w_r"]
    return du[:, : drafter.hidden_size]


def backward_fuse(
    drafter: EagleDrafter,
    hidden_stacks: np.ndarray,
    dfused: np.ndarray,
    grads: ParamSet,
) -> None:
    """Backprop through the fusion projection (input features frozen)."""
    if "w_fuse" not in drafter.params:
        return
    selected = [
        np.asarray(hidden_stacks)[..., layer, :]
        for layer in drafter.config.fused_layers
    ]
    feature = np.concatenate(selected, axis=-1)
    grads["w_fuse"] += np.einsum("nd,ne->de", dfused, feature)
    grads["b_fuse"] += dfused.sum(axis=0)


def collect_training_sequences(
    target: TinyLM,
    full_sequences: Sequence[Sequence[int]],
    step_index: int = 0,
) -> List[TrainingSequence]:
    """One teacher-forced forward per sequence (length < 3 skipped)."""
    out: List[TrainingSequence] = []
    for seq in full_sequences:
        tokens = np.asarray(list(map(int, seq)), dtype=np.int64)
        if tokens.size < 3:
            continue
        result = target.forward(tokens[None, :])
        stacks = np.stack([h[0] for h in result.hiddens], axis=1)
        out.append(
            TrainingSequence(
                tokens=tokens, hidden_stacks=stacks, step_index=step_index
            )
        )
    return out


def build_training_batch(
    sequences: Sequence[TrainingSequence],
    unroll_steps: int,
    max_positions: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> TrainingBatch:
    """Flatten cached sequences one base position at a time."""
    fuse_stacks: List[np.ndarray] = []
    tokens: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    top_hiddens: List[np.ndarray] = []
    for seq in sequences:
        t_max = seq.length - 1 - unroll_steps
        if t_max < 1:
            continue
        for t in range(1, t_max + 1):
            js = np.arange(unroll_steps)
            fuse_stacks.append(seq.hidden_stacks[t - 1])
            tokens.append(seq.tokens[t + js])
            labels.append(seq.tokens[t + js + 1])
            top_hiddens.append(seq.hidden_stacks[t + js, -1, :])
    if not fuse_stacks:
        raise DrafterError(
            "no sequence long enough for the requested unroll depth"
        )
    batch = TrainingBatch(
        fuse_stacks=np.stack(fuse_stacks),
        tokens=np.stack(tokens),
        labels=np.stack(labels),
        top_hiddens=np.stack(top_hiddens),
    )
    if max_positions is not None and batch.num_positions > max_positions:
        if rng is None:
            raise DrafterError("max_positions subsampling requires rng")
        keep = rng.choice(
            batch.num_positions, size=max_positions, replace=False
        )
        batch = TrainingBatch(
            fuse_stacks=batch.fuse_stacks[keep],
            tokens=batch.tokens[keep],
            labels=batch.labels[keep],
            top_hiddens=batch.top_hiddens[keep],
        )
    return batch


def update_policy(trainer, rollout, advantages) -> tuple:
    """``RlTrainer._update_policy`` one rollout row at a time."""
    config = trainer.config
    sequences = rollout.full_sequences
    prompt_lengths = [len(p) for p in rollout.prompts]
    batch_size = len(sequences)
    max_len = max(len(s) for s in sequences)
    tokens = np.full((batch_size, max_len), PAD_ID, dtype=np.int64)
    for row, seq in enumerate(sequences):
        tokens[row, : len(seq)] = seq

    # Response-token bookkeeping: token y_t is predicted at t-1.
    resp_pos: List[np.ndarray] = []
    resp_tok: List[np.ndarray] = []
    total_resp = 0
    for row, seq in enumerate(sequences):
        start, stop = prompt_lengths[row], len(seq)
        positions = np.arange(start, stop)
        resp_pos.append(positions - 1)
        resp_tok.append(tokens[row, start:stop])
        total_resp += stop - start
    if total_resp == 0:
        return 0.0, 0.0

    # Reference logprobs are fixed across inner epochs.
    ref_logits = trainer.reference.forward(tokens).logits
    ref_probs = temperature_probs(ref_logits, config.temperature)

    old_logp: Optional[List[np.ndarray]] = None
    pg_loss_value = 0.0
    kl_value = 0.0
    for epoch in range(config.inner_epochs):
        result = trainer.policy.forward(tokens, keep_cache=True)
        probs = temperature_probs(result.logits, config.temperature)
        dlogits = np.zeros_like(result.logits)
        pg_terms: List[float] = []
        kl_terms: List[float] = []
        if old_logp is None:
            old_logp = []
        scale = 1.0 / (total_resp * config.temperature)
        for row in range(batch_size):
            positions = resp_pos[row]
            chosen = resp_tok[row]
            if positions.size == 0:
                if epoch == 0:
                    old_logp.append(np.zeros(0))
                continue
            p_tok = probs[row, positions, chosen]
            logp = np.log(np.maximum(p_tok, 1e-300))
            ref_tok = ref_probs[row, positions, chosen]
            logp_ref = np.log(np.maximum(ref_tok, 1e-300))
            if epoch == 0:
                old_logp.append(logp.copy())
            ratio = np.exp(np.clip(logp - old_logp[row], -30.0, 30.0))
            adv = advantages[row]
            if config.inner_epochs > 1:
                clipped_hi = (adv > 0) & (ratio > 1.0 + config.clip_eps)
                clipped_lo = (adv < 0) & (ratio < 1.0 - config.clip_eps)
                active = ~(clipped_hi | clipped_lo)
            else:
                active = np.ones_like(ratio, dtype=bool)
            pg_coef = -adv * ratio * active
            kl_coef = config.kl_coef * kl_grad_coef(
                logp, logp_ref, config.kl_estimator
            )
            coef = (pg_coef + kl_coef) * scale
            # dlogits += coef * (onehot - probs)
            dlogits[row, positions, :] -= (
                coef[:, None] * probs[row, positions, :]
            )
            dlogits[row, positions, chosen] += coef
            pg_terms.append(float(np.sum(-adv * ratio * logp)))
            kl_terms.append(
                float(
                    np.sum(kl_estimate(logp, logp_ref, config.kl_estimator))
                )
            )

        grads = trainer.policy.backward(result.cache, dlogits)
        grads.clip_global_norm(config.grad_clip)
        trainer.optimizer.step(trainer.policy.params, grads)
        pg_loss_value = sum(pg_terms) / total_resp
        kl_value = sum(kl_terms) / total_resp
    return pg_loss_value, kl_value
