"""Continuous batching: batched vs sequential speculative generation.

The batched engine verifies every live sequence in one target forward per
cycle, so its launch count follows the *slowest* sequence instead of the
sum over sequences.  Expected shape: committed tokens identical to
sequential decoding at every batch size (losslessness is scheduling-
independent), launch count strictly below the sequential sum from batch 4
up, and the launch amortisation growing with batch size.

The lock-step tree build amortises the *drafter* the same way: after one
``begin_batch`` and one root proposal, every further round of growth is
one fused ``extend_propose_batch`` launch for the whole live batch, so
drafter launches per cycle are ``1 + rounds`` in ``sample`` mode and at
most ``1 + draft_depth`` in ``topk`` mode — never ``live x nodes``.  The
second benchmark pins those bounds in both child modes at batch 8 along
with byte-identical outputs.
"""

from __future__ import annotations

from _common import format_table, trained_substrate, write_result

import numpy as np

from repro.specdec import SdStrategy, speculative_generate

BATCHES = [1, 4, 8, 16]
MAX_NEW_TOKENS = 60
TEMPERATURE = 0.7
STRATEGY = SdStrategy(draft_depth=4, topk=4, tokens_to_verify=8)


def _prompts(target, count, seed=11):
    rng = np.random.default_rng(seed)
    return [
        list(rng.integers(3, target.config.vocab_size, size=4))
        for _ in range(count)
    ]


def _run(
    target, drafter, prompts, max_batch_size, seed=23,
    child_mode="sample",
):
    return speculative_generate(
        target, drafter, prompts, MAX_NEW_TOKENS, TEMPERATURE,
        np.random.default_rng(seed), strategy=STRATEGY,
        max_batch_size=max_batch_size, child_mode=child_mode,
    )


def _draft_launches(out):
    """(issued, saved) drafter launches summed over an output's cycles."""
    issued = sum(r.draft_launches for r in out.cycle_reports)
    saved = sum(r.draft_launches_saved for r in out.cycle_reports)
    return issued, saved


def test_batched_specdec(benchmark):
    target, drafter, _ = trained_substrate()

    def sweep():
        grid = {}
        for batch in BATCHES:
            prompts = _prompts(target, batch)
            grid[batch] = (
                _run(target, drafter, prompts, 1),
                _run(target, drafter, prompts, None),
            )
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for batch in BATCHES:
        sequential, batched = grid[batch]
        tokens = sum(batched.response_lengths)
        draft_issued, draft_saved = _draft_launches(batched)
        sd_cycles = max(
            1,
            sum(
                1 for r in batched.cycle_reports
                if r.sd_active and r.live_batch
            ),
        )
        rows.append(
            [
                batch,
                tokens,
                sequential.target_steps,
                batched.target_steps,
                f"{sequential.target_steps / batched.target_steps:.2f}x",
                draft_issued,
                f"{draft_issued / sd_cycles:.1f}",
                f"{(draft_issued + draft_saved) / max(1, draft_issued):.1f}x",
                "yes" if batched.responses == sequential.responses
                else "NO",
            ]
        )
    write_result(
        "batched_specdec",
        format_table(
            [
                "batch", "tokens", "seq launches", "batched launches",
                "launch amort", "draft launches", "draft/cycle",
                "draft amort", "identical",
            ],
            rows,
        ),
    )

    for batch in BATCHES:
        sequential, batched = grid[batch]
        # Losslessness is scheduling-independent: token-for-token equal.
        assert batched.responses == sequential.responses
        assert batched.finished == sequential.finished
        if batch >= 4:
            # The acceptance criterion: strictly fewer batched target
            # launches than the sum of per-sequence launches.
            assert batched.target_steps < sequential.target_steps
    # Amortisation grows with batch size.
    amort = [
        grid[b][0].target_steps / grid[b][1].target_steps
        for b in BATCHES
    ]
    assert amort[-1] > amort[1] > 1.0


def test_draft_launch_amortisation(benchmark):
    """Lock-step tree drafting: one drafter launch per round of growth.

    At batch 8 the lock-step build must (a) commit tokens byte-identical
    to sequential decoding in BOTH child modes, (b) keep every cycle's
    drafter launches within the mode's bound — ``1 + draft_depth`` for
    ``topk``, ``1 + rounds`` for ``sample`` — and (c) amortise at least
    4x versus per-node drafting.
    """
    target, drafter, _ = trained_substrate()
    prompts = _prompts(target, 8)

    def sweep():
        return {
            mode: (
                _run(target, drafter, prompts, 1, child_mode=mode),
                _run(target, drafter, prompts, None, child_mode=mode),
            )
            for mode in ("sample", "topk")
        }

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for mode, (sequential, batched) in grid.items():
        issued, saved = _draft_launches(batched)
        sd_reports = [
            r for r in batched.cycle_reports
            if r.sd_active and r.live_batch
        ]
        per_cycle_max = max(r.draft_launches for r in sd_reports)
        rows.append(
            [
                mode,
                "yes" if batched.responses == sequential.responses
                else "NO",
                issued,
                saved,
                f"{(issued + saved) / issued:.1f}x",
                per_cycle_max,
            ]
        )
        # Byte-identical outputs, batched vs sequential, per child mode.
        assert batched.responses == sequential.responses
        assert batched.finished == sequential.finished
        # One begin, one root proposal, then one fused launch per level
        # below the first (topk) or per further best-first round
        # (sample; a sequence expands its root and each of its at most
        # ``tokens_to_verify`` nodes at most once, so rounds <= budget + 1).
        if mode == "topk":
            assert per_cycle_max <= 1 + STRATEGY.draft_depth
        else:
            assert per_cycle_max <= 1 + (STRATEGY.tokens_to_verify + 1)
        # The acceptance criterion: >= 4x fewer drafter launches than
        # per-node drafting of the same trees.
        assert issued + saved >= 4 * issued, (mode, issued, saved)

    write_result(
        "draft_launch_amortisation",
        format_table(
            [
                "child mode", "identical", "draft launches",
                "launches saved", "amortisation", "max/cycle",
            ],
            rows,
        ),
    )
