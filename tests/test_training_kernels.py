"""Training-side kernels against their loop / einsum oracle.

Gradients and teacher-forced forwards run as 2-D BLAS products over
flattened rows, the embedding scatter as a segmented sum and the batch
builders as index arithmetic (``tests/_training_oracle.py`` keeps the
per-term, per-position forms).  A GEMM sums in another order than an
einsum, so values are held to 1e-12 relative; everything that only
gathers, and everything that runs the same code twice, is held exactly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import _training_oracle as oracle
from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    TrainingStrategy,
)
from repro.drafter import training as drafter_training
from repro.drafter.training import (
    build_training_batch,
    collect_training_sequences,
)
from repro.errors import DrafterError, GenerationError
from repro.llm import Adam, ParamSet, TinyLM, TinyLMConfig, softmax
from repro.llm.sampler import log_softmax
from repro.llm.vocab import PAD_ID, Vocabulary
from repro.rl import RlConfig, RlTrainer
from repro.rl.rollout_backends import RolloutResult
from repro.spot import CheckpointManager, OnlineDataBuffer, SpotTrainer
from repro.spot.checkpoint import default_frozen_filter
from repro.workload import PromptBatch, SuccessorChainTask

REL = 1e-12


def assert_close(actual: np.ndarray, expected: np.ndarray, what: str) -> None:
    """``actual`` within ``REL`` of ``expected``, relative to its largest
    entry (a gradient's small entries carry the rounding of the big ones)."""
    assert actual.shape == expected.shape, what
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= REL * scale, what


def assert_grads_close(actual: ParamSet, expected: ParamSet) -> None:
    assert actual.names() == expected.names()
    for name in expected.names():
        assert_close(actual[name], expected[name], name)


# -- TinyLM.backward / forward ------------------------------------------------


@pytest.fixture()
def model() -> TinyLM:
    config = TinyLMConfig(
        vocab_size=20, hidden_size=12, context_window=4, num_layers=3
    )
    return TinyLM(config, np.random.default_rng(11))


def _token_cases(rng: np.random.Generator):
    random = rng.integers(0, 20, size=(5, 17))
    pad_heavy = random.copy()
    pad_heavy[rng.random(random.shape) < 0.8] = PAD_ID
    # One id in every position: each window column holds a single token
    # id (PAD in the left-padded ones), i.e. one segment per column.
    constant = np.full((3, 9), 7)
    return {"random": random, "pad_heavy": pad_heavy, "one_id": constant}


class TestTinyLmKernels:
    @pytest.mark.parametrize("case", ["random", "pad_heavy", "one_id"])
    @pytest.mark.parametrize("selected", [False, True])
    def test_backward_matches_oracle(self, model, case, selected):
        """Selected: the backward of a forward over some cells is the
        grid's backward with no gradient at the other cells."""
        rng = np.random.default_rng(3)
        tokens = _token_cases(rng)[case]
        grid = model.forward(tokens, keep_cache=True)
        dlogits = rng.normal(size=grid.logits.shape)
        result, got_dlogits = grid, dlogits
        if selected:
            keep = rng.random(tokens.shape) < 0.6
            dlogits *= keep[:, :, None]
            cells = np.nonzero(keep)
            result = model.forward(tokens, keep_cache=True, cells=cells)
            got_dlogits = dlogits[cells][None]
        # The oracle reads the cache; the production backward consumes it.
        want = oracle.tinylm_backward(model, grid.cache, dlogits)
        assert_grads_close(model.backward(result.cache, got_dlogits), want)

    @pytest.mark.parametrize(
        "shape", [(128, 69), (3, 5)], ids=["rl_step", "tiny"]
    )
    def test_selected_cells_are_the_grid_rows(self, shape):
        """A selected cell's logits, hiddens and cache rows are the grid
        forward's: bitwise at ``rl_step``'s grid, and to rounding on a
        tiny one, where BLAS may pick another kernel for each GEMM."""
        model = TinyLM(
            TinyLMConfig(
                vocab_size=32, hidden_size=32, context_window=4,
                num_layers=4, init_scale=0.8,
            ),
            np.random.default_rng(4),
        )
        rng = np.random.default_rng(7)
        lengths = rng.integers(1, shape[1] + 1, size=shape[0])
        lengths[0] = shape[1]
        tokens = rng.integers(3, 32, size=shape)
        tokens[np.arange(shape[1]) >= lengths[:, None]] = PAD_ID
        cells = np.nonzero(np.arange(shape[1]) < lengths[:, None])
        grid = model.forward(tokens, keep_cache=True)
        picked = model.forward(tokens, keep_cache=True, cells=cells)
        assert picked.logits.shape == (1, lengths.sum(), 32)
        assert np.array_equal(
            picked.cache.windows[0], grid.cache.windows[cells]
        )
        pairs = [(picked.logits, grid.logits)]
        pairs += zip(picked.hiddens, grid.hiddens)
        pairs += zip(picked.cache.block_acts, grid.cache.block_acts)
        for got, want in pairs:
            if shape == (128, 69):
                assert np.array_equal(got[0], want[cells])
            else:
                assert_close(got[0], want[cells], "row")

    def test_cells_outside_the_grid_are_refused(self, model):
        tokens = np.zeros((2, 3), dtype=np.int64)
        outside, negative = ([0, 2], [0, 0]), ([0], [-1])
        ragged, two_d = ([0, 1], [0]), ([[0]], [[0]])
        for cells in (outside, negative, ragged, two_d):
            with pytest.raises(GenerationError, match="cells"):
                model.forward(tokens, cells=cells)

    def test_forward_rows_match_per_sequence_forward(self, model):
        tokens = np.random.default_rng(5).integers(0, 20, size=(6, 13))
        batched = model.forward(tokens, keep_cache=True)
        assert batched.logits.shape == (6, 13, 20)
        assert batched.cache.windows.shape == (6, 13, 4)
        for row in range(6):
            single = model.forward(tokens[row : row + 1], keep_cache=True)
            assert np.array_equal(
                batched.cache.windows[row], single.cache.windows[0]
            )
            assert_close(batched.logits[row], single.logits[0], "logits")
            for got, want in zip(batched.hiddens, single.hiddens):
                assert got.shape == (6, 13, 12)
                assert_close(got[row], want[0], "hidden")

    def test_step_still_hands_over_one_row_per_sequence(self, model):
        """The inference path keeps its (B, 1, k) block: every row is
        its own product, whatever ``forward`` flattens."""
        seen = []
        original = model._forward_windows

        def spy(windows, keep_cache):
            seen.append(windows.shape)
            return original(windows, keep_cache)

        model._forward_windows = spy
        model.step(np.zeros((5, 4), dtype=np.int64))
        model.forward(np.zeros((5, 7), dtype=np.int64))
        assert seen == [(5, 1, 4), (1, 35, 4)]


# -- EAGLE cell / fusion gradients ------------------------------------------------


def _drafter(target, strategy, seed=0) -> EagleDrafter:
    return EagleDrafter(
        target,
        EagleDrafterConfig(fused_layers=strategy.fused_layers),
        np.random.default_rng(seed),
    )


class TestEagleKernels:
    def test_cell_backward_matches_oracle(self, target):
        rng = np.random.default_rng(2)
        drafter = _drafter(target, TrainingStrategy.eagle())
        d = drafter.hidden_size
        states = rng.normal(size=(37, d))
        tokens = rng.integers(0, target.config.vocab_size, size=37)
        _, cache = drafter.forward_cell_batch(states, tokens)
        dhidden = rng.normal(size=(37, d))
        grads = drafter.params.zeros_like()
        expected = drafter.params.zeros_like()
        # Two accumulating calls, as two unroll steps make.
        for _ in range(2):
            dstate = drafter.backward_cell_batch(cache, dhidden, grads)
            want = oracle.backward_cell_batch(
                drafter, cache, dhidden, expected
            )
            assert_close(dstate, want, "dstate")
        assert_grads_close(grads, expected)

    def test_input_gradient_is_skipped_only_on_request(self, target):
        rng = np.random.default_rng(2)
        drafter = _drafter(target, TrainingStrategy.eagle())
        states = rng.normal(size=(9, drafter.hidden_size))
        _, cache = drafter.forward_cell_batch(states, np.arange(9))
        dhidden = rng.normal(size=states.shape)
        with_grad = drafter.params.zeros_like()
        without = drafter.params.zeros_like()
        assert drafter.backward_cell_batch(cache, dhidden, with_grad).shape == (
            states.shape
        )
        assert (
            drafter.backward_cell_batch(
                cache, dhidden, without, input_grad=False
            )
            is None
        )
        for name in with_grad.names():
            assert np.array_equal(with_grad[name], without[name])

    def test_fuse_backward_matches_oracle(self, target):
        rng = np.random.default_rng(4)
        strategy = TrainingStrategy.eagle3(target.num_layers)
        drafter = _drafter(target, strategy)
        d = drafter.hidden_size
        stacks = rng.normal(size=(23, target.num_layers, d))
        dfused = rng.normal(size=(23, d))
        grads = drafter.params.zeros_like()
        expected = drafter.params.zeros_like()
        drafter.backward_fuse(stacks, dfused, grads)
        oracle.backward_fuse(drafter, stacks, dfused, expected)
        assert np.any(expected["w_fuse"] != 0.0)
        assert_grads_close(grads, expected)

    def test_embedded_forward_is_the_token_forward(self, target):
        rng = np.random.default_rng(6)
        drafter = _drafter(target, TrainingStrategy.eagle())
        states = rng.normal(size=(11, drafter.hidden_size))
        tokens = rng.integers(0, target.config.vocab_size, size=11)
        by_token, _ = drafter.forward_cell_batch(states, tokens)
        by_embed, _ = drafter.cell(
            states, target.params["embed"][tokens]
        )
        assert np.array_equal(by_token, by_embed)


# -- finite differences for every strategy ----------------------------------------


def _strategy_loss(drafter, strategy, batch) -> float:
    """The configured loss written from its definition (softmax + log)."""
    embed = drafter.target.params["embed"]
    n = batch.num_positions
    state = drafter.fuse(batch.fuse_stacks)
    total = 0.0
    for j in range(strategy.unroll_steps):
        state, _ = drafter.forward_cell_batch(state, batch.tokens[:, j])
        q = softmax(state @ embed.T)
        top = batch.top_hiddens[:, j, :]
        p = softmax(top @ embed.T)
        if strategy.ce_mode == "hard":
            total += -float(
                np.mean(np.log(q[np.arange(n), batch.labels[:, j]]))
            )
        elif strategy.ce_mode == "soft":
            total += -float(np.mean(np.sum(p * np.log(q), axis=-1)))
        else:
            total += float(
                np.mean(np.sum(q * (np.log(q) - np.log(p)), axis=-1))
            )
        total += strategy.l1_weight * float(np.mean(np.abs(state - top)))
    return total / strategy.unroll_steps


def _captured_grads(trainer, batch, monkeypatch) -> dict:
    """``{"grads": what one train_step hands to Adam, "report": its
    report}``, with the update itself suppressed."""
    captured = {}
    monkeypatch.setattr(
        Adam,
        "step",
        lambda self, params, grads: captured.update(grads=grads.copy()),
    )
    report = trainer.train_step(batch)
    monkeypatch.undo()
    captured["report"] = report
    return captured


STRATEGIES = {
    "hass": lambda layers: TrainingStrategy.hass(),
    "eagle3": TrainingStrategy.eagle3,
    "osd": lambda layers: TrainingStrategy.osd(),
    "hard": lambda layers: TrainingStrategy(name="hard", ce_mode="hard"),
}


class TestStrategyGradients:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_finite_differences(
        self, target, rollout_sequences, name, monkeypatch
    ):
        strategy = STRATEGIES[name](target.num_layers)
        drafter = _drafter(target, strategy)
        batch = build_training_batch(
            collect_training_sequences(target, rollout_sequences[:2]),
            unroll_steps=strategy.unroll_steps,
            max_positions=5,
            rng=np.random.default_rng(1),
        )
        trainer = DrafterTrainer(drafter, DrafterTrainingConfig(strategy=strategy))
        # No clipping: the captured gradient is the loss gradient.
        monkeypatch.setattr(drafter_training, "GRAD_CLIP", 1e9)
        captured = _captured_grads(trainer, batch, monkeypatch)
        grads = captured["grads"]
        assert captured["report"].total_loss == pytest.approx(
            _strategy_loss(drafter, strategy, batch), rel=1e-9
        )
        assert ("w_fuse" in grads) == (name == "eagle3")

        rng = np.random.default_rng(3)
        for pname in grads.names():
            arr = drafter.params[pname]
            for flat in rng.integers(0, arr.size, size=2):
                idx = np.unravel_index(flat, arr.shape)
                eps = 1e-6
                orig = arr[idx]
                arr[idx] = orig + eps
                up = _strategy_loss(drafter, strategy, batch)
                arr[idx] = orig - eps
                down = _strategy_loss(drafter, strategy, batch)
                arr[idx] = orig
                assert grads[pname][idx] == pytest.approx(
                    (up - down) / (2 * eps), rel=2e-3, abs=1e-7
                ), pname

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_train_step_gradients_match_oracle_backward(
        self, target, rollout_sequences, name, monkeypatch
    ):
        """The whole update, with the oracle's kernels swapped in."""
        strategy = STRATEGIES[name](target.num_layers)
        batch = build_training_batch(
            collect_training_sequences(target, rollout_sequences[:6]),
            unroll_steps=strategy.unroll_steps,
        )
        config = DrafterTrainingConfig(strategy=strategy)
        got = _captured_grads(
            DrafterTrainer(_drafter(target, strategy), config),
            batch,
            monkeypatch,
        )["grads"]
        monkeypatch.setattr(
            EagleDrafter,
            "backward_cell_batch",
            lambda self, cache, dhidden, grads, input_grad=True: (
                oracle.backward_cell_batch(self, cache, dhidden, grads)
            ),
        )
        monkeypatch.setattr(
            EagleDrafter,
            "backward_fuse",
            lambda self, stacks, dfused, grads: oracle.backward_fuse(
                self, stacks, dfused, grads
            ),
        )
        want = _captured_grads(
            DrafterTrainer(_drafter(target, strategy), config),
            batch,
            monkeypatch,
        )["grads"]
        assert_grads_close(got, want)


# -- batch builders ---------------------------------------------------------------


def _batches_equal(got, want) -> None:
    for field in ("fuse_stacks", "tokens", "labels", "top_hiddens"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field


class TestBuildTrainingBatch:
    @pytest.fixture()
    def sequences(self, target):
        rng = np.random.default_rng(8)
        # Ragged, including sequences too short for any unroll depth.
        lengths = [3, 4, 12, 5, 30, 9, 3, 17]
        return collect_training_sequences(
            target,
            [list(rng.integers(3, 24, size=n)) for n in lengths],
            step_index=4,
        )

    @pytest.mark.parametrize("unroll", [1, 3, 7])
    def test_equals_the_position_loop(self, sequences, unroll):
        _batches_equal(
            build_training_batch(sequences, unroll),
            oracle.build_training_batch(sequences, unroll),
        )

    @pytest.mark.parametrize("cap", [1, 13, 10_000])
    def test_subsample_consumes_the_same_draws(self, sequences, cap):
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        _batches_equal(
            build_training_batch(sequences, 2, max_positions=cap, rng=rng),
            oracle.build_training_batch(
                sequences, 2, max_positions=cap, rng=ref_rng
            ),
        )
        assert rng.random() == ref_rng.random()

    def test_errors_are_kept(self, sequences):
        with pytest.raises(DrafterError):
            build_training_batch(sequences[:1], 7)
        with pytest.raises(DrafterError):
            build_training_batch(sequences, 1, max_positions=2)


class TestCollectTrainingSequences:
    def _compare(self, target, raw, step_index):
        got = collect_training_sequences(target, raw, step_index)
        want = oracle.collect_training_sequences(target, raw, step_index)
        assert len(got) == len(want) == sum(len(s) >= 3 for s in raw)
        for a, b in zip(got, want):
            assert np.array_equal(a.tokens, b.tokens)
            assert a.step_index == b.step_index == step_index
            assert a.hidden_stacks.shape == b.hidden_stacks.shape
            assert_close(a.hidden_stacks, b.hidden_stacks, "stacks")
            # An owned array, not a view pinning the padded batch.
            assert a.hidden_stacks.base is None

    def test_matches_one_forward_per_sequence(self, target):
        rng = np.random.default_rng(9)
        lengths = [5, 2, 40, 3, 1, 18, 0, 7]
        raw = [list(rng.integers(3, 24, size=n)) for n in lengths]
        self._compare(target, raw, step_index=6)

    def test_it_is_one_forward(self, target, monkeypatch):
        rng = np.random.default_rng(10)
        raw = [list(rng.integers(3, 24, size=n)) for n in (9, 30, 2, 4)]
        calls = []
        forward = TinyLM.forward
        monkeypatch.setattr(
            TinyLM,
            "forward",
            lambda self, tokens, keep_cache=False, cells=None: (
                calls.append(forward(self, tokens, keep_cache, cells)),
                calls[-1],
            )[1],
        )
        got = collect_training_sequences(target, raw)
        assert [s.length for s in got] == [9, 30, 4]
        # Of the padded (3, 30) grid only the 9 + 30 + 4 real rows run.
        assert [call.logits.shape[:2] for call in calls] == [(1, 43)]

    def test_nothing_to_collect(self, target):
        assert collect_training_sequences(target, [[3, 4], []]) == []

    def test_capture_holds_the_real_rows_only(self):
        """The traced peak stays under the R real rows' owned stacks, the
        forward's hiddens they are copied from and one (R, k*d) input
        block: on a long-tailed batch the padded grid is 2.9x R."""
        vocab, d, k, layers = 32, 32, 4, 3
        model = TinyLM(
            TinyLMConfig(
                vocab_size=vocab, hidden_size=d, context_window=k,
                num_layers=layers,
            ),
            np.random.default_rng(1),
        )
        rng = np.random.default_rng(3)
        raw = [
            list(rng.integers(4, vocab, size=n)) for n in [103] + [31] * 15
        ]
        rows = sum(map(len, raw))
        tracemalloc.start()
        try:
            got = collect_training_sequences(model, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stacks = rows * layers * d * 8
        assert sum(s.hidden_stacks.nbytes for s in got) == stacks
        assert peak < 2 * stacks + rows * k * d * 8


# -- per-slice constants ----------------------------------------------------------


def _weights(drafter) -> dict:
    return {name: arr.copy() for name, arr in drafter.params.items()}


def _make_spot(target, sequences, directory=None, seed=0) -> SpotTrainer:
    spot = SpotTrainer(
        trainer=DrafterTrainer(
            _drafter(target, TrainingStrategy.eagle(), seed),
            DrafterTrainingConfig(learning_rate=5e-3),
        ),
        buffer=OnlineDataBuffer(capacity_tokens=100_000),
        checkpoints=(
            CheckpointManager(str(directory)) if directory else None
        ),
        batch_sequences=8,
        max_positions=256,
        checkpoint_every=4,
    )
    spot.begin_step(0)
    spot.ingest(sequences)
    return spot


class TestPreparedBatch:
    @pytest.mark.parametrize("name", ["hass", "eagle3", "osd"])
    def test_train_epochs_is_n_train_steps_bitwise(
        self, target, rollout_sequences, name
    ):
        strategy = STRATEGIES[name](target.num_layers)
        batch = build_training_batch(
            collect_training_sequences(target, rollout_sequences[:4]),
            unroll_steps=strategy.unroll_steps,
        )
        config = DrafterTrainingConfig(strategy=strategy)
        looped = DrafterTrainer(_drafter(target, strategy), config)
        stepped = DrafterTrainer(_drafter(target, strategy), config)
        reports = looped.train_epochs(batch, 5)
        singles = [stepped.train_step(batch) for _ in range(5)]
        assert looped.steps_done == stepped.steps_done == 5
        assert [r.total_loss for r in reports] == [
            r.total_loss for r in singles
        ]
        for arr, other in zip(
            _weights(looped.drafter).values(),
            _weights(stepped.drafter).values(),
        ):
            assert np.array_equal(arr, other)

    def test_prepared_state_is_shared_only_without_trainable_fusion(
        self, target, rollout_sequences
    ):
        for name, shared in (("hass", True), ("eagle3", False)):
            strategy = STRATEGIES[name](target.num_layers)
            batch = build_training_batch(
                collect_training_sequences(target, rollout_sequences[:2]),
                unroll_steps=strategy.unroll_steps,
            )
            state, token_embeds, teacher, rows = DrafterTrainer(
                _drafter(target, strategy),
                DrafterTrainingConfig(strategy=strategy),
            ).prepare(batch)
            assert (state is not None) == shared
            assert len(teacher) == strategy.unroll_steps
            assert token_embeds.shape[:2] == batch.tokens.shape
            assert np.array_equal(rows, np.arange(batch.num_positions))

    def test_shallow_batch_rejected(self, target, rollout_sequences):
        batch = build_training_batch(
            collect_training_sequences(target, rollout_sequences[:2]), 1
        )
        trainer = DrafterTrainer(
            _drafter(target, TrainingStrategy.hass()),
            DrafterTrainingConfig(strategy=TrainingStrategy.hass()),
        )
        with pytest.raises(DrafterError):
            trainer.train_step(batch)

    def test_target_moved_between_slices_is_seen(
        self, target, rollout_sequences, monkeypatch
    ):
        """No constant outlives the slice that built it: an in-place
        policy update between two slices changes the next teacher."""
        policy = target.clone()
        spot = _make_spot(
            policy, collect_training_sequences(policy, rollout_sequences)
        )
        seen = []
        prepare = DrafterTrainer.prepare
        monkeypatch.setattr(
            DrafterTrainer,
            "prepare",
            lambda self, batch: (
                seen.append((batch, prepare(self, batch))),
                seen[-1][1],
            )[1],
        )
        spot.train_slice(3, np.random.default_rng(0))
        policy.params["embed"] *= 1.25  # in place, as the RL update does
        spot.train_slice(3, np.random.default_rng(0))

        assert len(seen) == 2  # once per slice, not once per update
        (batch_a, first), (batch_b, second) = seen
        assert np.array_equal(batch_a.top_hiddens, batch_b.top_hiddens)
        teacher_a, teacher_b = first[2][0], second[2][0]
        assert not np.allclose(teacher_a, teacher_b)
        assert np.array_equal(
            teacher_b,
            softmax(batch_b.top_hiddens[:, 0] @ policy.params["embed"].T),
        )
        assert np.array_equal(
            second[1], policy.params["embed"][batch_b.tokens]
        )
        for owner in (spot, spot.trainer, spot.trainer.drafter):
            assert not any(
                value is first or value is second
                for value in vars(owner).values()
            )

    def test_slice_calls_train_step_once_per_update(
        self, target, rollout_sequences, monkeypatch
    ):
        spot = _make_spot(
            target, collect_training_sequences(target, rollout_sequences)
        )
        calls = []
        step = DrafterTrainer.train_step
        monkeypatch.setattr(
            DrafterTrainer,
            "train_step",
            lambda self, *args, **kwargs: (
                calls.append(1),
                step(self, *args, **kwargs),
            )[1],
        )
        assert spot.train_slice(7, np.random.default_rng(0)).updates == 7
        assert len(calls) == 7


# -- preemption-safe checkpoints ------------------------------------------------------


class TestResume:
    def test_adam_state_round_trips(self):
        params = ParamSet({"w": np.arange(6.0).reshape(2, 3)})
        grads = ParamSet({"w": np.ones((2, 3))})
        first, twin = Adam(lr=0.1), Adam(lr=0.1)
        first.step(params, grads)
        twin.load_state_dict(first.state_dict())
        assert twin.step_count == 1
        other = params.copy()
        first.step(params, grads)
        twin.step(other, grads)
        assert np.array_equal(params["w"], other["w"])
        # A never-stepped optimizer round-trips to never-stepped.
        twin.load_state_dict(Adam().state_dict())
        assert twin.step_count == 0 and twin._m is None

    def test_trainer_state_is_flat_and_survives_the_filter(
        self, target, rollout_sequences
    ):
        spot = _make_spot(
            target, collect_training_sequences(target, rollout_sequences)
        )
        spot.train_slice(2, np.random.default_rng(0))
        state = spot.trainer.state_dict()
        names = spot.trainer.drafter.params.names()
        assert set(state) == (
            set(names)
            | {f"optimizer.m.{n}" for n in names}
            | {f"optimizer.v.{n}" for n in names}
            | {"optimizer.step", "trainer.steps_done"}
        )
        assert all(isinstance(v, np.ndarray) for v in state.values())
        assert all(default_frozen_filter(name) for name in state)
        assert int(state["optimizer.step"]) == 2

    def test_restore_resumes_bitwise(
        self, target, rollout_sequences, tmp_path
    ):
        sequences = collect_training_sequences(target, rollout_sequences)
        spot = _make_spot(target, sequences, tmp_path / "a")
        spot.train_slice(5, np.random.default_rng(0))
        spot.preempt()
        spot.checkpoints.wait_all()
        path = spot.checkpoints.latest()
        spot.train_slice(6, np.random.default_rng(1))
        continued = _weights(spot.trainer.drafter)

        resumed = _make_spot(target, sequences, tmp_path / "b", seed=99)
        resumed.restore(path)
        assert resumed.trainer.steps_done == 5
        assert resumed.trainer.optimizer.step_count == 5
        resumed.train_slice(6, np.random.default_rng(1))
        for name, arr in _weights(resumed.trainer.drafter).items():
            assert np.array_equal(arr, continued[name]), name

        # Weights alone restart Adam's moments and bias correction.
        weights_only = _make_spot(target, sequences, seed=99)
        weights_only.trainer.drafter.load_state_dict(
            resumed.checkpoints.load(path)
        )
        weights_only.train_slice(6, np.random.default_rng(1))
        assert any(
            not np.array_equal(arr, continued[name])
            for name, arr in _weights(weights_only.trainer.drafter).items()
        )

    def test_restore_needs_a_checkpoint_manager(
        self, target, rollout_sequences
    ):
        spot = _make_spot(
            target, collect_training_sequences(target, rollout_sequences)
        )
        with pytest.raises(DrafterError):
            spot.restore("nowhere.npz")


# -- policy update ----------------------------------------------------------------


class TestPolicyUpdate:
    def test_matches_the_per_row_loop(self):
        rng = np.random.default_rng(12)
        config = TinyLMConfig(
            vocab_size=24, hidden_size=20, context_window=4, num_layers=3
        )
        rl_config = RlConfig(
            num_prompts=3, group_size=4, max_new_tokens=12,
            temperature=0.9, learning_rate=5e-3, kl_coef=0.05,
        )
        prompts = [list(rng.integers(3, 24, size=3)) for _ in range(12)]
        lengths = [0, 5, 12, 1, 7, 3, 12, 2, 9, 4, 6, 8]
        rollout = RolloutResult(
            prompts=prompts,
            responses=[list(rng.integers(3, 24, size=n)) for n in lengths],
            finished=[True] * 12,
            target_steps=0,
        )
        advantages = rng.normal(size=12)

        def trainer():
            policy = TinyLM(config, np.random.default_rng(1))
            made = RlTrainer(
                policy,
                SuccessorChainTask(vocab=Vocabulary(24), target_pairs=8),
                rl_config,
            )
            # A reference that differs from the policy: the KL term is live.
            made.reference.params["w_in"] += 0.05
            return made

        new, old = trainer(), trainer()
        got = new._update_policy(rollout, advantages)
        want = oracle.update_policy(old, rollout, advantages)
        assert got == pytest.approx(want, rel=1e-9)
        for name, arr in new.policy.params.items():
            # Adam divides by sqrt(v): rounding grows past the gradients'.
            assert np.allclose(
                arr, old.policy.params[name], rtol=1e-9, atol=1e-12
            ), name

    def test_step_holds_one_activation_set(self):
        """One step's traced peak stays under the policy's cache plus one
        (N, k*d) input block and one (N, V) array over the N response
        rows: the backward's embedding re-gather beside ``dlogits``,
        which is built in place on the policy's probabilities (a second
        (N, V) array would break the bound).  The batch is long-tailed,
        so its padded (B, T) grid holds 3.6x its response rows: no pass
        may compute a prompt or padding cell."""
        vocab, d, k, layers = 32, 32, 4, 3
        rng = np.random.default_rng(3)
        trainer = RlTrainer(
            TinyLM(
                TinyLMConfig(
                    vocab_size=vocab, hidden_size=d, context_window=k,
                    num_layers=layers,
                ),
                np.random.default_rng(1),
            ),
            SuccessorChainTask(vocab=Vocabulary(vocab), target_pairs=4),
            RlConfig(num_prompts=4, group_size=4, max_new_tokens=96),
        )
        batch = PromptBatch(
            [list(rng.integers(4, vocab, size=6)) for _ in range(4)], 4
        )
        lengths = [96] + [24] * 15
        rollout = RolloutResult(
            prompts=batch.expanded,
            responses=[list(rng.integers(4, vocab, size=n)) for n in lengths],
            finished=[True] * 16,
            target_steps=0,
        )
        rows = sum(lengths)  # N; the grid is 16 * (6 + 96)
        cache = (2 * layers - 1) * rows * d * 8  # hiddens + block outputs
        tracemalloc.start()
        try:
            trainer.step(rollout=rollout, prompts=batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cache + rows * (k * d + vocab) * 8

    def test_no_response_tokens_is_a_no_op(self):
        config = TinyLMConfig(vocab_size=24, hidden_size=8)
        policy = TinyLM(config, np.random.default_rng(1))
        trainer = RlTrainer(
            policy,
            SuccessorChainTask(vocab=Vocabulary(24), target_pairs=8),
            RlConfig(num_prompts=1, group_size=2),
        )
        before = policy.params.copy()
        rollout = RolloutResult(
            prompts=[[1, 5], [1, 6]], responses=[[], []],
            finished=[True, True], target_steps=0,
        )
        assert trainer._update_policy(rollout, np.zeros(2)) == (0.0, 0.0)
        assert policy.params.max_abs_diff(before) == 0.0


def test_one_log_softmax_gives_the_same_probabilities():
    logits = np.random.default_rng(0).normal(size=(7, 24)) * 5
    assert np.allclose(
        np.exp(log_softmax(logits)), softmax(logits), rtol=1e-14, atol=0
    )
