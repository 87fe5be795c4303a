"""Tests for the continuous-batching speculative generation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SpecDecodeError
from repro.longtail import RolloutScheduler
from repro.rollout import AdaptiveSdConfig, AdaptiveSdManager
from repro.serving import ServingEngine, ServingRequest
from repro.specdec import (
    BatchedSpecDecodeEngine,
    ContinuousBatchScheduler,
    SdStrategy,
    speculative_generate,
)
from repro.tuner.mab import WINDOW_SIZE, BegMabSelector

from conftest import drain, seeded_requests

PROMPTS = [[5, 6, 7], [9, 10, 11], [4, 8, 12], [13, 14, 15],
           [6, 9, 13], [7, 11, 5], [12, 4, 9], [15, 13, 6]]


def _managed_generate(target, drafter, manager, max_new_tokens, seed):
    """``speculative_generate``'s one-worker pool, with SD decided per
    cycle by an adaptive manager instead of a static strategy."""
    pool = ServingEngine(target, drafter, sd_managers=[manager],
                         temperature=0.9)
    pool.run(seeded_requests(
        PROMPTS, max_new_tokens, np.random.default_rng(seed)
    ))
    return pool.workers[0].engine.result()


@pytest.fixture()
def strategy():
    return SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


def _generate(target, drafter, strategy, max_batch_size, seed=42,
              max_new_tokens=40):
    return speculative_generate(
        target, drafter, PROMPTS, max_new_tokens=max_new_tokens,
        temperature=0.9, rng=np.random.default_rng(seed),
        strategy=strategy, max_batch_size=max_batch_size,
    )


class TestBatchedSequentialEquivalence:
    def test_tree_mode_tokens_identical(
        self, target, trained_drafter, strategy
    ):
        """The acceptance criterion: batched == sequential, token for
        token, under a fixed seed in sample child mode."""
        sequential = _generate(target, trained_drafter, strategy, 1)
        for max_batch in (2, 3, 5, None):
            batched = _generate(
                target, trained_drafter, strategy, max_batch
            )
            assert batched.responses == sequential.responses
            assert batched.finished == sequential.finished
            assert batched.prompts == sequential.prompts

    def test_chain_mode_tokens_identical(self, target, trained_drafter):
        """A chain is the ``topk=1`` tree."""
        chain = SdStrategy(3, 1, 3)
        sequential = _generate(target, trained_drafter, chain, 1)
        batched = _generate(target, trained_drafter, chain, None)
        assert batched.responses == sequential.responses

    def test_untrained_drafter_equivalence(
        self, target, untrained_drafter, strategy
    ):
        """Holds regardless of drafter quality (more rejection paths)."""
        sequential = _generate(target, untrained_drafter, strategy, 1)
        batched = _generate(target, untrained_drafter, strategy, None)
        assert batched.responses == sequential.responses

    def test_fewer_target_launches_when_batched(
        self, target, trained_drafter, strategy
    ):
        """Batched verification amortises target forwards: strictly
        fewer launches than the sum of per-sequence launches."""
        sequential = _generate(target, trained_drafter, strategy, 1)
        batched = _generate(target, trained_drafter, strategy, None)
        assert batched.target_steps < sequential.target_steps
        # Total committed work is identical.
        assert (
            batched.metrics.total_committed
            == sequential.metrics.total_committed
        )

    def test_metrics_totals_match(
        self, target, trained_drafter, strategy
    ):
        sequential = _generate(target, trained_drafter, strategy, 1)
        batched = _generate(target, trained_drafter, strategy, 4)
        assert (
            batched.metrics.num_cycles == sequential.metrics.num_cycles
        )
        assert (
            batched.metrics.total_drafted
            == sequential.metrics.total_drafted
        )
        assert batched.metrics.mean_accept_length == pytest.approx(
            sequential.metrics.mean_accept_length
        )


class TestScheduler:
    def _requests(self, n):
        return [
            ServingRequest(
                request_id=i, prompt=[5 + i], max_new_tokens=4,
                arrival_time=0.0, seed=i,
            )
            for i in range(n)
        ]

    def test_capacity_respected(self):
        scheduler = ContinuousBatchScheduler(
            self._requests(5), max_batch_size=2
        )
        admitted = scheduler.admit()
        assert len(admitted) == 2
        assert scheduler.num_live == 2
        assert scheduler.num_waiting == 3

    def test_fifo_admission_into_freed_slots(self):
        scheduler = ContinuousBatchScheduler(
            self._requests(3), max_batch_size=2
        )
        scheduler.admit()
        first = scheduler.live[0]
        first.commit([3, 3, 3, 3], eos_id=2)  # hits the cap
        retired = scheduler.retire_finished()
        assert retired == [first]
        admitted = scheduler.admit()
        assert [s.request.request_id for s in admitted] == [2]
        assert scheduler.num_live == 2

    def test_results_order_and_drain_guard(self):
        scheduler = ContinuousBatchScheduler(
            self._requests(3), max_batch_size=1
        )
        with pytest.raises(SpecDecodeError):
            scheduler.results()
        order = []
        while scheduler.has_work:
            scheduler.admit()
            slot = scheduler.live[0]
            slot.commit([2], eos_id=2)  # immediate EOS
            order.append(slot.request.request_id)
            scheduler.retire_finished()
        assert order == [0, 1, 2]
        results = scheduler.results()
        assert [s.request.request_id for s in results] == [0, 1, 2]
        assert all(s.done for s in results)

    def test_commit_truncates_at_eos_and_cap(self):
        request = ServingRequest(
            request_id=0, prompt=[], max_new_tokens=3, arrival_time=0.0,
        )
        slot = ContinuousBatchScheduler([request]).admit()[0]
        assert slot.commit([5, 2, 9], eos_id=2) == 2
        assert slot.response == [5, 2]
        assert slot.done and slot.finished

    def test_bad_capacity(self):
        with pytest.raises(SpecDecodeError):
            ContinuousBatchScheduler(self._requests(1), max_batch_size=0)


class TestCycleReports:
    def test_live_batch_trail(self, target, trained_drafter, strategy):
        out = _generate(target, trained_drafter, strategy, 3)
        assert out.cycle_reports
        for report in out.cycle_reports:
            assert 1 <= report.live_batch <= 3
            assert report.sd_active
            assert report.strategy == strategy
        assert (
            sum(r.committed_tokens for r in out.cycle_reports)
            == sum(out.response_lengths)
        )
        assert (
            sum(r.admitted for r in out.cycle_reports) == len(PROMPTS)
        )
        assert (
            sum(r.retired for r in out.cycle_reports) == len(PROMPTS)
        )

    def test_live_batch_shrinks_without_waiting_queue(
        self, target, trained_drafter, strategy
    ):
        """With every prompt admitted up front the live batch can only
        shrink — the paper's long-tail regime."""
        out = _generate(target, trained_drafter, strategy, None)
        sizes = [r.live_batch for r in out.cycle_reports]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == len(PROMPTS)


class TestAdaptiveIntegration:
    def _manager(self, threshold):
        return AdaptiveSdManager(
            AdaptiveSdConfig(
                activation_threshold=threshold,
                selector=BegMabSelector(
                    [SdStrategy(3, 2, 6), SdStrategy(4, 2, 8)], [1, 4]
                ),
            )
        )

    @pytest.mark.parametrize("speculates", ["strategy", "manager"])
    def test_drafterless_engine_refuses_to_speculate(
        self, target, speculates
    ):
        """SD off needs no drafter; a strategy or manager without one
        is refused at construction, not at the first draft."""
        strategy = SdStrategy(3, 2, 6) if speculates == "strategy" else None
        manager = self._manager(4) if speculates == "manager" else None
        with pytest.raises(SpecDecodeError):
            BatchedSpecDecodeEngine(
                target, None, strategy, 0.9, sd_manager=manager
            )
        with pytest.raises(SpecDecodeError):
            ServingEngine(
                target, None, strategy=strategy, temperature=0.9,
                sd_managers=None if manager is None else [manager],
            )

    def test_sd_off_pool_is_a_manager_that_never_engages(
        self, target, trained_drafter
    ):
        """A pool with no drafter, strategy or manager decodes every
        cycle vanilla: byte-identical, launch for launch, to a managed
        pool whose elastic rule never turns SD on."""

        class NeverEngages(AdaptiveSdManager):
            def should_use_sd(self, running_requests):
                return False

        def run(pool):
            report = pool.run(
                seeded_requests(PROMPTS, 20, np.random.default_rng(8))
            )
            return [r.response for r in report.records], report

        off, off_report = run(
            ServingEngine(target, None, num_workers=2, temperature=0.9,
                          max_batch_size=3)
        )
        managed, managed_report = run(
            ServingEngine(
                target, trained_drafter, num_workers=2, temperature=0.9,
                max_batch_size=3,
                sd_managers=[
                    NeverEngages(self._manager(4).config) for _ in range(2)
                ],
            )
        )
        assert off == managed
        assert len(off) == len(PROMPTS) and all(off)
        assert off_report.totals.target_steps == (
            managed_report.totals.target_steps
        )
        assert off_report.ticks == managed_report.ticks
        assert off_report.totals.draft_launches == 0

    def test_elastic_activation_on_real_batch(
        self, target, trained_drafter
    ):
        """Above the threshold the engine decodes vanilla; once the live
        batch shrinks to it, SD engages — driven by real dynamics."""
        manager = self._manager(threshold=4)
        out = _managed_generate(target, trained_drafter, manager, 40, 7)
        assert manager.activations == 1
        vanilla = [r for r in out.cycle_reports if not r.sd_active]
        sd = [r for r in out.cycle_reports if r.sd_active]
        assert vanilla and sd
        assert all(r.live_batch > 4 for r in vanilla)
        assert all(r.live_batch <= 4 for r in sd)
        assert all(r.strategy is None for r in vanilla)
        assert all(r.strategy is not None for r in sd)

    def test_bandit_window_matches_executed_sd_cycles(
        self, target, trained_drafter
    ):
        """Every SD cycle feeds the bandit exactly one measurement."""
        manager = self._manager(threshold=4)
        out = _managed_generate(target, trained_drafter, manager, 30, 8)
        sd_cycles = sum(1 for r in out.cycle_reports if r.sd_active)
        observations = sum(
            v["observations"]
            for v in manager.selector.snapshot().values()
        )
        # Observations cannot exceed executed cycles; with few cycles
        # they match exactly (sliding windows have not wrapped).
        assert observations <= sd_cycles
        if sd_cycles <= WINDOW_SIZE:
            assert observations == sd_cycles

    def test_adaptive_mode_is_seed_reproducible(
        self, target, trained_drafter
    ):
        """The bandit is fed a deterministic work-proxy cost, so even
        multi-arm adaptive runs replay exactly under a fixed seed."""
        def run():
            return _managed_generate(
                target, trained_drafter, self._manager(threshold=4), 30, 13
            )

        first, second = run(), run()
        assert first.responses == second.responses
        assert [r.strategy for r in first.cycle_reports] == [
            r.strategy for r in second.cycle_reports
        ]

    def test_reused_manager_reports_per_rollout_activations(
        self, target, trained_drafter
    ):
        """A new session resets the manager: a reused manager engages
        once per rollout."""
        manager = self._manager(threshold=4)
        engine = BatchedSpecDecodeEngine(
            target, trained_drafter, None, 0.9, sd_manager=manager
        )
        for runs, seed in enumerate((3, 4), start=1):
            drain(
                engine,
                seeded_requests(PROMPTS, 20, np.random.default_rng(seed)),
            )
            assert manager.activations == runs

    def test_adaptive_backend_stats(self, target, trained_drafter):
        """The adaptive rollout backend is a one-worker pool whose
        manager sees the whole batch live, then the shrinking tail."""
        pool = ServingEngine(
            target, trained_drafter, num_workers=1,
            sd_managers=[self._manager(threshold=4)], temperature=0.9,
        )
        out = RolloutScheduler(pool).generate(
            target, PROMPTS, 30, 0.9, np.random.default_rng(9)
        )
        assert len(out.responses) == len(PROMPTS)
        reports = pool.workers[0].engine.cycle_reports
        assert max(r.live_batch for r in reports) == len(PROMPTS)
        assert {r.sd_active for r in reports} == {True, False}
        assert pool.managers[0].activations == 1
        assert out.target_steps > 0
