"""Tests for the engine's incremental step surface and cancellation.

The serving front-end depends on three properties of the refactored
batched engine: driving it cycle-at-a-time through ``start`` /
``step_engines`` reproduces ``speculative_generate`` (a one-worker pool)
exactly; requests can be admitted and cancelled
between cycles without perturbing any survivor's committed tokens (the
per-request RNG streams make this checkable token-for-token); and the
scheduler reports queue depth and admission waiting time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SpecDecodeError
from repro.specdec import (
    BatchedSpecDecodeEngine,
    SdStrategy,
    speculative_generate,
)
from repro.specdec.batch_engine import step_engines

from conftest import drain, seeded_requests

PROMPTS = [[5, 6, 7], [9, 10, 11], [4, 8, 12], [13, 14, 15],
           [6, 9, 13], [7, 11, 5], [12, 4, 9], [15, 13, 6]]


@pytest.fixture()
def strategy():
    return SdStrategy(draft_depth=3, topk=2, tokens_to_verify=6)


def _engine(target, drafter, strategy, max_batch_size=None, **kwargs):
    return BatchedSpecDecodeEngine(
        target, drafter, strategy, temperature=0.9,
        max_batch_size=max_batch_size, **kwargs,
    )


def _requests(seed=42, max_new_tokens=24, prompts=PROMPTS):
    return seeded_requests(
        prompts, max_new_tokens, np.random.default_rng(seed)
    )


class TestStepSurface:
    def test_stepwise_equals_generate(self, target, trained_drafter,
                                      strategy):
        """start + step-until-drained is exactly speculative_generate
        (a one-worker pool over the same seed draws)."""
        reference = speculative_generate(
            target, trained_drafter, PROMPTS, max_new_tokens=24,
            temperature=0.9, rng=np.random.default_rng(42),
            strategy=strategy, max_batch_size=3,
        )

        engine = _engine(target, trained_drafter, strategy, 3)
        result = drain(
            engine, seeded_requests(PROMPTS, 24, np.random.default_rng(42))
        )
        assert [s.response for s in result.slots] == [
            s.response for s in reference.slots
        ]
        assert result.target_steps == reference.target_steps
        assert result.cycle_reports == reference.cycle_reports

    def test_step_without_session_raises(self, target, trained_drafter,
                                         strategy):
        engine = _engine(target, trained_drafter, strategy)
        with pytest.raises(SpecDecodeError):
            step_engines([engine])
        assert not engine.scheduler.has_work
        assert engine.scheduler.num_live == 0

    def test_step_with_no_work_raises(self, target, trained_drafter,
                                      strategy):
        engine = _engine(target, trained_drafter, strategy)
        engine.start(())
        with pytest.raises(SpecDecodeError):
            step_engines([engine])

    def test_late_admission_tokens_identical(self, target,
                                             trained_drafter, strategy):
        """A request admitted mid-run commits the same tokens as when
        admitted up front — scheduling never touches its stream."""
        requests = _requests()
        upfront = _engine(target, trained_drafter, strategy)
        upfront.start(requests)
        while upfront.scheduler.has_work:
            step_engines([upfront])
        reference = {
            s.request.request_id: s.response
            for s in upfront.result().slots
        }

        late = _engine(target, trained_drafter, strategy)
        fresh = _requests()
        late.start(fresh[:4])
        step_engines([late])
        step_engines([late])
        for request in fresh[4:]:
            late.scheduler.push(request)
        while late.scheduler.has_work:
            step_engines([late])
        for slot in late.result().slots:
            assert slot.response == reference[slot.request.request_id]


class TestCancellation:
    def test_cancel_live_leaves_survivors_byte_identical(
        self, target, trained_drafter, strategy
    ):
        """The acceptance criterion: cancelling request i mid-decode
        must not perturb any surviving request's committed tokens."""
        baseline = _engine(target, trained_drafter, strategy)
        baseline.start(_requests(max_new_tokens=40))
        reference = {
            s.request.request_id: s.response
            for s in drain(baseline).slots
        }

        probe = _engine(target, trained_drafter, strategy)
        probe.start(_requests(max_new_tokens=40))
        step_engines([probe])
        step_engines([probe])
        victims = [
            s.request.request_id for s in probe.scheduler.live
        ][:3]
        assert victims, "need live requests to cancel"

        for victim in victims:
            engine = _engine(target, trained_drafter, strategy)
            engine.start(_requests(max_new_tokens=40))
            step_engines([engine])
            step_engines([engine])
            slot = engine.cancel(victim)
            assert slot is not None and slot.cancelled
            result = drain(engine)
            for finished in result.slots:
                rid = finished.request.request_id
                if rid == victim:
                    assert finished.cancelled
                    # Partial response is a prefix of the full one.
                    assert (
                        reference[rid][: len(finished.response)]
                        == finished.response
                    )
                else:
                    assert not finished.cancelled
                    assert finished.response == reference[rid], (
                        f"survivor {rid} perturbed by cancelling "
                        f"{victim}"
                    )

    def test_cancel_waiting_request(self, target, trained_drafter,
                                    strategy):
        engine = _engine(target, trained_drafter, strategy, 2)
        engine.start(_requests())
        step_engines([engine])
        assert engine.scheduler.num_waiting > 0
        waiting_id = engine.scheduler.waiting[0].request.request_id
        slot = engine.cancel(waiting_id)
        assert slot is not None and slot.cancelled
        assert slot.response == []
        result = drain(engine)
        cancelled = [s for s in result.slots if s.cancelled]
        assert [s.request.request_id for s in cancelled] == [waiting_id]

    def test_cancel_unknown_or_finished_returns_none(
        self, target, trained_drafter, strategy
    ):
        engine = _engine(target, trained_drafter, strategy)
        engine.start(_requests(max_new_tokens=4))
        assert engine.cancel(99) is None
        drain(engine)
        assert engine.cancel(0) is None

    def test_cancel_everything_drains(self, target, trained_drafter,
                                      strategy):
        engine = _engine(target, trained_drafter, strategy, 2)
        engine.start(_requests())
        step_engines([engine])
        for request_id in range(len(PROMPTS)):
            engine.cancel(request_id)
        assert not engine.scheduler.has_work
        result = engine.result()
        assert all(s.cancelled for s in result.slots)
        assert len(result.slots) == len(PROMPTS)


class TestQueueMetrics:
    def test_cycle_reports_expose_queue_depth_and_waits(
        self, target, trained_drafter, strategy
    ):
        out = speculative_generate(
            target, trained_drafter, PROMPTS, max_new_tokens=24,
            temperature=0.9, rng=np.random.default_rng(11),
            strategy=strategy, max_batch_size=2,
        )
        first = out.cycle_reports[0]
        # 8 requests, capacity 2: six wait after the first admission.
        assert first.queue_depth == len(PROMPTS) - 2
        assert first.mean_wait_cycles == 0.0
        # Queue drains monotonically under FIFO (no new arrivals).
        depths = [r.queue_depth for r in out.cycle_reports]
        assert depths == sorted(depths, reverse=True)
        assert depths[-1] == 0
        # Later admissions waited: some report positive waiting time.
        assert any(r.mean_wait_cycles > 0 for r in out.cycle_reports[1:])

    def test_metrics_surface_queue_and_waits(self, target,
                                             trained_drafter, strategy):
        out = speculative_generate(
            target, trained_drafter, PROMPTS, max_new_tokens=24,
            temperature=0.9, rng=np.random.default_rng(11),
            strategy=strategy, max_batch_size=2,
        )
        metrics = out.metrics
        assert metrics.mean_wait_cycles > 0
        assert len(metrics.wait_cycles) == len(PROMPTS)

    def test_unbounded_capacity_never_queues(self, target,
                                             trained_drafter, strategy):
        out = speculative_generate(
            target, trained_drafter, PROMPTS, max_new_tokens=12,
            temperature=0.9, rng=np.random.default_rng(11),
            strategy=strategy, max_batch_size=None,
        )
        assert max(r.queue_depth for r in out.cycle_reports) == 0
        assert out.metrics.mean_wait_cycles == 0.0

    def test_steal_preserves_accumulated_wait(self):
        from repro.specdec import ContinuousBatchScheduler

        requests = _requests(prompts=PROMPTS[:2])
        donor = ContinuousBatchScheduler(requests, max_batch_size=1)
        donor.admit()
        donor.tick()
        donor.tick()
        stolen = donor.steal_waiting(1)
        assert len(stolen) == 1
        request, waited = stolen[0]
        assert waited == 2  # queued on the donor for two cycles

        receiver = ContinuousBatchScheduler([], max_batch_size=1)
        receiver.tick()
        receiver.push(request, waited=waited)
        receiver.tick()
        slot = receiver.admit()[0]
        # Donor wait (2) + receiver wait (1) accumulate.
        assert slot.wait_cycles == 3

    def test_merged_concatenates_queue_trails(self, target,
                                              trained_drafter, strategy):
        out = speculative_generate(
            target, trained_drafter, PROMPTS[:4], max_new_tokens=12,
            temperature=0.9, rng=np.random.default_rng(3),
            strategy=strategy, max_batch_size=2,
        )
        merged = out.metrics.merged(out.metrics)
        assert len(merged.wait_cycles) == 2 * len(
            out.metrics.wait_cycles
        )


class TestBatchedBeginFastPath:
    def test_eagle_begin_batch_matches_begin(self, target,
                                             trained_drafter):
        """Vectorised begin_batch is bitwise row-identical to one-row
        calls, with the None / stacked hidden conventions both honoured."""
        rng = np.random.default_rng(9)
        prefixes = [[1, 5, 6], [2, 7], [3, 8, 9, 4]]
        hiddens = [None] + [
            rng.normal(size=(target.num_layers, target.config.hidden_size))
            for _ in range(2)
        ]
        batched = trained_drafter.begin_batch(prefixes, hiddens)
        assert batched.shape == (3, target.config.hidden_size)
        for prefix, hidden, row in zip(prefixes, hiddens, batched):
            single = trained_drafter.begin_batch([prefix], [hidden])
            assert np.array_equal(single[0], row)

    def test_begin_batch_validates_lengths(self, trained_drafter):
        from repro.errors import DrafterError
        with pytest.raises(DrafterError):
            trained_drafter.begin_batch([[1, 2]], [None, None])
