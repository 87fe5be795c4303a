"""Tests for the engine's incremental step surface and cancellation.

The serving front-end depends on three properties of the refactored
batched engine: driving it cycle-at-a-time through ``start``/``step``
reproduces ``generate`` exactly; requests can be admitted and cancelled
between cycles without perturbing any survivor's committed tokens (the
per-request RNG streams make this checkable token-for-token); and the
scheduler reports queue depth and admission waiting time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.drafter.base import Drafter
from repro.errors import SpecDecodeError
from repro.specdec import (
    BatchedSpecDecodeEngine,
    SdStrategy,
    make_serving_request,
    speculative_generate,
)

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
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(prompts))
    return [
        make_serving_request(
            request_id=i, prompt=prompt, max_new_tokens=max_new_tokens,
            seed=int(seeds[i]),
        )
        for i, prompt in enumerate(prompts)
    ]


class TestStepSurface:
    def test_stepwise_equals_generate(self, target, trained_drafter,
                                      strategy):
        """start + step-until-drained is exactly generate."""
        closed = _engine(target, trained_drafter, strategy, 3)
        reference = closed.generate(
            PROMPTS, 24, np.random.default_rng(42)
        )

        engine = _engine(target, trained_drafter, strategy, 3)
        # generate() draws one seed per request from the master rng;
        # replicate that so both runs share the request streams.
        rng = np.random.default_rng(42)
        requests = engine._make_requests(PROMPTS, 24, rng)
        engine.start(requests)
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
        result = engine.result()
        assert [s.response for s in result.slots] == [
            s.response for s in reference.slots
        ]
        assert result.target_steps == reference.target_steps
        assert steps == len(reference.cycle_reports)

    def test_step_without_session_raises(self, target, trained_drafter,
                                         strategy):
        engine = _engine(target, trained_drafter, strategy)
        with pytest.raises(SpecDecodeError):
            engine.step()
        assert not engine.has_work
        assert engine.num_live == 0

    def test_step_with_no_work_raises(self, target, trained_drafter,
                                      strategy):
        engine = _engine(target, trained_drafter, strategy)
        engine.start(())
        with pytest.raises(SpecDecodeError):
            engine.step()

    def test_late_admission_tokens_identical(self, target,
                                             trained_drafter, strategy):
        """A request admitted mid-run commits the same tokens as when
        admitted up front — scheduling never touches its stream."""
        requests = _requests()
        upfront = _engine(target, trained_drafter, strategy)
        upfront.start(requests)
        while upfront.has_work:
            upfront.step()
        reference = {
            s.request.request_id: s.response
            for s in upfront.result().slots
        }

        late = _engine(target, trained_drafter, strategy)
        fresh = _requests()
        late.start(fresh[:4])
        late.step()
        late.step()
        for request in fresh[4:]:
            late.admit(request)
        while late.has_work:
            late.step()
        for slot in late.result().slots:
            assert slot.response == reference[slot.request.request_id]


class TestCancellation:
    def _drain(self, engine):
        while engine.has_work:
            engine.step()
        return engine.result()

    def test_cancel_live_leaves_survivors_byte_identical(
        self, target, trained_drafter, strategy
    ):
        """The acceptance criterion: cancelling request i mid-decode
        must not perturb any surviving request's committed tokens."""
        baseline = _engine(target, trained_drafter, strategy)
        baseline.start(_requests(max_new_tokens=40))
        reference = {
            s.request.request_id: s.response
            for s in self._drain(baseline).slots
        }

        probe = _engine(target, trained_drafter, strategy)
        probe.start(_requests(max_new_tokens=40))
        probe.step()
        probe.step()
        victims = [
            s.request.request_id for s in probe.scheduler.live
        ][:3]
        assert victims, "need live requests to cancel"

        for victim in victims:
            engine = _engine(target, trained_drafter, strategy)
            engine.start(_requests(max_new_tokens=40))
            engine.step()
            engine.step()
            slot = engine.cancel(victim)
            assert slot is not None and slot.cancelled
            result = self._drain(engine)
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
        engine.step()
        assert engine.num_waiting > 0
        waiting_id = engine.scheduler.waiting[0].request_id
        slot = engine.cancel(waiting_id)
        assert slot is not None and slot.cancelled
        assert slot.response == []
        result = self._drain(engine)
        cancelled = [s for s in result.slots if s.cancelled]
        assert [s.request.request_id for s in cancelled] == [waiting_id]

    def test_cancel_unknown_or_finished_returns_none(
        self, target, trained_drafter, strategy
    ):
        engine = _engine(target, trained_drafter, strategy)
        engine.start(_requests(max_new_tokens=4))
        assert engine.cancel(99) is None
        self._drain(engine)
        assert engine.cancel(0) is None

    def test_cancel_everything_drains(self, target, trained_drafter,
                                      strategy):
        engine = _engine(target, trained_drafter, strategy, 2)
        engine.start(_requests())
        engine.step()
        for request_id in range(len(PROMPTS)):
            engine.cancel(request_id)
        assert not engine.has_work
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
        assert metrics.max_queue_depth == len(PROMPTS) - 2
        assert metrics.mean_queue_depth > 0
        assert metrics.mean_wait_cycles > 0
        assert len(metrics.wait_cycles) == len(PROMPTS)
        summary = metrics.summary()
        assert summary["mean_queue_depth"] == metrics.mean_queue_depth
        assert summary["mean_wait_cycles"] == metrics.mean_wait_cycles

    def test_unbounded_capacity_never_queues(self, target,
                                             trained_drafter, strategy):
        out = speculative_generate(
            target, trained_drafter, PROMPTS, max_new_tokens=12,
            temperature=0.9, rng=np.random.default_rng(11),
            strategy=strategy, max_batch_size=None,
        )
        assert out.metrics.max_queue_depth == 0
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
        assert len(merged.queue_depths) == 2 * len(
            out.metrics.queue_depths
        )
        assert len(merged.wait_cycles) == 2 * len(
            out.metrics.wait_cycles
        )


class _FallbackBeginDrafter(Drafter):
    """Wrapper that forces the per-sequence begin fallback path."""

    name = "fallback"

    def __init__(self, inner: Drafter) -> None:
        self.inner = inner

    def begin(self, prefix_tokens, last_hidden):
        return self.inner.begin(prefix_tokens, last_hidden)

    # begin_batch deliberately NOT overridden: the base class loops
    # over per-sequence begin calls.

    def propose(self, state, temperature):
        return self.inner.propose(state, temperature)

    def extend(self, state, token):
        return self.inner.extend(state, token)


class TestBatchedBeginFastPath:
    def test_chain_tokens_identical_to_fallback(
        self, target, trained_drafter
    ):
        """The batched begin fast path (one fuse+cell matmul across the
        live batch) commits exactly the tokens of the per-sequence
        fallback (on a chain: the ``topk=1`` tree)."""
        def run(drafter):
            return speculative_generate(
                target, drafter, PROMPTS, max_new_tokens=24,
                temperature=0.9, rng=np.random.default_rng(5),
                strategy=SdStrategy(3, 1, 3),
            )

        fast = run(trained_drafter)
        fallback = run(_FallbackBeginDrafter(trained_drafter))
        assert fast.responses == fallback.responses
        assert fast.finished == fallback.finished
        assert fast.target_steps == fallback.target_steps

    def test_eagle_begin_batch_matches_begin(self, target,
                                             trained_drafter):
        """Vectorised begin_batch is row-identical to begin, with the
        None / 1-D / stacked hidden conventions all honoured."""
        rng = np.random.default_rng(9)
        prefixes = [[1, 5, 6], [2, 7], [3, 8, 9, 4]]
        stacked = rng.normal(
            size=(target.num_layers, target.config.hidden_size)
        )
        bare = rng.normal(size=target.config.hidden_size)
        hiddens = [None, stacked, bare]
        batched = trained_drafter.begin_batch(prefixes, hiddens)
        for prefix, hidden, state in zip(prefixes, hiddens, batched):
            single = trained_drafter.begin(prefix, hidden)
            # Rows agree to the last few ulps (BLAS may block an N-row
            # GEMM differently from a 1-row one); token-identity is
            # asserted end-to-end above.
            np.testing.assert_allclose(
                single.hidden, state.hidden, rtol=1e-12, atol=0.0
            )

    def test_begin_batch_validates_lengths(self, trained_drafter):
        from repro.errors import DrafterError
        with pytest.raises(DrafterError):
            trained_drafter.begin_batch([[1, 2]], [None, None])
