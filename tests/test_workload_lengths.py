"""Tests for long-tail length models and trace synthesis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workload import (
    LognormalLengths,
    PromptFamily,
    length_statistics,
    segment_families,
    segmented_grpo_trace,
    synthesize_trace,
)


class TestLognormal:
    def test_bounds(self):
        model = LognormalLengths(median=1000, sigma=1.0, cap=5000)
        lengths = model.sample(np.random.default_rng(0), 2000)
        assert lengths.min() >= 1
        assert lengths.max() <= 5000

    def test_median_roughly_respected(self):
        model = LognormalLengths(median=1000, sigma=1.0, cap=100_000)
        lengths = model.sample(np.random.default_rng(0), 5000)
        assert 800 < np.median(lengths) < 1250

    def test_long_tail_shape(self):
        """Most requests short, a few near the cap — the Figure 1a shape."""
        model = LognormalLengths(median=2500, sigma=1.1, cap=30_000)
        lengths = model.sample(np.random.default_rng(0), 5000)
        assert np.median(lengths) < 0.15 * lengths.max()
        assert (lengths >= 0.8 * 30_000).sum() >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [dict(median=0), dict(sigma=0), dict(cap=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            LognormalLengths(**kwargs)

    def test_negative_count(self):
        model = LognormalLengths()
        with pytest.raises(ConfigError):
            model.sample(np.random.default_rng(0), -1)


class TestStatistics:
    def test_keys(self):
        stats = length_statistics([1, 2, 3, 100])
        assert stats["max"] == 100
        assert stats["q3_max_gap"] == pytest.approx(100 - stats["p75"])

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            length_statistics([])

    def test_constant_lengths(self):
        """Constant input: no spread, no gap."""
        stats = length_statistics([8, 8, 8, 8])
        assert stats["max"] == stats["p50"] == stats["mean"] == 8.0
        assert stats["q3_max_gap"] == 0.0

    def test_single_length(self):
        stats = length_statistics([42])
        assert stats["max"] == 42.0
        assert stats["q3_max_gap"] == 0.0


class TestTrace:
    def test_shape_and_growth(self):
        trace = synthesize_trace(60, np.random.default_rng(0))
        assert trace.num_steps == 60
        p50 = trace.series("p50")
        # Median grows over training.
        assert np.mean(p50[-10:]) > np.mean(p50[:10])

    def test_max_pinned_at_cap_most_steps(self):
        trace = synthesize_trace(60, np.random.default_rng(0))
        assert trace.cap_hit_fraction > 0.5

    def test_under_utilized_gap(self):
        """p75 stays well below the max (Figure 2's shaded zone)."""
        trace = synthesize_trace(40, np.random.default_rng(1))
        gaps = trace.series("max_length") - trace.series("p75")
        assert np.mean(gaps) > 0.3 * 20_480

    def test_total_days_accounting(self):
        trace = synthesize_trace(10, np.random.default_rng(0))
        # 10 steps * 40 min + 2 evals * 20 min = 440 min.
        assert trace.total_days == pytest.approx(440 / (60 * 24))

    def test_unknown_series_raises(self):
        trace = synthesize_trace(5, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            trace.series("nope")

    def test_validation(self):
        with pytest.raises(ConfigError):
            synthesize_trace(0, np.random.default_rng(0))


class TestSegmentedGrpoTrace:
    def _trace(self, **kwargs):
        defaults = dict(
            vocab_size=24,
            num_batches=3,
            groups_per_batch=6,
            group_size=4,
            num_families=3,
        )
        defaults.update(kwargs)
        return segmented_grpo_trace(
            np.random.default_rng(5), **defaults
        )

    def test_families_partition_the_regular_range(self):
        families = segment_families(24, 3)
        assert [f.name for f in families] == ["seg0", "seg1", "seg2"]
        # Contiguous, disjoint, covering [NUM_SPECIAL_TOKENS, vocab).
        assert families[0].lo == 3
        assert families[-1].hi == 24
        for a, b in zip(families, families[1:]):
            assert a.hi == b.lo

    def test_batch_shape_and_group_structure(self):
        trace = self._trace()
        assert len(trace.batches) == 3
        for batch in trace.batches:
            assert len(batch) == 6 * 4
            # Group members share a prompt (GRPO by construction).
            for g in range(6):
                group = batch[g * 4:(g + 1) * 4]
                assert all(p == group[0] for p in group)

    def test_segment_of_recovers_the_family(self):
        trace = self._trace()
        seen = set()
        for batch in trace.batches:
            for prompt in batch:
                label = trace.segment_of(prompt)
                assert label in trace.segments
                family = trace.families[
                    trace.segments.index(label)
                ]
                assert all(
                    family.lo <= t < family.hi for t in prompt
                )
                seen.add(label)
        # Round-robin: every batch exercises every segment.
        assert seen == set(trace.segments)

    def test_segment_of_unknown(self):
        trace = self._trace()
        assert trace.segment_of([]) is None
        assert trace.segment_of([0]) is None  # special token

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            segment_families(24, 0)
        with pytest.raises(ConfigError):
            segment_families(5, 10)  # more families than tokens
        with pytest.raises(ConfigError):
            PromptFamily(name="x", lo=2, hi=1)
        with pytest.raises(ConfigError):
            segmented_grpo_trace(
                rng, 24, num_batches=0,
                groups_per_batch=1, group_size=1,
            )
        with pytest.raises(ConfigError):
            segmented_grpo_trace(
                rng, 24, num_batches=1,
                groups_per_batch=0, group_size=1,
            )
        with pytest.raises(ConfigError):
            segmented_grpo_trace(
                rng, 24, num_batches=1,
                groups_per_batch=1, group_size=0,
            )
