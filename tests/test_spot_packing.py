"""Tests for sequence packing (bin packing + cross-contamination)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.spot import (
    first_fit_decreasing,
    pack_sequences,
    packing_efficiency,
)


class TestBinPacking:
    def test_fits_exactly(self):
        bins = first_fit_decreasing([4, 4, 4], capacity=8)
        assert len(bins) == 2

    def test_oversized_rejected(self):
        with pytest.raises(ConfigError):
            first_fit_decreasing([10], capacity=8)

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigError):
            first_fit_decreasing([0], capacity=8)

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=40),
        st.integers(50, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_all_packed_once(self, lengths, capacity):
        bins = first_fit_decreasing(lengths, capacity)
        flat = [i for b in bins for i in b]
        assert sorted(flat) == list(range(len(lengths)))

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=40),
        st.integers(50, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_capacity_respected(self, lengths, capacity):
        bins = first_fit_decreasing(lengths, capacity)
        for b in bins:
            assert sum(lengths[i] for i in b) <= capacity

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_property_ffd_within_optimal_bound(self, lengths):
        """FFD uses at most ceil(11/9 OPT + 1) bins; check a loose bound
        vs the volume lower bound."""
        capacity = 60
        bins = first_fit_decreasing(lengths, capacity)
        volume_lower = -(-sum(lengths) // capacity)
        assert len(bins) <= (11 * volume_lower) // 9 + 1


class TestPackSequences:
    def test_roundtrip(self):
        seqs = [[5, 6, 7], [8, 9], [10]]
        packed = pack_sequences(seqs, capacity=6)
        recovered = []
        for row in range(packed.num_rows):
            for seg, source in enumerate(
                packed.source_indices[row], start=1
            ):
                mask = packed.segment_ids[row] == seg
                recovered.append(
                    (source, packed.tokens[row][mask].tolist())
                )
        recovered.sort()
        assert [tokens for _, tokens in recovered] == [
            [5, 6, 7], [8, 9], [10]
        ]

    def test_segments_contiguous(self):
        packed = pack_sequences([[1] * 3, [2] * 2, [3] * 4], capacity=5)
        for row in range(packed.num_rows):
            seg = packed.segment_ids[row]
            content = seg[seg > 0]
            # Segment ids are non-decreasing runs: 1..1 2..2 ...
            assert (np.diff(content) >= 0).all()

    def test_utilization_vs_padding(self):
        packed = pack_sequences([[1] * 10, [1] * 10], capacity=10)
        assert packed.utilization == 1.0
        assert packed.padding_tokens == 0

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            pack_sequences([], capacity=4)


class TestEfficiency:
    def test_long_tail_gains(self):
        """Figure 17(b): packing ~2x over padded batching for long-tail
        length mixes."""
        rng = np.random.default_rng(0)
        lengths = np.clip(
            rng.lognormal(4.0, 1.0, size=64).astype(int), 1, 512
        )
        vanilla, packed = packing_efficiency(lengths, capacity=512)
        assert packed > 1.8 * vanilla

    def test_uniform_lengths_no_gain(self):
        vanilla, packed = packing_efficiency([64] * 8, capacity=64)
        assert vanilla == pytest.approx(1.0)
        assert packed == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            packing_efficiency([], capacity=8)
