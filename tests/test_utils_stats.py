"""Tests for statistics helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import SlidingWindow, geometric_mean


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestSlidingWindow:
    def test_eviction_at_capacity(self):
        win = SlidingWindow(3)
        for v in [1, 2, 3, 4]:
            win.append(v)
        assert win.values() == [2, 3, 4]

    def test_median(self):
        win = SlidingWindow(5)
        for v in [5, 1, 3]:
            win.append(v)
        assert win.median() == 3

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            SlidingWindow(2).median()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_len_and_iter(self):
        win = SlidingWindow(4)
        win.append(1.0)
        win.append(2.0)
        assert len(win) == 2
        assert list(win) == [1.0, 2.0]

    def test_is_empty(self):
        win = SlidingWindow(2)
        assert win.is_empty
        win.append(0.0)
        assert not win.is_empty

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.integers(1, 10))
    def test_property_window_is_suffix(self, values, capacity):
        win = SlidingWindow(capacity)
        for v in values:
            win.append(v)
        assert win.values() == values[-capacity:]
