"""Tests for deterministic RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import RngFactory, as_generator, spawn_generators


class TestAsGenerator:
    def test_int_seed_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.allclose(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_children_independent(self):
        children = spawn_generators(0, 2)
        a = children[0].random(100)
        b = children[1].random(100)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.5

    def test_reproducible(self):
        a = spawn_generators(7, 3)[2].random(4)
        b = spawn_generators(7, 3)[2].random(4)
        assert np.allclose(a, b)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []


class TestRngFactory:
    def test_same_name_same_order_reproducible(self):
        f1, f2 = RngFactory(3), RngFactory(3)
        assert np.allclose(f1.get("a").random(4), f2.get("a").random(4))

    def test_request_order_does_not_matter(self):
        f1, f2 = RngFactory(3), RngFactory(3)
        f1.get("x")
        a = f1.get("y").random(4)
        b = f2.get("y").random(4)
        assert np.allclose(a, b)

    def test_distinct_names_independent_streams(self):
        f = RngFactory(3)
        a = f.get("a").random(50)
        b = f.get("b").random(50)
        assert not np.allclose(a, b)

    def test_repeated_name_advances_stream(self):
        f = RngFactory(3)
        a = f.get("a").random(4)
        b = f.get("a").random(4)
        assert not np.allclose(a, b)

    def test_get_many(self):
        f = RngFactory(3)
        gens = f.get_many(["a", "b"])
        assert set(gens) == {"a", "b"}

    def test_seed_property(self):
        assert RngFactory(11).seed == 11


class TestStableDigest:
    def test_pinned_across_processes(self):
        """``hash(str)`` is salted per process; seeds derived from names
        must not be.  The values are FNV-1a folded to 63 bits."""
        from repro.utils import stable_digest

        assert stable_digest("") == 1469598103934665603
        assert stable_digest("Qwen-7B") == 7902548461949527714
        assert 0 <= stable_digest("Llama-70B") < 2**63
