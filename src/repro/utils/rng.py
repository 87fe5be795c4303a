"""Deterministic random-number management.

Every stochastic component in the library accepts an explicit
:class:`numpy.random.Generator`.  This module provides the small amount of
plumbing needed to create and fan out generators reproducibly: experiments
seed a single :class:`RngFactory` and hand independent child generators to
each subsystem, so reordering subsystem construction never perturbs results.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an ``int`` seed, an existing generator (returned unchanged), or
    ``None`` (fresh OS-entropy generator).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Children are derived through :class:`numpy.random.SeedSequence` spawning,
    so each child stream is independent of the others and of the parent.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if seq is None:  # pragma: no cover - numpy always sets seed_seq
            seq = np.random.SeedSequence()
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


class RngFactory:
    """Named, reproducible generator factory.

    A factory created with a fixed seed hands out one independent generator
    per *name*; asking for the same name twice returns generators from the
    same deterministic stream position, while distinct names yield
    independent streams regardless of request order.

    Example::

        rngs = RngFactory(seed=0)
        rollout_rng = rngs.get("rollout")
        drafter_rng = rngs.get("drafter")
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._seed = seed
        self._counters: dict[str, int] = {}

    @property
    def seed(self) -> Optional[int]:
        """The root seed this factory was created with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the next generator in the independent stream for ``name``."""
        index = self._counters.get(name, 0)
        self._counters[name] = index + 1
        # Derive a child seed from (root, name, index) deterministically.
        name_digest = stable_digest(name)
        seq = np.random.SeedSequence(
            entropy=self._seed if self._seed is not None else None,
            spawn_key=(name_digest, index),
        )
        return np.random.default_rng(seq)

    def get_many(self, names: Iterable[str]) -> dict[str, np.random.Generator]:
        """Return one generator for each name, keyed by name."""
        return {name: self.get(name) for name in names}


def stable_digest(name: str) -> int:
    """A process-stable 63-bit digest of ``name`` (``hash()`` is salted)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return value
