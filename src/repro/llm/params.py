"""Named parameter container shared by the target model and drafters.

:class:`ParamSet` is a thin, ordered mapping from parameter name to numpy
array with the arithmetic helpers optimizers and checkpointing need:
element-wise in-place updates, zero-initialised clones, deep copies, and
parameter counting.  Keeping it dict-shaped (rather than flattening into one
vector) lets the selective checkpointer filter frozen entries by name, which
is the mechanism behind the paper's "selective asynchronous checkpointing".
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Tuple

import numpy as np

from repro.errors import ConfigError


class ParamSet:
    """An ordered name → array mapping with optimizer arithmetic."""

    def __init__(self, arrays: Mapping[str, np.ndarray] | None = None) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        if arrays is not None:
            for name, arr in arrays.items():
                self[name] = arr

    # -- mapping protocol -------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        arr = np.asarray(value, dtype=np.float64)
        self._arrays[name] = arr

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Iterate ``(name, array)`` pairs in insertion order."""
        return iter(self._arrays.items())

    def names(self) -> List[str]:
        """Parameter names in insertion order."""
        return list(self._arrays)

    # -- construction helpers ---------------------------------------------

    def copy(self) -> "ParamSet":
        """Deep copy (arrays are copied, not aliased)."""
        return ParamSet({name: arr.copy() for name, arr in self.items()})

    def zeros_like(self) -> "ParamSet":
        """A ParamSet of zeros with identical names and shapes."""
        return ParamSet(
            {name: np.zeros_like(arr) for name, arr in self.items()}
        )

    def filtered(self, predicate: Callable[[str], bool]) -> "ParamSet":
        """Keep only entries whose *name* satisfies ``predicate``."""
        return ParamSet(
            {name: arr.copy() for name, arr in self.items() if predicate(name)}
        )

    # -- arithmetic ---------------------------------------------------------

    def add_scaled(self, other: "ParamSet", scale: float) -> None:
        """In-place ``self += scale * other`` (shapes must match)."""
        self._check_compatible(other)
        for name, arr in self.items():
            arr += scale * other[name]

    def scale(self, factor: float) -> None:
        """In-place multiply every array by ``factor``."""
        for arr in self._arrays.values():
            arr *= factor

    def l2_norm(self) -> float:
        """Global L2 norm across every parameter."""
        total = 0.0
        for arr in self._arrays.values():
            total += float(np.sum(arr * arr))
        return float(np.sqrt(total))

    def max_abs_diff(self, other: "ParamSet") -> float:
        """Largest absolute element-wise difference against ``other``."""
        self._check_compatible(other)
        worst = 0.0
        for name, arr in self.items():
            worst = max(worst, float(np.max(np.abs(arr - other[name]))))
        return worst

    def clip_global_norm(self, max_norm: float) -> float:
        """Scale all arrays so the global L2 norm is at most ``max_norm``.

        Returns the pre-clip norm.
        """
        if max_norm <= 0:
            raise ConfigError(f"max_norm must be positive, got {max_norm}")
        norm = self.l2_norm()
        if norm > max_norm:
            self.scale(max_norm / norm)
        return norm

    # -- accounting ----------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(arr.size for arr in self._arrays.values())

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of the underlying mapping (arrays copied)."""
        return {name: arr.copy() for name, arr in self.items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Overwrite matching entries in-place from ``state``.

        Raises :class:`ConfigError` for unknown names or shape mismatches.
        """
        for name, arr in state.items():
            if name not in self._arrays:
                raise ConfigError(f"unknown parameter {name!r} in state dict")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != self._arrays[name].shape:
                raise ConfigError(
                    f"shape mismatch for {name!r}: "
                    f"{arr.shape} vs {self._arrays[name].shape}"
                )
            self._arrays[name][...] = arr

    def _check_compatible(self, other: "ParamSet") -> None:
        if self.names() != other.names():
            raise ConfigError(
                "ParamSet name mismatch: "
                f"{self.names()} vs {other.names()}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shapes = {name: arr.shape for name, arr in self.items()}
        return f"ParamSet({shapes})"
