"""Consistent-hash ring with virtual nodes for prefix-aware routing.

The fleet router keys requests by a **token prefix** of their prompt
(system prompts, GRPO group prompts, few-shot templates) and needs a
placement function with three properties:

* **deterministic across processes and runs** — Python's builtin
  ``hash`` is salted per process, so points come from BLAKE2b over the
  key bytes instead;
* **balanced** — each replica owns ``VNODES`` points on the ring, so
  expected load spreads evenly even with a handful of replicas;
* **minimal movement** — adding or removing one replica of *M* remaps
  only the keys falling into the arcs its virtual nodes owned
  (expected *K/M* of *K* keys), so a membership change invalidates the
  smallest possible slice of every other replica's warm prefix cache.

:class:`ConsistentHashRing` is pure placement — it knows nothing about
load or lifecycle.  The routing policy layers least-loaded fallback and
hot-spot spilling on top (:mod:`repro.fleet.router`), and the fleet
engine drives membership from the replica lifecycle
(:mod:`repro.fleet.lifecycle`).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import FleetError


def _point(data: bytes) -> int:
    """Deterministic 64-bit ring position of ``data``."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def prefix_key(prompt: Sequence[int], prefix_len: int) -> Tuple[int, ...]:
    """The routing key of ``prompt``: its first ``prefix_len`` tokens."""
    return tuple(int(t) for t in prompt[:prefix_len])


class ConsistentHashRing:
    """Token-prefix-keyed consistent hashing over replica ids; starts
    empty, members join with :meth:`add`."""

    #: Virtual nodes per replica (more = smoother balance, slightly
    #: larger membership-change cost).
    VNODES = 64

    def __init__(self) -> None:
        #: Sorted ring points, parallel to :attr:`_owners`.
        self._points: List[int] = []
        self._owners: List[int] = []
        self._members: Dict[int, List[int]] = {}

    # -- membership --------------------------------------------------------

    @property
    def members(self) -> List[int]:
        """Current replica ids, sorted."""
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, replica_id: int) -> bool:
        return replica_id in self._members

    def add(self, replica_id: int) -> None:
        """Join ``replica_id``: insert its virtual nodes."""
        if replica_id in self._members:
            raise FleetError(
                f"replica {replica_id} is already on the ring"
            )
        points = []
        for vnode in range(self.VNODES):
            point = _point(f"replica:{replica_id}:vnode:{vnode}".encode())
            # Collisions across 64-bit points are practically
            # impossible; refuse rather than silently shadow an owner.
            if self._at(point) is not None:
                raise FleetError(
                    f"ring point collision at {point} adding replica "
                    f"{replica_id}"
                )
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, replica_id)
            points.append(point)
        self._members[replica_id] = points

    def remove(self, replica_id: int) -> None:
        """Leave ``replica_id``: its arcs fall to ring successors."""
        if replica_id not in self._members:
            raise FleetError(f"replica {replica_id} is not on the ring")
        del self._members[replica_id]
        kept = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != replica_id
        ]
        self._points = [point for point, _ in kept]
        self._owners = [owner for _, owner in kept]

    # -- placement ---------------------------------------------------------

    def owner(self, key: Sequence[int]) -> int:
        """The replica owning ``key`` (first vnode clockwise)."""
        if not self._members:
            raise FleetError("cannot route on an empty ring")
        point = _point(
            ("key:" + ",".join(str(int(t)) for t in key)).encode()
        )
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._owners[index]

    def placement(
        self, keys: Iterable[Sequence[int]]
    ) -> Dict[Tuple[int, ...], int]:
        """Owner of every key (membership-change movement audits)."""
        return {tuple(key): self.owner(key) for key in keys}

    def _at(self, point: int) -> "int | None":
        index = bisect.bisect_left(self._points, point)
        if index < len(self._points) and self._points[index] == point:
            return self._owners[index]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ConsistentHashRing(members={self.members})"
