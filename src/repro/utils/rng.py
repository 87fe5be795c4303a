"""Process-stable seeds derived from names.

Every stochastic component in the library accepts an explicit
:class:`numpy.random.Generator`; when a seed has to be derived from a
name (a model or table label), it must not come from the salted
built-in ``hash()``.
"""

from __future__ import annotations


def stable_digest(name: str) -> int:
    """A process-stable 63-bit digest of ``name`` (``hash()`` is salted)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return value
