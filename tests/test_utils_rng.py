"""Tests for process-stable seed derivation."""

from __future__ import annotations

from repro.utils import stable_digest


class TestStableDigest:
    def test_pinned_across_processes(self):
        """``hash(str)`` is salted per process; seeds derived from names
        must not be.  The values are FNV-1a folded to 63 bits."""
        assert stable_digest("") == 1469598103934665603
        assert stable_digest("Qwen-7B") == 7902548461949527714
        assert 0 <= stable_digest("Llama-70B") < 2**63
