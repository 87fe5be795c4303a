"""Sequence packing without cross-contamination (paper §4.2, Figure 17b).

Variable-length training sequences padded to a uniform length waste
compute on padding tokens.  Packing concatenates several sequences into
one fixed-capacity row; its ``segment_ids`` number the sequences, so a
block-diagonal attention mask built from them keeps them independent.
:func:`first_fit_decreasing` is the bin-packing heuristic;
:func:`pack_sequences` materialises the packed rows; and
:func:`packing_efficiency` quantifies the throughput gain the paper
reports (~2.2x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.llm.vocab import PAD_ID


def first_fit_decreasing(
    lengths: Sequence[int], capacity: int
) -> List[List[int]]:
    """Bin-pack sequence indices by first-fit-decreasing.

    Args:
        lengths: sequence lengths (each must fit in ``capacity``).
        capacity: bin capacity in tokens.

    Returns:
        Bins as lists of indices into ``lengths``.
    """
    if capacity < 1:
        raise ConfigError("capacity must be >= 1")
    for i, length in enumerate(lengths):
        if length < 1:
            raise ConfigError(f"length at index {i} must be >= 1")
        if length > capacity:
            raise ConfigError(
                f"sequence {i} of length {length} exceeds capacity "
                f"{capacity}"
            )
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    bins: List[List[int]] = []
    residual: List[int] = []
    for index in order:
        need = lengths[index]
        for b, free in enumerate(residual):
            if free >= need:
                bins[b].append(index)
                residual[b] -= need
                break
        else:
            bins.append([index])
            residual.append(capacity - need)
    return bins


@dataclass
class PackedBatch:
    """Packed training rows with segment bookkeeping.

    Attributes:
        tokens: (rows, capacity) token matrix, PAD beyond content.
        segment_ids: (rows, capacity) int matrix; 0 = padding, packed
            sequences are numbered from 1 within each row.
        source_indices: per row, the original sequence index of each
            segment (in segment-id order).
        capacity: row width in tokens.
    """

    tokens: np.ndarray
    segment_ids: np.ndarray
    source_indices: List[List[int]]
    capacity: int

    @property
    def num_rows(self) -> int:
        """Packed rows."""
        return int(self.tokens.shape[0])

    @property
    def content_tokens(self) -> int:
        """Non-padding tokens across all rows."""
        return int((self.segment_ids > 0).sum())

    @property
    def padding_tokens(self) -> int:
        """Padding tokens across all rows."""
        return self.num_rows * self.capacity - self.content_tokens

    @property
    def utilization(self) -> float:
        """Content fraction of the packed batch."""
        total = self.num_rows * self.capacity
        return self.content_tokens / total if total else 0.0


def pack_sequences(
    sequences: Sequence[Sequence[int]], capacity: int
) -> PackedBatch:
    """Pack ragged token sequences into fixed-width rows.

    Returns:
        A :class:`PackedBatch`; every input sequence appears exactly once,
        contiguously, within exactly one row.
    """
    lengths = [len(s) for s in sequences]
    if not lengths:
        raise ConfigError("sequences must be non-empty")
    bins = first_fit_decreasing(lengths, capacity)
    tokens = np.full((len(bins), capacity), PAD_ID, dtype=np.int64)
    segments = np.zeros((len(bins), capacity), dtype=np.int64)
    sources: List[List[int]] = []
    for row, bin_indices in enumerate(bins):
        cursor = 0
        row_sources: List[int] = []
        for seg_number, index in enumerate(bin_indices, start=1):
            seq = list(sequences[index])
            tokens[row, cursor : cursor + len(seq)] = seq
            segments[row, cursor : cursor + len(seq)] = seg_number
            cursor += len(seq)
            row_sources.append(index)
        sources.append(row_sources)
    return PackedBatch(
        tokens=tokens,
        segment_ids=segments,
        source_indices=sources,
        capacity=capacity,
    )


def packing_efficiency(
    lengths: Sequence[int], capacity: int
) -> Tuple[float, float]:
    """Compute-utilization of vanilla padded batching vs packing.

    Vanilla batching pads every sequence to the batch maximum; packing
    bins them into ``capacity``-token rows.  The ratio of utilisations is
    the training-throughput multiplier of Figure 17(b).

    Returns:
        ``(vanilla_utilization, packed_utilization)``.
    """
    lens = [int(v) for v in lengths]
    if not lens:
        raise ConfigError("lengths must be non-empty")
    longest = max(lens)
    vanilla = sum(lens) / (len(lens) * longest)
    packed = pack_sequences(
        [[1] * n for n in lens], max(capacity, longest)
    ).utilization
    return vanilla, packed
