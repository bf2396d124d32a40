"""Deterministic random streams.

All scans in this package draw from counter-based Philox streams so that a
result depends only on (seed, sample index), never on how the samples are
grouped.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int) -> np.random.Generator:
    """Single sequential stream keyed by seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one sample, keyed by (seed, index)."""
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))

