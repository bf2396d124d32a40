"""Deterministic random streams.

All scans in this package draw from counter-based Philox streams so that a
result depends only on (seed, sample index), never on how the samples are
grouped.  Every sample is still its own (seed, index) Philox stream, now
reached by re-keying one bit generator instead of building one per sample.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int) -> np.random.Generator:
    """Single sequential stream keyed by seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def sample_streams(seed: int):
    """``at(index)``: one Generator, re-keyed to the stream (seed, index).

    Each call resets the one Philox to counter 0 and an empty buffer under
    key ``[index, seed]``, so it draws bit for bit what ``Philox(key=(seed
    << 64) | index)`` draws; every call returns that same Generator.
    """
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    key[1] = seed & _MASK64

    def at(index: int) -> np.random.Generator:
        key[0] = index & _MASK64
        bits.state = state
        return gen

    return at
