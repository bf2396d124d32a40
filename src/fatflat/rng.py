"""Deterministic random streams.

All scans in this package draw from counter-based Philox streams so that a
result depends only on (seed, sample index), never on how the samples are
grouped.  Every sample is its own (seed, index) Philox stream, reached by
re-keying one bit generator (see :func:`sample_streams`).  A sequential
draw keyed by one seed is the stream (0, seed): ``sample_streams(0)(seed)``
draws bit for bit what ``Philox(key=seed)`` draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


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
