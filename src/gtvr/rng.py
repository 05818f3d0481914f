"""Per-agent, per-purpose random streams with replay determinism.

Each agent owns two independent streams: one for the anchor-refresh coin
flips and one for uniform sample indices. Streams are derived from
``(master_seed, agent_id, purpose)`` through numpy's counter-based Philox
generator, so streams for distinct (agent, purpose) pairs never share
state and a run is bit-reproducible from the master seed alone.

``SwarmStreams`` is built once per run from the seed, every agent's
sample count m_i and the refresh probability P, and keeps every agent's
two streams to itself: it hands the round engine one coin vector and
one index vector per round, from per-agent buffers refilled
``DRAW_BLOCK`` values at a time. A coin is 1 iff the next uniform [0, 1)
draw is below P; an index is the next draw from the smallest
power-of-two range covering m_i that falls inside it, plus 1. The block
draw ``draw_indices`` fills the index buffers and returns those indices
in bulk, leaving the stream where one draw at a time would.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

import numpy as np

# Purpose codes used as spawn keys. Keep them stable: changing a code
# changes every seeded experiment.
PURPOSE_BERNOULLI = 1
PURPOSE_INDEX = 2
PURPOSE_PARTITION = 3
PURPOSE_TOPOLOGY = 4
PURPOSE_DATA = 5

# values per agent that one buffer refill draws from each stream
DRAW_BLOCK = 256


def derived_generator(master_seed: int, agent_id: int, purpose: int) -> np.random.Generator:
    """Independent Philox stream for one (agent, purpose) pair.

    ``agent_id`` 0 is reserved for global (non-agent) consumers such as
    dataset partitioning and topology sampling.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(agent_id, purpose))
    return np.random.Generator(np.random.Philox(seq))


def draw_indices(stream: np.random.Generator, m: int, size: int) -> np.ndarray:
    """``size`` uniform indices in [1, m] as an int64 array, equal to
    ``size`` draws of one index at a time and leaving the stream where
    they would.

    One index draws raw values from the smallest power-of-two range
    covering m and rejects those outside it, so every index is exactly
    equally likely (no modulo bias).

    Each raw value costs the stream one 32-bit word, however the draws are
    batched. A chunk over-draws enough raw values to almost surely hold
    the accepted ones still needed; when the last one needed is not its
    last raw value, the stream is rewound and only the raw values up to
    that one are drawn again. A short chunk keeps all it accepted and the
    next one draws on.
    """
    if m < 1:
        raise ValueError(f"index range must be >= 1, got {m}")
    bound = 1 << (m - 1).bit_length()
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        need = size - filled
        # need / acceptance rate, plus about 4 standard deviations
        count = (need + 4 * isqrt(need) + 4) * bound // m if m < bound else need
        state = stream.bit_generator.state
        raw = stream.integers(bound, size=count)
        kept = np.flatnonzero(raw < m)[:need]
        if kept.size == need and kept[-1] + 1 < count:
            stream.bit_generator.state = state
            stream.integers(bound, size=int(kept[-1]) + 1)
        out[filled : filled + kept.size] = raw[kept]
        filled += kept.size
    return out + 1


class SwarmStreams:
    """Every agent's two streams for one run, with the per-round draws buffered.

    ``coins`` and ``indices`` return one draw per agent per call, agent i
    drawing from its own streams ``derived_generator(master_seed, i,
    PURPOSE_BERNOULLI)`` and ``derived_generator(master_seed, i,
    PURPOSE_INDEX)``: a Bernoulli(p) coin and a uniform index in [1, m_i].
    Each refills ``DRAW_BLOCK`` values per agent when its buffer runs out.
    """

    def __init__(self, master_seed: int, m: Sequence[int], p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"Bernoulli probability must lie in (0, 1), got {p}")
        self._m = tuple(m)
        self._p = p
        agents = range(1, len(self._m) + 1)
        self._coin_streams = [derived_generator(master_seed, i, PURPOSE_BERNOULLI) for i in agents]
        self._index_streams = [derived_generator(master_seed, i, PURPOSE_INDEX) for i in agents]
        self._coins = np.empty((0, len(self._m)), dtype=bool)
        self._next_coin = 0
        self._indices = np.empty((0, len(self._m)), dtype=np.int64)
        self._next_index = 0

    def coins(self) -> np.ndarray:
        """Every agent's next Bernoulli(p) trial, as an (n,) bool array."""
        if self._next_coin == len(self._coins):
            self._coins = np.stack([s.random(DRAW_BLOCK) for s in self._coin_streams], axis=1) < self._p
            self._next_coin = 0
        c = self._coins[self._next_coin]
        self._next_coin += 1
        return c

    def indices(self) -> np.ndarray:
        """Every agent's next uniform index in [1, m_i], as an (n,) int64 array."""
        if self._next_index == len(self._indices):
            self._indices = np.stack(
                [draw_indices(s, m_i, DRAW_BLOCK) for s, m_i in zip(self._index_streams, self._m)],
                axis=1,
            )
            self._next_index = 0
        js = self._indices[self._next_index]
        self._next_index += 1
        return js
