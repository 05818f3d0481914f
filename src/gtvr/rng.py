"""Per-agent, per-purpose random streams with replay determinism.

Each agent owns two independent streams: one for the anchor-refresh coin
flips and one for uniform sample indices. Streams are derived from
``(master_seed, agent_id, purpose)`` through numpy's counter-based Philox
generator, so streams for distinct (agent, purpose) pairs never share
state and a run is bit-reproducible from the master seed alone.

The block draws ``draw_bernoullis`` and ``draw_indices`` return, value
for value, what the same number of scalar draws would, and leave the
stream in the same state. ``SwarmStreams`` draws the same way to hand
the round engine one coin vector and one index vector per round, from
per-agent buffers refilled ``DRAW_BLOCK`` values at a time. A buffered
stream has been drawn ahead of what was handed out, so once a stream is
buffered, nothing else may draw from it directly: the scalar sequence
holds only for draws that go through the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class AgentStreams:
    """The private random streams of a single agent (ids are 1-based)."""

    agent: int
    bernoulli: np.random.Generator
    index: np.random.Generator


def make_agent_streams(master_seed: int, agent_id: int) -> AgentStreams:
    if agent_id < 1:
        raise ValueError(f"agent ids are 1-based, got {agent_id}")
    return AgentStreams(
        agent=agent_id,
        bernoulli=derived_generator(master_seed, agent_id, PURPOSE_BERNOULLI),
        index=derived_generator(master_seed, agent_id, PURPOSE_INDEX),
    )


def make_swarm_streams(master_seed: int, n: int) -> SwarmStreams:
    return SwarmStreams([make_agent_streams(master_seed, i) for i in range(1, n + 1)])


def _check_probability(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"Bernoulli probability must lie in (0, 1), got {p}")


def draw_bernoulli(stream: np.random.Generator, p: float) -> int:
    """One Bernoulli(p) trial: 1 iff the next uniform [0,1) draw is below p."""
    _check_probability(p)
    return 1 if stream.random() < p else 0


def draw_bernoullis(stream: np.random.Generator, p: float, size: int) -> np.ndarray:
    """``size`` Bernoulli(p) trials as a bool array, equal to ``size``
    calls of ``draw_bernoulli`` and leaving the stream where they would."""
    _check_probability(p)
    return stream.random(size) < p


def _index_bound(m: int) -> int:
    if m < 1:
        raise ValueError(f"index range must be >= 1, got {m}")
    return 1 << (m - 1).bit_length()


def draw_index(stream: np.random.Generator, m: int) -> int:
    """Uniform sample index in [1, m].

    Draws from the smallest power-of-two range covering m and rejects
    out-of-range values, so every index is exactly equally likely (no
    modulo bias).
    """
    bound = _index_bound(m)
    while True:
        r = int(stream.integers(bound))
        if r < m:
            return r + 1


def draw_indices(stream: np.random.Generator, m: int, size: int) -> np.ndarray:
    """``size`` uniform indices in [1, m] as an int64 array, equal to
    ``size`` calls of ``draw_index`` and leaving the stream where they would.

    Each raw value costs the stream one 32-bit word, however the draws are
    batched. A chunk over-draws enough raw values to almost surely hold
    the accepted ones still needed; when the last one needed is not its
    last raw value, the stream is rewound and only the raw values up to
    that one are drawn again. A short chunk keeps all it accepted and the
    next one draws on.
    """
    bound = _index_bound(m)
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


class SwarmStreams(Sequence[AgentStreams]):
    """Every agent's streams, agent i at position i - 1, with the
    per-round draws buffered.

    ``coins`` and ``indices`` return one draw per agent per call: what
    ``draw_bernoulli`` and ``draw_index`` on each agent's own stream would
    return, in the same order. Each refills ``DRAW_BLOCK`` values per
    agent when its buffer runs out, so a stream it has drawn from must not
    be drawn from directly afterwards.
    """

    def __init__(self, agents: Sequence[AgentStreams]) -> None:
        self._agents = list(agents)
        n = len(self._agents)
        self._uniforms = np.empty((0, n))
        self._next_uniform = 0
        self._indices = np.empty((0, n), dtype=np.int64)
        self._next_index = 0
        self._m: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self._agents)

    def __getitem__(self, k):
        return self._agents[k]

    def coins(self, p: float) -> np.ndarray:
        """Every agent's next Bernoulli(p) trial, as an (n,) bool array."""
        _check_probability(p)
        if self._next_uniform == len(self._uniforms):
            self._uniforms = np.stack(
                [s.bernoulli.random(DRAW_BLOCK) for s in self._agents], axis=1
            )
            self._next_uniform = 0
        u = self._uniforms[self._next_uniform]
        self._next_uniform += 1
        return u < p

    def indices(self, m: Sequence[int]) -> np.ndarray:
        """Every agent's next uniform index in [1, m_i], as an (n,) int64 array.

        The buffer holds indices for one m; asking for another m while
        some are left raises, since the rejected raw values are gone.
        """
        if m is not self._m:
            m = tuple(m)
            if m != self._m:
                if len(m) != len(self._agents):
                    raise ValueError(
                        f"need one index range per agent ({len(self._agents)}), got {len(m)}"
                    )
                if self._next_index < len(self._indices):
                    raise ValueError(
                        f"index buffer holds draws for ranges {self._m}, asked for {m}"
                    )
            self._m = m
        if self._next_index == len(self._indices):
            self._indices = np.stack(
                [draw_indices(s.index, m_i, DRAW_BLOCK) for s, m_i in zip(self._agents, m)],
                axis=1,
            )
            self._next_index = 0
        js = self._indices[self._next_index]
        self._next_index += 1
        return js
