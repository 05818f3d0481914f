"""Per-agent, per-purpose random streams with replay determinism.

Each agent owns two independent streams: one for the anchor-refresh coin
flips and one for uniform sample indices. Streams are derived from
``(master_seed, agent_id, purpose)`` through numpy's counter-based Philox
generator, so streams for distinct (agent, purpose) pairs never share
state and a run is bit-reproducible from the master seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Purpose codes used as spawn keys. Keep them stable: changing a code
# changes every seeded experiment.
PURPOSE_BERNOULLI = 1
PURPOSE_INDEX = 2
PURPOSE_PARTITION = 3
PURPOSE_TOPOLOGY = 4
PURPOSE_DATA = 5


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


def make_swarm_streams(master_seed: int, n: int) -> list[AgentStreams]:
    return [make_agent_streams(master_seed, i) for i in range(1, n + 1)]


def draw_bernoulli(stream: np.random.Generator, p: float) -> int:
    """One Bernoulli(p) trial: 1 iff the next uniform [0,1) draw is below p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"Bernoulli probability must lie in (0, 1), got {p}")
    return 1 if stream.random() < p else 0


def draw_index(stream: np.random.Generator, m: int) -> int:
    """Uniform sample index in [1, m].

    Draws from the smallest power-of-two range covering m and rejects
    out-of-range values, so every index is exactly equally likely (no
    modulo bias).
    """
    if m < 1:
        raise ValueError(f"index range must be >= 1, got {m}")
    bound = 1 << (m - 1).bit_length()
    while True:
        r = int(stream.integers(bound))
        if r < m:
            return r + 1
