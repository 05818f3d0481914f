"""Per-agent, per-purpose random streams with replay determinism.

Each agent owns two independent streams: one for the anchor-refresh coin
flips and one for uniform sample indices. Streams are derived from
``(master_seed, agent_id, purpose)`` through numpy's counter-based Philox
generator, so streams for distinct (agent, purpose) pairs never share
state and a run is bit-reproducible from the master seed alone.

``SwarmStreams``, built once per run from the seed, every agent's sample
count m_i and the refresh probability P of each of the R runs it serves,
keeps those streams to itself and hands the round engine one coin vector
and one sample-row vector per round. A coin is 1 iff the next uniform
[0, 1) draw is below P; an index is uniform in [1, m_i]
(``uniform_indices``), and agent i's index j is handed out as its stacked
0-based sample row, the row a problem's ``layout`` gives it. The R runs
share the seed, so each uniform and each index serves them all, and each
run sees the coins and indices it would draw on its own.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

# Purpose codes used as spawn keys. Keep them stable: changing a code
# changes every seeded experiment.
PURPOSE_BERNOULLI = 1
PURPOSE_INDEX = 2
PURPOSE_PARTITION = 3
PURPOSE_TOPOLOGY = 4
PURPOSE_DATA = 5

# values per agent drawn from each stream at a time
DRAW_BLOCK = 256


def derived_generator(master_seed: int, agent_id: int, purpose: int) -> np.random.Generator:
    """Independent Philox stream for one (agent, purpose) pair.

    ``agent_id`` 0 is reserved for global (non-agent) consumers such as
    dataset partitioning and topology sampling.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(agent_id, purpose))
    return np.random.Generator(np.random.Philox(seq))


def uniform_indices(stream: np.random.Generator, m: int) -> Iterator[int]:
    """Endless uniform indices in [1, m] from ``stream``.

    Raw values come from the smallest power-of-two range covering m, and
    those outside [0, m) are rejected, so every index is exactly equally
    likely (no modulo bias). Each raw value costs the stream one 32-bit
    word however many are drawn together, so drawing them ``DRAW_BLOCK``
    at a time and carrying the accepted ones not yet taken into the next
    block yields the same sequence as drawing one raw value at a time.
    """
    bound = 1 << (m - 1).bit_length()
    while True:
        raw = stream.integers(bound, size=DRAW_BLOCK)
        yield from (raw[raw < m] + 1).tolist()


def _one_at_a_time(refill: Callable[[], np.ndarray]) -> Iterator[np.ndarray]:
    """The rows of one ``(DRAW_BLOCK, R*n)`` block from ``refill`` after another."""
    while True:
        yield from refill()


class SwarmStreams:
    """Every agent's two streams for R runs of one seed, drawn in blocks.

    ``coins`` and ``rows`` return one draw per run and agent per call, run
    r's agent i at position r*n + i - 1. Agent i draws from its own streams
    ``derived_generator(master_seed, i, PURPOSE_BERNOULLI)`` and
    ``derived_generator(master_seed, i, PURPOSE_INDEX)``: one uniform that
    gives run r a Bernoulli(p[r]) coin, and one uniform index j in [1, m_i]
    that every run shares, handed out as the stacked sample row
    ``base[i - 1] + j`` of agents that own the next m_i rows each (a
    problem's ``layout.base``). Each block of indices is checked and turned
    into rows once, as it is drawn. ``p`` is one probability for a single
    run or the R runs' probabilities. ``keep(rows)`` cuts every later draw
    to its first ``rows`` entries, the first rows / n runs: those runs'
    coins and rows stay what they were, and no other run's are handed out.
    """

    def __init__(self, master_seed: int, m: Sequence[int], p: float | Sequence[float]) -> None:
        ps = np.asarray(p, dtype=float).reshape(-1, 1)
        if not (ps.size and ((0.0 < ps) & (ps < 1.0)).all()):
            raise ValueError(f"Bernoulli probability must lie in (0, 1), got {p}")
        if any(m_i < 1 for m_i in m):
            raise ValueError(f"index ranges must be >= 1, got m = {tuple(m)}")
        agents = range(1, len(m) + 1)
        coin_streams = [derived_generator(master_seed, i, PURPOSE_BERNOULLI) for i in agents]
        index_draws = [
            uniform_indices(derived_generator(master_seed, i, PURPOSE_INDEX), m_i)
            for i, m_i in zip(agents, m)
        ]
        sizes = np.asarray(m)
        base = np.cumsum([0, *m[:-1]]) - 1
        runs = len(ps)

        def row_block() -> np.ndarray:
            # one range check and one translation for a whole block of draws
            js = np.stack(
                [np.fromiter(islice(g, DRAW_BLOCK), np.int64, DRAW_BLOCK) for g in index_draws], axis=1
            )
            bad = (js < 1) | (js > sizes)
            if bad.any():
                agent = int(bad.any(axis=0).argmax())
                j = int(js[bad[:, agent].argmax(), agent])
                raise IndexError(f"agent {agent + 1} drew sample index {j} outside [1, {m[agent]}]")
            return np.tile(js + base, (1, runs))

        # each row of a block: agent i's uniform against run r's p at r*n + i - 1
        self._coins = _one_at_a_time(
            lambda: (np.stack([s.random(DRAW_BLOCK) for s in coin_streams], axis=1)[:, None] < ps)
            .reshape(DRAW_BLOCK, -1)
        )
        self._rows = _one_at_a_time(row_block)

    def coins(self) -> np.ndarray:
        """Every run's and agent's next Bernoulli(p) trial, as an (R*n,) bool array."""
        return next(self._coins)

    def rows(self) -> np.ndarray:
        """Every agent's next uniform index j in [1, m_i] as its stacked 0-based
        sample row ``base[i - 1] + j``, once per run, as an (R*n,) int64 array."""
        return next(self._rows)

    def keep(self, rows: int) -> None:
        """Hand out only the first ``rows`` entries of each draw from now on."""
        self._coins = (coins[:rows] for coins in self._coins)
        self._rows = (draw[:rows] for draw in self._rows)
