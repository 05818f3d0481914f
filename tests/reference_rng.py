"""The scalar draws that define what ``gtvr.rng.SwarmStreams`` hands out.

``SwarmStreams`` buffers each agent's coins and indices in blocks; these
draw one value at a time from one generator, and the block draws are
tested against them value for value and stream state for stream state.
"""

from __future__ import annotations

import numpy as np


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
