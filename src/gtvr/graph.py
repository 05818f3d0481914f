"""Network topologies, Metropolis mixing matrices, and the mixing step.

Agents are numbered 1..n. A mixing matrix is doubly stochastic with a
positive diagonal and positive off-diagonal entries exactly on graph
edges; its radius rho is the spectral norm of the deviation operator
W - (1/n) 11^T and quantifies how fast one communication round contracts
disagreement between agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import PURPOSE_TOPOLOGY

TOPOLOGY_KINDS = ("ring", "path", "complete", "random")


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph over agents 1..n, no self-loops."""

    n: int
    edges: frozenset[tuple[int, int]]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for i, j in self.edges:
            deg[i - 1] += 1
            deg[j - 1] += 1
        return deg


@dataclass(frozen=True)
class MixingMatrix:
    """Doubly stochastic weights w (n x n) and their network radius rho."""

    n: int
    w: np.ndarray
    rho: float


def _normalize_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _is_connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _ring_edges(n: int) -> set[tuple[int, int]]:
    return {_normalize_edge(i, i % n + 1) for i in range(1, n + 1)}


def build_topology(
    kind: str,
    n: int,
    p_edge: float = 0.5,
    seed: int = 0,
) -> Topology:
    """Build a connected topology of the given kind.

    ``random`` samples each pair independently with probability ``p_edge``
    and, if the result is disconnected, overlays a spanning ring so the
    returned graph is always connected. Deterministic for fixed
    (kind, n, seed).
    """
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    if kind == "ring":
        edges = _ring_edges(n)
    elif kind == "path":
        edges = {(i, i + 1) for i in range(1, n)}
    elif kind == "complete":
        edges = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    elif kind == "random":
        if not 0.0 < p_edge <= 1.0:
            raise ValueError(f"p_edge must lie in (0, 1], got {p_edge}")
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0, PURPOSE_TOPOLOGY)))
        )
        edges = set()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < p_edge:
                    edges.add((i, j))
        if not _is_connected(n, frozenset(edges)):
            edges |= _ring_edges(n)
    else:
        raise ValueError(f"unknown topology kind {kind!r}, expected one of {TOPOLOGY_KINDS}")
    topo = Topology(n=n, edges=frozenset(edges))
    assert _is_connected(topo.n, topo.edges)
    return topo


def metropolis_weights(topology: Topology) -> MixingMatrix:
    """Metropolis rule: w_ij = 1 / (1 + max(deg_i, deg_j)) on edges.

    The result is symmetric, hence doubly stochastic, with a strictly
    positive diagonal (each off-diagonal entry is at most 1/(1+deg_i)).
    """
    n = topology.n
    deg = topology.degrees()
    w = np.zeros((n, n))
    for i, j in topology.edges:
        val = 1.0 / (1.0 + max(deg[i - 1], deg[j - 1]))
        w[i - 1, j - 1] = val
        w[j - 1, i - 1] = val
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(n=n, w=w, rho=_deviation_spectral_norm(w))


def _deviation_spectral_norm(w: np.ndarray) -> float:
    """Spectral norm of W - (1/n) 11^T, from a dense SVD."""
    return float(np.linalg.norm(w - 1.0 / w.shape[0], 2))


def mix(mixing: MixingMatrix, stacked: np.ndarray) -> np.ndarray:
    """One communication round: row i of the result is sum_r w_ir * row r.

    Preserves column means exactly up to rounding because W is doubly
    stochastic, and contracts deviation from the mean by at least rho.
    """
    stacked = np.asarray(stacked, dtype=float)
    if stacked.ndim != 2 or stacked.shape[0] != mixing.n:
        raise ValueError(
            f"expected a stacked ({mixing.n}, d) matrix, got shape {stacked.shape}"
        )
    return mixing.w @ stacked
