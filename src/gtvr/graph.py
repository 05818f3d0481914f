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

from .rng import PURPOSE_TOPOLOGY, derived_generator

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


def check_topology(kind: str, n: int, p_edge: float) -> None:
    """Raise ValueError unless ``build_topology(kind, n, p_edge)`` can
    build a graph; ``p_edge`` is read only for a random topology."""
    if n < 2:
        raise ValueError(f"need at least 2 agents, got n = {n}")
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology kind {kind!r}, expected one of {TOPOLOGY_KINDS}")
    if kind == "random" and not 0.0 < p_edge <= 1.0:
        raise ValueError(f"p_edge must lie in (0, 1] for a random topology, got {p_edge}")


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
    check_topology(kind, n, p_edge)
    if kind == "ring":
        edges = _ring_edges(n)
    elif kind == "path":
        edges = {(i, i + 1) for i in range(1, n)}
    elif kind == "complete":
        edges = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    else:  # random
        rng = derived_generator(seed, 0, PURPOSE_TOPOLOGY)
        edges = set()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < p_edge:
                    edges.add((i, j))
        if not _is_connected(n, frozenset(edges)):
            edges |= _ring_edges(n)
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
    """One communication round of each of R replicas stacked replica-major,
    (R*n, d): row i of replica r's block becomes sum_j w_ij * row j of it.

    Preserves column means exactly up to rounding because W is doubly
    stochastic, and contracts deviation from the mean by at least rho.
    """
    stacked = np.asarray(stacked, dtype=float)
    n = mixing.n
    if stacked.ndim != 2 or not stacked.shape[0] or stacked.shape[0] % n:
        raise ValueError(
            f"expected a stacked (R * {n}, d) matrix, got shape {stacked.shape}"
        )
    if len(stacked) == n:
        return mixing.w @ stacked
    # one product per replica block, each equal bit for bit to w @ block
    return (mixing.w @ stacked.reshape(-1, n, stacked.shape[1])).reshape(stacked.shape)
