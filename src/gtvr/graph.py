"""Network topologies, Metropolis mixing matrices, and the mixing step.

Agents are numbered 1..n. A mixing matrix is doubly stochastic with a
positive diagonal and positive off-diagonal entries exactly on graph
edges; its radius rho is the spectral norm of the deviation operator
W - (1/n) 11^T and quantifies how fast one communication round contracts
disagreement between agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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

    def neighbor_counts(self) -> list[int]:
        return [int(d) for d in self.degrees()]


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


def validate_mixing_matrix(w: np.ndarray, tol: float = 1e-12) -> None:
    """Raise ValueError unless w satisfies every mixing-matrix invariant."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    if not np.isfinite(w).all():
        raise ValueError("mixing matrix contains non-finite entries")
    if (w < 0.0).any():
        raise ValueError("mixing matrix entries must be non-negative")
    if (np.diag(w) <= 0.0).any():
        raise ValueError("mixing matrix diagonal must be strictly positive")
    row_err = np.abs(w.sum(axis=1) - 1.0).max()
    col_err = np.abs(w.sum(axis=0) - 1.0).max()
    if row_err > tol or col_err > tol:
        raise ValueError(
            f"matrix is not doubly stochastic within {tol:g} "
            f"(row error {row_err:.3e}, column error {col_err:.3e})"
        )
    if np.abs(w - w.T).max() > tol:
        raise ValueError("only symmetric (undirected) mixing matrices are supported")
    support = {
        _normalize_edge(i + 1, j + 1)
        for i in range(n)
        for j in range(n)
        if i != j and w[i, j] > 0.0
    }
    if not _is_connected(n, frozenset(support)):
        raise ValueError("mixing matrix support graph is not connected")


def mixing_matrix_from_array(w: np.ndarray, tol: float = 1e-9) -> MixingMatrix:
    w = np.asarray(w, dtype=float)
    validate_mixing_matrix(w, tol=tol)
    return MixingMatrix(n=w.shape[0], w=w, rho=_deviation_spectral_norm(w))


def dump_mixing_matrix(mixing: MixingMatrix, path: str | Path) -> None:
    """Plain-text format: first line n, then n rows of n decimals."""
    lines = [str(mixing.n)]
    for row in mixing.w:
        lines.append(" ".join(f"{val:.17g}" for val in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_mixing_matrix(path: str | Path, tol: float = 1e-9) -> MixingMatrix:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty mixing-matrix file")
    try:
        n = int(text[0].strip())
    except ValueError as exc:
        raise ValueError(f"{path}: first line must be the agent count") from exc
    if len(text) != n + 1:
        raise ValueError(f"{path}: expected {n} matrix rows, found {len(text) - 1}")
    rows = []
    for ln, line in enumerate(text[1:], start=2):
        vals = line.split()
        if len(vals) != n:
            raise ValueError(f"{path}: line {ln}: expected {n} entries, found {len(vals)}")
        try:
            rows.append([float(v) for v in vals])
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: non-numeric entry") from exc
    w = np.array(rows)
    try:
        return mixing_matrix_from_array(w, tol=tol)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
