"""Shared test utilities: independent oracles, the sampled oracles with
1-based per-agent indices, stub random streams and a LIBSVM writer for
round-trip checks."""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import IO, NamedTuple

import numpy as np
import scipy.sparse as sp

from gtvr.ingest import RawDataset
from gtvr.metrics import agent_average
from gtvr.problem import FiniteSumProblem, QuadraticProblem
from gtvr.rng import PURPOSE_BERNOULLI, PURPOSE_INDEX, derived_generator

from reference_problem import local_full_grad


def central_diff_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, the reference for analytic gradients."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        step = np.zeros_like(x, dtype=float)
        step[i] = h
        g[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return g


def serialize_libsvm(raw: RawDataset, sink: str | Path | IO[str]) -> None:
    """Re-emit a dataset in LIBSVM text form (lossless for 64-bit values)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w") as fh:
            serialize_libsvm(raw, fh)
            return
    indptr = raw.features.indptr.tolist()
    indices = raw.features.indices.tolist()
    data = raw.features.data.tolist()
    for r, label in enumerate(raw.labels.tolist()):
        parts = [f"{label:.17g}"]
        lo, hi = indptr[r], indptr[r + 1]
        parts.extend(f"{i + 1}:{v:.17g}" for i, v in zip(indices[lo:hi], data[lo:hi]))
        sink.write(" ".join(parts) + "\n")


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def dense_deviation_norm(w: np.ndarray) -> float:
    """Spectral norm of W - (1/n)11^T straight from a dense SVD."""
    n = w.shape[0]
    return float(np.linalg.norm(w - np.full((n, n), 1.0 / n), 2))


def raw_from_rows(rows, labels, d: int) -> RawDataset:
    """RawDataset from one (0-based index array, value array) pair per row."""
    indptr = np.cumsum([0] + [len(idx) for idx, _ in rows])
    indices = np.concatenate([np.asarray(idx, dtype=np.int32) for idx, _ in rows])
    data = np.concatenate([np.asarray(val, dtype=float) for _, val in rows])
    features = sp.csr_matrix((data, indices, indptr), shape=(len(rows), d))
    return RawDataset(features, np.asarray(labels, dtype=float))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Equal shape and bit-identical indptr, indices and data, dtypes included."""
    return a.shape == b.shape and all(
        same_bits(getattr(a, name), getattr(b, name)) for name in ("indptr", "indices", "data")
    )


def brute_force_consensus_gap(w: np.ndarray, x: np.ndarray) -> float:
    """Literal double sum sum_i x_i' sum_j w_ij (x_i - x_j)."""
    n = w.shape[0]
    total = 0.0
    for i in range(n):
        acc = np.zeros(x.shape[1])
        for j in range(n):
            acc += w[i, j] * (x[i] - x[j])
        total += float(x[i] @ acc)
    return total


def global_cost_and_grad(prob: FiniteSumProblem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Cost and gradient of the network average f at a single point x."""
    return agent_average(*prob.local_costs_and_grads(x))


def sample_rows(prob: FiniteSumProblem, js: np.ndarray) -> np.ndarray:
    """The stacked 0-based sample rows of the 1-based per-agent indices
    ``js``, one per agent of each of R replicas: index ``js[r*n + i - 1]``
    of agent i is row ``layout.base[i - 1] + js[r*n + i - 1]``."""
    return np.tile(prob.layout.base, len(js) // prob.n) + js


def component_grads(prob: FiniteSumProblem, js: np.ndarray, X: np.ndarray) -> np.ndarray:
    """One sampled component gradient per agent and replica, stacked (R*n, d):
    row r*n + i - 1 is agent i's sample ``js[r*n + i - 1]`` at ``X[r*n + i - 1]``,
    from the unchecked core the round engine calls."""
    return prob._component_grads(sample_rows(prob, js), X)


def component_grad_diffs(prob: FiniteSumProblem, js: np.ndarray, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``component_grads`` of the same draws at X and at T, differenced, from
    GT-VR's paired core."""
    return prob._component_grad_diffs(sample_rows(prob, js), X, T)


def gtsaga_tables(prob: FiniteSumProblem, est) -> list[np.ndarray]:
    """GT-SAGA's logical table, one (m_i, d) array per live state row of the
    estimator ``est``, replica-major as the state: a drawn row from the
    buffer, every other rebuilt at x1 from its start scalar, all state rows'
    in one ``_grad_rows`` call, as a round rebuilds its first draws."""
    n, offsets = prob.n, prob.layout.offsets
    agents = np.arange(len(est._offset)) % n
    sizes = prob.layout.sizes[agents]
    samples = np.concatenate([np.arange(offsets[s], offsets[s + 1]) for s in agents])
    table = np.empty((len(samples), prob.d))
    prob._grad_rows(samples, est._scalars[samples], est._x1[np.repeat(agents, sizes)], table)
    slots = est._slot[np.repeat(est._offset, sizes) + samples]
    drawn = slots >= 0
    table[drawn] = est._buffer[slots[drawn]]
    return np.split(table, np.cumsum(sizes)[:-1])


def least_squares_solution(problem: QuadraticProblem) -> np.ndarray:
    """Exact minimizer of the quadratic finite sum via normal equations."""
    h = np.zeros((problem.d, problem.d))
    b = np.zeros(problem.d)
    for i in range(1, problem.n + 1):
        a = problem._feats[i - 1]
        t = problem._targets[i - 1]
        scale = 1.0 / (problem.n * problem.m[i - 1])
        h += scale * (a.T @ a)
        b += scale * (a.T @ t)
    return np.linalg.solve(h, b)


class StubGenerator:
    """Stands in for a numpy Generator with scripted uniform draws."""

    def __init__(self, uniforms=(), integers=()):
        self._uniforms = list(uniforms)
        self._integers = list(integers)

    def random(self):
        return self._uniforms.pop(0)

    def integers(self, bound):
        return self._integers.pop(0)


class ScalarStreams(NamedTuple):
    """One agent's coin and index generators, drawn one value at a time."""

    bernoulli: np.random.Generator
    index: np.random.Generator


def scalar_streams(seed: int, n: int) -> list[ScalarStreams]:
    """Agent i's streams at position i - 1, built from the documented spawn
    keys (i, PURPOSE_BERNOULLI) and (i, PURPOSE_INDEX): the streams that
    ``SwarmStreams(seed, m, p)`` draws from for n agents, for scalar reference
    draws with ``reference_rng.draw_bernoulli`` and ``draw_index``."""
    return [
        ScalarStreams(
            derived_generator(seed, i, PURPOSE_BERNOULLI), derived_generator(seed, i, PURPOSE_INDEX)
        )
        for i in range(1, n + 1)
    ]


class StubSwarmStreams:
    """SwarmStreams replacement: each round's coins come from one scripted
    vector of uniform draws against p, its sample rows from real swarm
    streams."""

    def __init__(self, uniforms, p, indices_from):
        self._uniforms = [np.asarray(u, dtype=float) for u in uniforms]
        self._p = p
        self._indices_from = indices_from

    def coins(self):
        return self._uniforms.pop(0) < self._p

    def rows(self):
        return self._indices_from.rows()


def mean_abs_inf(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def exact_stationary_quadratic(problem: QuadraticProblem) -> np.ndarray:
    x = least_squares_solution(problem)
    return np.tile(x, (problem.n, 1))


def estimate_vr_second_moments(problem, x, tau, draws, seed):
    """Monte-Carlo second moments of the anchored gradient estimator.

    Per-sample estimator values are tabulated once (the estimator is a
    deterministic function of the drawn index), so each draw reduces to a
    table lookup while the index draws still come from the streams under
    test: each agent's first ``draws`` values of ``uniform_indices``, the
    sequence as many scalar draws give. Returns (stacked deviation from
    local grads at x, squared norm of the mean deviation from local grads
    at xbar, squared norm of the estimator mean), each averaged over the
    draws.
    """
    from gtvr import rng as gtvr_rng
    from reference_engine import vr_gradient_estimate

    n = problem.n
    streams = scalar_streams(seed, n)
    xbar = x.mean(axis=0)
    g_x = [local_full_grad(problem, i, x[i - 1]) for i in range(1, n + 1)]
    g_tau = [local_full_grad(problem, i, tau[i - 1]) for i in range(1, n + 1)]
    g_at_xbar = np.stack([local_full_grad(problem, i, xbar) for i in range(1, n + 1)])
    picks = []
    total_dev = 0.0
    for i in range(1, n + 1):
        tab = np.stack(
            [
                vr_gradient_estimate(problem, i, j, x[i - 1], tau[i - 1], g_tau[i - 1])
                for j in range(1, problem.m[i - 1] + 1)
            ]
        )
        indices = gtvr_rng.uniform_indices(streams[i - 1].index, problem.m[i - 1])
        rows = np.fromiter(islice(indices, draws), np.int64, draws) - 1
        picks.append(tab[rows])
        total_dev += float(np.sum((tab - g_x[i - 1]) ** 2, axis=1)[rows].sum())
    picks = np.stack(picks)  # (n, draws, d)
    mean_err = (picks - g_at_xbar[:, None, :]).mean(axis=0)
    vbar = picks.mean(axis=0)
    mean_dev_sq = float((mean_err * mean_err).sum(axis=1).sum())
    vbar_sq = float((vbar * vbar).sum(axis=1).sum())
    return total_dev / draws, mean_dev_sq / draws, vbar_sq / draws
