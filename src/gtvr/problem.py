"""Finite-sum objectives: f = (1/n) sum_i f_i with f_i = (1/m_i) sum_j f_ij.

Two concrete instances are provided. The logistic instance is the
regularized sigmoid-loss binary classifier used on LIBSVM data; the
quadratic instance is a synthetic least-squares problem whose exact
minimizer makes it the standard exact-convergence test bed.

Agent ids and sample indices are 1-based throughout the public surface
(matching the simulator's index draws); storage is 0-based internally.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp

from .rng import PURPOSE_DATA, derived_generator

if TYPE_CHECKING:
    from .ingest import RawDataset


def _exp_terms(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e = exp(-|z|) and 1 + e, from which sigma(z) and sigma(-z) follow
    without overflow: one of them is 1 / (1 + e), the other e / (1 + e)."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return e, e + 1.0


def _sigmoid_neg(z: np.ndarray, e: np.ndarray, one_e: np.ndarray) -> np.ndarray:
    """sigma(-z): e / (1 + e) where z >= 0 and 1 / (1 + e) where z < 0.

    The max against the 0/1 sign mask picks the numerator (e <= 1)
    without a data-dependent select, which mispredicts per element on
    mixed signs; the values equal the select's bit for bit.
    """
    return np.maximum(e, (z < 0).astype(float)) / one_e


def _sigmoid_product(e: np.ndarray, one_e: np.ndarray) -> np.ndarray:
    """sigma(z) sigma(-z), the same for z and -z, so no sign is needed."""
    return (1.0 / one_e) * (e / one_e)


def _sigmoid_pair_scalar(z: float) -> tuple[float, float]:
    e = math.exp(-abs(z))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    return (big, small) if z >= 0 else (small, big)


class FiniteSumProblem:
    """Shared surface of the per-instance objectives.

    Subclasses provide component/local costs and gradients; this base
    supplies the network-level average, a per-agent loop for the batched
    oracles, and common bookkeeping.
    """

    n: int
    d: int
    m: tuple[int, ...]
    _row_base: np.ndarray  # stacked row of agent i's sample j is _row_base[i - 1] + j
    _m_array: np.ndarray  # m as an array

    @property
    def total_samples(self) -> int:
        return sum(self.m)

    def _check_indices(self, i: int, j: int | None = None) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"agent index {i} out of range [1, {self.n}]")
        if j is not None and not 1 <= j <= self.m[i - 1]:
            raise IndexError(
                f"sample index {j} out of range [1, {self.m[i - 1]}] for agent {i}"
            )

    def component_cost(self, i: int, j: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_grad(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def component_grads(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        """One component gradient per agent, stacked (n, d): row i - 1 is
        ``component_grad(i, js[i - 1], X[i - 1])``."""
        raise NotImplementedError

    def _batch_rows(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Stacked 0-based rows of the sampled components, after one check
        of the whole batch; subclasses hold ``_row_base`` and ``_m_array``."""
        if js.shape != (self.n,) or X.shape != (self.n, self.d):
            raise ValueError(
                f"need one index and one ({self.d},) point per agent ({self.n}), "
                f"got indices {js.shape} and points {X.shape}"
            )
        if np.count_nonzero((js < 1) | (js > self._m_array)):
            raise IndexError(f"sample indices {js.tolist()} outside [1, m_i] for m = {self.m}")
        return self._row_base + js

    def component_grad_table(self, i: int, x: np.ndarray) -> np.ndarray:
        """All component gradients of agent i at x, stacked (m_i, d)."""
        raise NotImplementedError

    def local_cost(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def local_full_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lipschitz_estimate(self) -> float:
        raise NotImplementedError

    def local_costs_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's local cost and full local gradient at one point x.

        Returns the n costs and the stacked (n, d) gradients, agent i in
        row i - 1, equal to ``local_cost(i, x)`` and ``local_full_grad(i, x)``.
        """
        x = np.asarray(x, dtype=float)
        agents = range(1, self.n + 1)
        costs = np.array([self.local_cost(i, x) for i in agents])
        grads = np.array([self.local_full_grad(i, x) for i in agents])
        return costs, grads

    def global_cost_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Cost and gradient of the network average f at a single point x."""
        return agent_average(*self.local_costs_and_grads(x))


def agent_average(costs: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of per-agent costs and stacked gradients, summed in agent order."""
    cost = 0.0
    grad = np.zeros(grads.shape[1])
    for c, g in zip(costs, grads):
        cost += float(c)
        grad += g
    return cost / len(costs), grad / len(costs)


class LogisticProblem(FiniteSumProblem):
    """Sigmoid-loss binary classification with an L2 term.

    Component cost of sample (a, l) with label l in {-1, +1}:
        1 / (1 + exp(l a'x)) + lam1 ||x||^2.
    """

    def __init__(
        self,
        features: Sequence[sp.csr_matrix],
        labels: Sequence[np.ndarray],
        lam1: float,
    ) -> None:
        if len(features) != len(labels) or not features:
            raise ValueError("need one feature matrix and label vector per agent")
        feats = [sp.csr_matrix(a, dtype=float) for a in features]
        labels = [np.asarray(l, dtype=float) for l in labels]
        for a, l in zip(feats, labels):
            if a.shape[1] != feats[0].shape[1]:
                raise ValueError("all agents must share the feature dimension")
            if a.shape[0] != l.shape[0]:
                raise ValueError("feature rows and labels must match and be non-empty")
        self._hold(
            sp.vstack(feats, format="csr"),
            np.concatenate(labels),
            [a.shape[0] for a in feats],
            lam1,
        )

    def _hold(
        self, rows: sp.csr_matrix, labels: np.ndarray, sizes: Sequence[int], lam1: float
    ) -> None:
        """Keep all agents' rows as one CSR; agent i owns the next sizes[i-1] rows.

        The per-agent matrices and label vectors are views into the
        stacked arrays. The features are held a second time, feature-major,
        as one buffer whose per-agent views are the transposed blocks
        A_i^T: their products are dots over d long rows, where a transposed
        view of the row-major arrays would scatter over m_i short columns.
        """
        if lam1 < 0:
            raise ValueError(f"regularization weight must be >= 0, got {lam1}")
        if min(sizes) < 1:
            raise ValueError("feature rows and labels must match and be non-empty")
        if not np.isin(labels, (-1.0, 1.0)).all():
            raise ValueError("labels must be exactly -1 or +1")
        if not np.isfinite(rows.data).all():
            raise ValueError("logistic features must be finite")
        self.n = len(sizes)
        self.d = int(rows.shape[1])
        self.lam1 = float(lam1)
        self.m = tuple(int(size) for size in sizes)
        self._rows = rows
        self._label_rows = labels
        offsets = np.concatenate(([0], np.cumsum(self.m))).tolist()
        self._bounds = list(zip(offsets[:-1], offsets[1:]))
        self._feats, self._feats_t = _agent_blocks(rows, offsets)
        self._labels = [labels[lo:hi] for lo, hi in self._bounds]
        self._m_rows = np.empty(len(labels))
        for (lo, hi), size in zip(self._bounds, self.m):
            self._m_rows[lo:hi] = size
        self._row_base = np.array(offsets[:-1]) - 1
        self._m_array = np.array(self.m)
        canonical = rows.has_canonical_format
        self._max_row_sq = max(_max_row_square(a, canonical) for a in self._feats)

    @classmethod
    def from_partition(
        cls,
        raw: "RawDataset",
        parts: Sequence[np.ndarray],
        lam1: float,
        normalize: bool = False,
    ) -> "LogisticProblem":
        """Build from a parsed dataset and a per-agent row assignment."""
        csr = raw.features
        if normalize:
            norms = np.sqrt(np.asarray(csr.multiply(csr).sum(axis=1)).ravel())
            norms[norms == 0.0] = 1.0
            csr = sp.diags(1.0 / norms) @ csr
            csr = sp.csr_matrix(csr)
        order = np.concatenate([np.asarray(idx, dtype=np.int64) for idx in parts])
        labels = np.asarray(raw.labels[order], dtype=float)
        prob = cls.__new__(cls)
        prob._hold(csr[order], labels, [len(idx) for idx in parts], lam1)
        return prob

    def component_cost(self, i: int, j: int, x: np.ndarray) -> float:
        self._check_indices(i, j)
        a = self._feats[i - 1]
        lo, hi = a.indptr[j - 1], a.indptr[j]
        z = self._labels[i - 1][j - 1] * float(a.data[lo:hi] @ x[a.indices[lo:hi]])
        _, sig_neg = _sigmoid_pair_scalar(z)
        return sig_neg + self.lam1 * float(x @ x)

    def component_grad(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(i, j)
        a = self._feats[i - 1]
        lo, hi = a.indptr[j - 1], a.indptr[j]
        idx = a.indices[lo:hi]
        val = a.data[lo:hi]
        l = self._labels[i - 1][j - 1]
        z = l * float(val @ x[idx])
        sig, sig_neg = _sigmoid_pair_scalar(z)
        g = (2.0 * self.lam1) * x
        g[idx] += (-l * sig * sig_neg) * val
        return g

    def component_grads(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        # component_grad's arithmetic row by row, after one batch check
        rows = self._batch_rows(js, X)
        grads = (2.0 * self.lam1) * X
        indptr, indices, data = self._rows.indptr, self._rows.indices, self._rows.data
        for g, x, r, l in zip(grads, X, rows.tolist(), self._label_rows[rows].tolist()):
            lo, hi = indptr[r], indptr[r + 1]
            idx = indices[lo:hi]
            val = data[lo:hi]
            sig, sig_neg = _sigmoid_pair_scalar(l * float(val @ x[idx]))
            g[idx] += (-l * sig * sig_neg) * val
        return grads

    def component_grad_table(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(i)
        a = self._feats[i - 1]
        l = self._labels[i - 1]
        coef = -l * _sigmoid_product(*_exp_terms(l * (a @ x)))
        table = np.asarray(a.multiply(coef[:, None]).todense())
        table += (2.0 * self.lam1) * x
        return table

    def local_cost(self, i: int, x: np.ndarray) -> float:
        self._check_indices(i)
        z = self._labels[i - 1] * (self._feats[i - 1] @ x)
        sig_neg = _sigmoid_neg(z, *_exp_terms(z))
        return float(sig_neg.mean()) + self.lam1 * float(x @ x)

    def local_full_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(i)
        l = self._labels[i - 1]
        z = l * (self._feats[i - 1] @ x)
        coef = (-l * _sigmoid_product(*_exp_terms(z))) / self.m[i - 1]
        return (self._feats_t[i - 1] @ coef) + (2.0 * self.lam1) * x

    def local_costs_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one product over the stacked rows, then per-agent reductions of
        # its slices; each slice sees the arithmetic of the per-agent oracles
        x = np.asarray(x, dtype=float)
        z = self._label_rows * (self._rows @ x)
        e, one_e = _exp_terms(z)
        sig_neg = _sigmoid_neg(z, e, one_e)
        coef = (-self._label_rows * _sigmoid_product(e, one_e)) / self._m_rows
        reg = self.lam1 * float(x @ x)
        reg_grad = (2.0 * self.lam1) * x
        costs = np.empty(self.n)
        grads = np.empty((self.n, self.d))
        for i, ((lo, hi), a_t) in enumerate(zip(self._bounds, self._feats_t)):
            costs[i] = float(sig_neg[lo:hi].mean()) + reg
            grads[i] = (a_t @ coef[lo:hi]) + reg_grad
        return costs, grads

    def lipschitz_estimate(self) -> float:
        # sigmoid-composition curvature is bounded by 1/4; conservative
        # but valid, which is all the step-size theory requires
        return self._max_row_sq / 4.0 + 2.0 * self.lam1


def _csr_view(
    shape: tuple[int, int], data: np.ndarray, indices: np.ndarray, indptr: np.ndarray
) -> sp.csr_matrix:
    """A CSR matrix over the given arrays, sharing them.

    scipy's constructors copy an index or data slice that is under half
    of its base array, so the matrix is made empty and then handed them.
    """
    out = sp.csr_matrix(shape)
    out.data, out.indices, out.indptr = data, indices, indptr
    return out


def _max_row_square(block: sp.csr_matrix, canonical: bool) -> float:
    """The largest squared row norm of a block, equal to the one from
    ``block.multiply(block)``. On a canonical block (sorted indices, no
    repeats) that is the stored values squared, without multiply's merge;
    otherwise multiply sums repeated entries before squaring."""
    if not canonical:
        return float(block.multiply(block).sum(axis=1).max())
    squares = _csr_view(block.shape, block.data * block.data, block.indices, block.indptr)
    return float(squares.sum(axis=1).max())


def _agent_blocks(
    rows: sp.csr_matrix, offsets: Sequence[int]
) -> tuple[list[sp.csr_matrix], list[sp.csr_matrix]]:
    """Each block of rows ``offsets[i]:offsets[i + 1]`` and its transpose.

    The blocks are CSR views of ``rows``. The transposes, shape (d, m_i),
    are CSR views of one feature-major buffer, which a single O(nnz)
    CSR-to-CSC conversion builds for all blocks: entry (r, c) of block i
    moves to column i * d + c of an (N, n d) matrix, so the CSC's columns
    run through block 1's features, then block 2's, each listing its rows
    in order. Block i's feature-major entries are then the run of the
    buffer that its row-major entries occupy in ``rows``.
    """
    n, d = len(offsets) - 1, rows.shape[1]
    starts = rows.indptr[list(offsets)].tolist()
    spans = list(zip(offsets, offsets[1:], starts, starts[1:]))
    wide = np.int64 if n * d > np.iinfo(np.int32).max else rows.indices.dtype
    banded = rows.indices.astype(wide)
    for i, (_, _, start, stop) in enumerate(spans):
        banded[start:stop] += i * d
    cols = sp.csr_matrix((rows.data, banded, rows.indptr), shape=(rows.shape[0], n * d)).tocsc()
    del banded
    blocks, blocks_t = [], []
    for i, (lo, hi, start, stop) in enumerate(spans):
        blocks.append(
            _csr_view(
                (hi - lo, d),
                rows.data[start:stop],
                rows.indices[start:stop],
                rows.indptr[lo : hi + 1] - start,
            )
        )
        local_rows = cols.indices[start:stop]
        local_rows -= lo
        blocks_t.append(
            _csr_view(
                (d, hi - lo),
                cols.data[start:stop],
                local_rows,
                cols.indptr[i * d : (i + 1) * d + 1] - start,
            )
        )
    return blocks, blocks_t


class QuadraticProblem(FiniteSumProblem):
    """Least-squares components f_ij(x) = 0.5 (a_ij'x - t_ij)^2."""

    def __init__(self, features: Sequence[np.ndarray], targets: Sequence[np.ndarray]) -> None:
        if len(features) != len(targets) or not features:
            raise ValueError("need one feature matrix and target vector per agent")
        feats = [np.asarray(a, dtype=float) for a in features]
        targets = [np.asarray(t, dtype=float) for t in targets]
        self.n = len(feats)
        self.d = feats[0].shape[1]
        for a, t in zip(feats, targets):
            if a.ndim != 2 or a.shape[1] != self.d or a.shape[0] != t.shape[0] or not a.size:
                raise ValueError("inconsistent quadratic instance data")
        self.m = tuple(a.shape[0] for a in feats)
        # all agents' rows stacked once; agent i owns the next m_i rows, and
        # the per-agent arrays are views of them
        self._rows = np.concatenate(feats)
        self._target_rows = np.concatenate(targets)
        if not (np.isfinite(self._rows).all() and np.isfinite(self._target_rows).all()):
            raise ValueError("quadratic instance data must be finite")
        offsets = [0, *itertools.accumulate(self.m)]
        self._feats = [self._rows[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        self._targets = [self._target_rows[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        # stacked row of agent i's sample j is _row_base[i - 1] + j
        self._row_base = np.array(offsets[:-1]) - 1
        self._m_array = np.array(self.m)

    def component_cost(self, i: int, j: int, x: np.ndarray) -> float:
        self._check_indices(i, j)
        r = float(self._feats[i - 1][j - 1] @ x) - self._targets[i - 1][j - 1]
        return 0.5 * r * r

    def component_grad(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(i, j)
        a = self._feats[i - 1][j - 1]
        r = float(a @ x) - self._targets[i - 1][j - 1]
        return r * a

    def component_grads(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        rows = self._batch_rows(js, X)
        a = self._rows.take(rows, axis=0)
        # stacked (1, d) @ (d, 1) products reproduce each row's a @ x bit
        # for bit; einsum and (a * X).sum(1) do not
        r = (a[:, None, :] @ X[:, :, None])[:, 0, 0] - self._target_rows.take(rows)
        return r[:, None] * a

    def component_grad_table(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(i)
        a = self._feats[i - 1]
        r = a @ x - self._targets[i - 1]
        return r[:, None] * a

    def local_cost(self, i: int, x: np.ndarray) -> float:
        self._check_indices(i)
        r = self._feats[i - 1] @ x - self._targets[i - 1]
        return 0.5 * float(r @ r) / self.m[i - 1]

    def local_full_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(i)
        a = self._feats[i - 1]
        r = a @ x - self._targets[i - 1]
        return (a.T @ r) / self.m[i - 1]

    def lipschitz_estimate(self) -> float:
        return float((self._rows * self._rows).sum(axis=1).max())


def make_quadratic(
    n: int,
    m: int,
    d: int,
    seed: int = 0,
    noise: float = 0.5,
    normalize_rows: bool = True,
) -> QuadraticProblem:
    """Random least-squares instance with a planted solution.

    Unit-norm rows keep the smoothness constant at 1, and a nonzero noise
    level makes the system inconsistent so plain stochastic gradients
    have a strictly positive variance floor at the minimizer.
    """
    rng = derived_generator(seed, 0, PURPOSE_DATA)
    x_star = rng.normal(size=d)
    feats = []
    targets = []
    for _ in range(n):
        a = rng.normal(size=(m, d))
        if normalize_rows:
            a /= np.linalg.norm(a, axis=1, keepdims=True)
        t = a @ x_star + noise * rng.normal(size=m)
        feats.append(a)
        targets.append(t)
    return QuadraticProblem(feats, targets)


def sigmoid_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(z), sigma(-z)) from a single exp(-|z|), overflow-free."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    pos = z >= 0
    return np.where(pos, big, small), np.where(pos, small, big)


def make_logistic(
    n: int,
    m: int,
    d: int,
    seed: int = 0,
    lam1: float = 5e-4,
    density: float = 0.3,
    margin_scale: float = 2.0,
) -> LogisticProblem:
    """Synthetic sparse binary-classification instance (a9a-like shape).

    ``margin_scale`` controls label noise: small values put the class
    probabilities near 1/2, so stochastic gradients stay noisy even at
    the optimum.
    """
    rng = derived_generator(seed, 0, PURPOSE_DATA)
    x_true = rng.normal(size=d) / math.sqrt(max(density * d, 1.0))
    feats = []
    labels = []
    for _ in range(n):
        mask = rng.random(size=(m, d)) < density
        # guarantee at least one active feature per sample
        empty = ~mask.any(axis=1)
        mask[empty, rng.integers(d, size=int(empty.sum()))] = True
        a = sp.csr_matrix(mask.astype(float))
        margin = a @ x_true
        l = np.where(rng.random(size=m) < sigmoid_pair(margin_scale * margin)[0], 1.0, -1.0)
        feats.append(a)
        labels.append(l)
    return LogisticProblem(feats, labels, lam1)
