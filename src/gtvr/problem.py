"""Finite-sum objectives: f = (1/n) sum_i f_i with f_i = (1/m_i) sum_j f_ij.

Two concrete instances are provided. The logistic instance is the
regularized sigmoid-loss binary classifier used on LIBSVM data; the
quadratic instance is a synthetic least-squares problem whose exact
minimizer makes it the standard exact-convergence test bed.

Agent ids and sample indices are 1-based throughout the public surface
(matching the simulator's index draws); storage is 0-based internally.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

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
    out = (z < 0).astype(float)
    np.maximum(e, out, out=out)
    out /= one_e
    return out


def _sigmoid_product(e: np.ndarray, one_e: np.ndarray) -> np.ndarray:
    """sigma(z) sigma(-z), the same for z and -z, so no sign is needed."""
    return (1.0 / one_e) * (e / one_e)


def _sigmoid_pair_scalar(z: float) -> tuple[float, float]:
    e = math.exp(-abs(z))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    return (big, small) if z >= 0 else (small, big)


class RowLayout(NamedTuple):
    """How the agents share arrays stacked over all samples: agent i owns
    rows ``offsets[i - 1]:offsets[i]`` (n + 1 offsets, from 0 to sum m_i),
    so its sample j is stacked row ``base[i - 1] + j``; ``sizes`` holds m."""

    offsets: tuple[int, ...]
    base: np.ndarray
    sizes: np.ndarray

    def views(self, stacked: np.ndarray) -> list:
        """Each agent's rows of ``stacked``, as views of it."""
        return [stacked[lo:hi] for lo, hi in zip(self.offsets, self.offsets[1:])]


class FiniteSumProblem:
    """Shared surface of the per-instance objectives.

    Subclasses provide the oracles the engine and the metric pass call;
    this base holds the sizes and the row ``layout`` that both instances
    and the estimators share, the one batch check of ``component_grads``,
    the default ``component_grad_diffs`` (two ``component_grads`` calls),
    and the one check of a ``local_full_grads`` batch. The per-sample and
    per-agent references live in ``tests/reference_problem.py``.
    """

    n: int
    d: int
    m: tuple[int, ...]
    layout: RowLayout

    def _set_layout(self, sizes: Sequence[int], d: int) -> None:
        """Hold n, d and m for agents that own the next sizes[i - 1]
        stacked rows each, and the layout of those rows."""
        self.n = len(sizes)
        self.d = int(d)
        self.m = tuple(int(size) for size in sizes)
        m = np.array(self.m)
        offsets = np.concatenate(([0], np.cumsum(m)))
        self.layout = RowLayout(tuple(offsets.tolist()), offsets[:-1] - 1, m)

    @property
    def total_samples(self) -> int:
        return sum(self.m)

    def _check_indices(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"agent index {i} out of range [1, {self.n}]")

    def component_grads(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        """One component gradient per agent and replica, stacked (R*n, d):
        row r*n + i - 1 is the gradient of agent i's sample
        ``js[r*n + i - 1]`` at ``X[r*n + i - 1]`` (a single run is R = 1)."""
        raise NotImplementedError

    def component_grad_diffs(self, js: np.ndarray, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """The same draws' gradients at two points, differenced: equal bit
        for bit to ``component_grads(js, X) - component_grads(js, T)``."""
        return self.component_grads(js, X) - self.component_grads(js, T)

    def _batch_rows(self, js: np.ndarray, X: np.ndarray, T: np.ndarray | None = None) -> np.ndarray:
        """Stacked 0-based rows of the sampled components, after one check
        of the whole batch (and of the second points ``T``, if given)."""
        if (
            js.ndim != 1
            or not js.size
            or js.size % self.n
            or X.shape != (js.size, self.d)
            or (T is not None and T.shape != X.shape)
        ):
            second = "" if T is None else f" and {T.shape}"
            raise ValueError(
                f"need one index and one ({self.d},) point per agent ({self.n}) of each "
                f"replica, got indices {js.shape} and points {X.shape}{second}"
            )
        # R replicas' indices as an (R, n) view; one replica's as they are,
        # since the (1, n) broadcast would add about 2 us to each call
        per_agent = js if js.size == self.n else js.reshape(-1, self.n)
        if np.count_nonzero((per_agent < 1) | (per_agent > self.layout.sizes)):
            raise IndexError(f"sample indices {js.tolist()} outside [1, m_i] for m = {self.m}")
        return (self.layout.base + per_agent).ravel()

    def component_grad_table(self, i: int, x: np.ndarray) -> np.ndarray:
        """All component gradients of agent i at x, stacked (m_i, d)."""
        raise NotImplementedError

    def local_full_grads(self, agents: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The full local gradients of the 1-based ``agents[j]`` at ``X[j]``,
        stacked (k, d); an empty selection gives (0, d)."""
        raise NotImplementedError

    def _check_agents(self, agents: np.ndarray, X: np.ndarray) -> None:
        """One check of a whole ``local_full_grads`` batch."""
        if agents.ndim != 1 or X.shape != (agents.size, self.d):
            raise ValueError(
                f"need one ({self.d},) point per selected agent, "
                f"got agents {agents.shape} and points {X.shape}"
            )
        # a batch has at most one agent per state row, and on lists that
        # short Python's min and max beat numpy's fixed cost per call
        ids = agents.tolist()
        if ids and (min(ids) < 1 or max(ids) > self.n):
            raise IndexError(f"agent indices {ids} out of range [1, {self.n}]")

    def lipschitz_estimate(self) -> float:
        raise NotImplementedError

    def local_costs_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's local cost and full local gradient at one point x.

        Returns the n costs and the stacked (n, d) gradients, agent i in
        row i - 1; the gradients equal ``local_full_grads`` of every agent
        at x.
        """
        raise NotImplementedError


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
        sizes = [a.shape[0] for a in feats]
        self._hold(sp.vstack(feats, format="csr"), np.concatenate(labels), sizes, lam1)

    def _hold(
        self, rows: sp.csr_matrix, labels: np.ndarray, sizes: Sequence[int], lam1: float
    ) -> None:
        """Keep all agents' rows as one CSR; agent i owns the next sizes[i-1] rows.

        The per-agent matrices and label vectors are views into the
        stacked arrays. The rows are sorted by feature (on a copy, so the
        caller's matrix is left alone), which makes a row's sum over its
        entries the same additions whether it is taken row- or
        feature-major. The features are held a second time, feature-major,
        as the block-diagonal (n*d, N) CSR ``_cols`` whose rows
        (i-1)*d .. i*d-1 are A_i^T over the stacked sample columns: its
        products are dots over long feature rows, where a transposed view
        of the row-major arrays would scatter over short sample columns.
        """
        if not 0 <= lam1 < math.inf:
            raise ValueError(f"regularization weight must be finite and >= 0, got {lam1}")
        if min(sizes) < 1:
            raise ValueError("feature rows and labels must match and be non-empty")
        if not np.isin(labels, (-1.0, 1.0)).all():
            raise ValueError("labels must be exactly -1 or +1")
        if not np.isfinite(rows.data).all():
            raise ValueError("logistic features must be finite")
        if not rows.has_sorted_indices:
            rows = rows.sorted_indices()
        self._set_layout(sizes, rows.shape[1])
        self.lam1 = float(lam1)
        self._rows = rows
        self._label_rows = labels
        self._m_rows = np.repeat(np.array(self.m, dtype=float), self.m)
        self._feats, self._cols, self._col_blocks = _agent_blocks(rows, self.layout.offsets)
        self._labels = self.layout.views(labels)

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

    def component_grads(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        # the per-sample reference's arithmetic row by row, after one batch check
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

    def local_full_grads(self, agents: np.ndarray, X: np.ndarray) -> np.ndarray:
        # agent by agent: the sparse products are the floor here; agent i's
        # (d, N) feature rows read only its own slice of the coefficients
        self._check_agents(agents, X)
        out = np.empty((len(agents), self.d))
        coef = np.empty(self.total_samples)
        offsets = self.layout.offsets
        for row, (i, x) in enumerate(zip(agents.tolist(), X)):
            l = self._labels[i - 1]
            z = l * (self._feats[i - 1] @ x)
            coef[offsets[i - 1] : offsets[i]] = (-l * _sigmoid_product(*_exp_terms(z))) / self.m[i - 1]
            out[row] = (self._col_blocks[i - 1] @ coef) + (2.0 * self.lam1) * x
        return out

    def local_costs_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # two products over all agents; the transpose's product scatters
        # over the samples, adding each sorted row's terms in the order of
        # a row-major sum, so each agent's slice sees the arithmetic of the
        # per-agent oracles
        x = np.asarray(x, dtype=float)
        z = self._cols.T @ np.tile(x, self.n)
        z *= self._label_rows
        e, one_e = _exp_terms(z)
        sig_neg = _sigmoid_neg(z, e, one_e)
        # -l sigma(z) sigma(-z) / m_i in the exp buffers, by the operations
        # of the per-agent oracle (the sign of a product is exact either way)
        coef = np.divide(e, one_e, out=e)
        coef *= np.divide(1.0, one_e, out=one_e)
        coef *= self._label_rows
        np.negative(coef, out=coef)
        coef /= self._m_rows
        grads = (self._cols @ coef).reshape(self.n, self.d)
        grads += (2.0 * self.lam1) * x
        reg = self.lam1 * float(x @ x)
        costs = np.array([float(s.mean()) + reg for s in self.layout.views(sig_neg)])
        return costs, grads

    def lipschitz_estimate(self) -> float:
        # sigmoid-composition curvature is bounded by 1/4; conservative
        # but valid, which is all the step-size theory requires
        return float(self._rows.multiply(self._rows).sum(axis=1).max()) / 4.0 + 2.0 * self.lam1


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


def _agent_blocks(
    rows: sp.csr_matrix, offsets: Sequence[int]
) -> tuple[list[sp.csr_matrix], sp.csr_matrix, list[sp.csr_matrix]]:
    """Each block of rows ``offsets[i]:offsets[i + 1]`` as a CSR view of
    ``rows``; the blocks' transposes as one block-diagonal (n*d, N) CSR,
    rows i*d .. (i+1)*d - 1 holding A_{i+1}^T (each feature's entries in
    sample order) over the stacked sample columns; and each agent's
    (d, N) row block of it, as a view. It is filled one transpose at a
    time, so only one agent's temporaries are alive at once.
    """
    total, d = rows.shape
    n = len(offsets) - 1
    starts = rows.indptr[list(offsets)].tolist()
    blocks = [
        _csr_view((hi - lo, d), rows.data[a:b], rows.indices[a:b], rows.indptr[lo : hi + 1] - a)
        for lo, hi, a, b in zip(offsets, offsets[1:], starts, starts[1:])
    ]
    index = np.int32 if max(total, rows.nnz, n * d) <= np.iinfo(np.int32).max else np.int64
    data = np.empty(rows.nnz)
    indices = np.empty(rows.nnz, dtype=index)
    indptr = np.empty(n * d + 1, dtype=index)
    indptr[0] = 0
    for i, (block, lo, a, b) in enumerate(zip(blocks, offsets, starts, starts[1:])):
        block_t = block.T.tocsr()
        data[a:b] = block_t.data
        indices[a:b] = block_t.indices
        indices[a:b] += lo
        indptr[i * d + 1 : (i + 1) * d + 1] = block_t.indptr[1:]
        indptr[i * d + 1 : (i + 1) * d + 1] += a
    cols = _csr_view((n * d, total), data, indices, indptr)
    col_blocks = [
        _csr_view((d, total), data[a:b], indices[a:b], indptr[i * d : (i + 1) * d + 1] - a)
        for i, (a, b) in enumerate(zip(starts, starts[1:]))
    ]
    return blocks, cols, col_blocks


class QuadraticProblem(FiniteSumProblem):
    """Least-squares components f_ij(x) = 0.5 (a_ij'x - t_ij)^2."""

    def __init__(self, features: Sequence[np.ndarray], targets: Sequence[np.ndarray]) -> None:
        if len(features) != len(targets) or not features:
            raise ValueError("need one feature matrix and target vector per agent")
        feats = [np.asarray(a, dtype=float) for a in features]
        targets = [np.asarray(t, dtype=float) for t in targets]
        for a, t in zip(feats, targets):
            if a.ndim != 2 or a.shape[1] != feats[0].shape[1] or t.shape != a.shape[:1] or not a.size:
                raise ValueError("inconsistent quadratic instance data")
        self._set_layout([a.shape[0] for a in feats], feats[0].shape[1])
        # all agents' rows stacked once; the per-agent arrays are views of them
        self._rows = np.concatenate(feats)
        self._target_rows = np.concatenate(targets)
        if not (np.isfinite(self._rows).all() and np.isfinite(self._target_rows).all()):
            raise ValueError("quadratic instance data must be finite")
        self._feats = self.layout.views(self._rows)
        self._targets = self.layout.views(self._target_rows)
        # with one m_i, the stacked rows as (n, m, d) blocks, agent i's at
        # entry i - 1: the batched refresh's operands, as views
        self._blocks = None
        if len(set(self.m)) == 1:
            m = self.m[0]
            self._blocks = (self._rows.reshape(self.n, m, self.d), self._target_rows.reshape(self.n, m))

    def component_grads(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        rows = self._batch_rows(js, X)
        a = self._rows.take(rows, axis=0)
        # stacked (1, d) @ (d, 1) products reproduce each row's a @ x bit
        # for bit; einsum and (a * X).sum(1) do not
        r = (a[:, None, :] @ X[:, :, None])[:, 0, 0] - self._target_rows.take(rows)
        return r[:, None] * a

    def component_grad_diffs(self, js: np.ndarray, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        rows = self._batch_rows(js, X, T)
        a = self._rows.take(rows, axis=0)
        t = self._target_rows.take(rows)
        r_x = (a[:, None, :] @ X[:, :, None])[:, 0, 0] - t
        r_t = (a[:, None, :] @ T[:, :, None])[:, 0, 0] - t
        return r_x[:, None] * a - r_t[:, None] * a

    def component_grad_table(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(i)
        a = self._feats[i - 1]
        r = a @ x - self._targets[i - 1]
        return r[:, None] * a

    def local_full_grads(self, agents: np.ndarray, X: np.ndarray) -> np.ndarray:
        self._check_agents(agents, X)
        if self._blocks is None:  # unequal m_i: agent by agent
            out = np.empty((len(agents), self.d))
            for row, (i, x) in enumerate(zip(agents.tolist(), X)):
                a = self._feats[i - 1]
                r = a @ x - self._targets[i - 1]
                out[row] = (a.T @ r) / self.m[i - 1]
            return out
        feats, targets = self._blocks
        slot = agents - 1
        a = feats.take(slot, axis=0)
        # stacked (m, d) @ (d, 1) and (d, m) @ (m, 1) products: the gemv
        # calls of the agent-by-agent branch, item by item
        r = (a @ X[:, :, None])[:, :, 0] - targets.take(slot, axis=0)
        return (a.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0] / self.m[0]

    def local_costs_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one residual per agent, shared by its cost and gradient; these are
        # the per-agent oracle's expressions, for equal and unequal m_i alike
        x = np.asarray(x, dtype=float)
        costs = np.empty(self.n)
        grads = np.empty((self.n, self.d))
        for i, (a, t, m) in enumerate(zip(self._feats, self._targets, self.m)):
            r = a @ x - t
            costs[i] = 0.5 * float(r @ r) / m
            grads[i] = (a.T @ r) / m
        return costs, grads

    def lipschitz_estimate(self) -> float:
        return float((self._rows * self._rows).sum(axis=1).max())


def make_quadratic(
    n: int,
    m: int,
    d: int,
    seed: int = 0,
    noise: float = 0.5,
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
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        t = a @ x_star + noise * rng.normal(size=m)
        feats.append(a)
        targets.append(t)
    return QuadraticProblem(feats, targets)


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
        z = margin_scale * margin
        l = np.where(rng.random(size=m) < _sigmoid_neg(-z, *_exp_terms(z)), 1.0, -1.0)
        feats.append(a)
        labels.append(l)
    return LogisticProblem(feats, labels, lam1)
