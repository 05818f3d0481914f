"""Finite-sum objectives: f = (1/n) sum_i f_i with f_i = (1/m_i) sum_j f_ij.

Two concrete instances are provided. The logistic instance is the
regularized sigmoid-loss binary classifier used on LIBSVM data; the
quadratic instance is a synthetic least-squares problem whose exact
minimizer makes it the standard exact-convergence test bed. Only the
logistic instance needs ``scipy.sparse``; the functions that build its
matrices import it on first use, so the quadratic needs numpy alone.

Agent ids and sample indices are 1-based throughout the public surface
(matching the simulator's index draws); storage, and the unchecked oracle
cores the round engine calls, are 0-based.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .rng import PURPOSE_DATA, derived_generator

if TYPE_CHECKING:
    import scipy.sparse as sp

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


def _grad_coef(e: np.ndarray, one_e: np.ndarray, m: int) -> np.ndarray:
    """-sigma(z) sigma(-z) / m, in the buffers of ``_exp_terms(z)``, which it
    overwrites; sigma(z) sigma(-z) is the same for z and -z, so no sign is needed."""
    coef = np.divide(e, one_e, out=e)
    coef *= np.divide(1.0, one_e, out=one_e)
    return np.divide(coef, -m, out=coef)


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

    This base holds the sizes and the row ``layout`` that both instances
    and the estimators share, and the checked public entry of the
    full-gradient oracle: ``local_full_grads`` checks its batch once and
    calls the subclass core ``_local_full_grads(slots, X)``, which trusts
    its arguments. The sampled oracles have only their unchecked cores,
    ``_component_grads(rows, X)`` and ``_component_grad_diffs(rows, X, T)``:
    they take stacked 0-based sample rows, which ``SwarmStreams.rows``
    checked as it drew them, and the round engine calls them directly.
    Subclasses provide the cores, GT-SAGA's table in two steps (one scalar
    per sample from a pass over an agent's rows, ``_grad_scalars``, and
    any rows built from those scalars, ``_grad_rows``), the metric pass's
    oracle and the smoothness estimate. The per-sample and per-agent
    references live in ``tests/reference_problem.py``.
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

    def _component_grads(self, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
        """One component gradient per state row, stacked (k, d), unchecked:
        row c is the gradient of the stacked 0-based sample ``rows[c]`` at
        ``X[c]``, as the round engine pairs R replicas' agents with the rows
        that ``SwarmStreams.rows`` hands out."""
        raise NotImplementedError

    def _component_grad_diffs(self, rows: np.ndarray, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """The same rows' gradients at two points, differenced, unchecked:
        equal bit for bit to ``_component_grads(rows, X) - _component_grads(rows, T)``."""
        raise NotImplementedError

    def component_grad_table(self, i: int, x: np.ndarray) -> np.ndarray:
        """All component gradients of agent i at x, stacked (m_i, d)."""
        self._check_agents(np.array([i]), x[None])
        lo, hi = self.layout.offsets[i - 1 : i + 1]
        table = np.empty((hi - lo, self.d))
        self._grad_rows(np.arange(lo, hi), self._grad_scalars(i - 1, x), x, table)
        return table

    def _grad_scalars(self, s: int, x: np.ndarray) -> np.ndarray:
        """The (m_s,) scalars at x of the 0-based agent slot s's samples,
        from one pass over its rows, unchecked: ``_grad_rows`` builds each
        sample's row of ``component_grad_table`` from its scalar."""
        raise NotImplementedError

    def _grad_rows(self, rows: np.ndarray, scalars: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
        """The component gradients of the k stacked 0-based sample ``rows``,
        from their ``_grad_scalars`` at X, a (k, d) stack or one (d,) point,
        written into ``out``, a C-contiguous (k, d) array, unchecked. Each
        row equals its row of ``component_grad_table`` bit for bit, whatever
        rows are built with it."""
        raise NotImplementedError

    def local_full_grads(self, agents: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The full local gradients of the 1-based ``agents[j]`` at ``X[j]``,
        stacked (k, d); an empty selection gives (0, d)."""
        self._check_agents(agents, X)
        return self._local_full_grads(agents - 1, X)

    def _local_full_grads(self, slots: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``local_full_grads`` of the 0-based agent ``slots``, unchecked."""
        raise NotImplementedError

    def _check_agents(self, agents: np.ndarray, X: np.ndarray) -> None:
        """One check of a whole ``local_full_grads`` batch, or of a table's one agent."""
        _check_integers("agents", agents)
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
        """Every agent's local cost and full local gradient at one point x
        (d,), or at each of K points stacked (K, d).

        Returns the n costs and the stacked (n, d) gradients, agent i in
        row i - 1, or for a stack (K, n) costs and (K, n, d) gradients,
        point k's in entry k; each point's values equal those of a call at
        that point alone bit for bit, and its gradients equal
        ``local_full_grads`` of every agent at it.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"need a ({self.d},) point or a (K, {self.d}) stack of points, got {x.shape}")
        costs, grads = self._local_costs_and_grads(np.atleast_2d(x))
        return (costs, grads) if x.ndim == 2 else (costs[0], grads[0])

    def _local_costs_and_grads(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``local_costs_and_grads`` of a (K, d) stack, unchecked."""
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
        import scipy.sparse as sp

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
        self._hold(sp.vstack(feats, format="csr"), np.concatenate(labels), sizes, lam1, feats)

    def _hold(
        self,
        rows: sp.csr_matrix,
        labels: np.ndarray,
        sizes: Sequence[int],
        lam1: float,
        given: Sequence[sp.csr_matrix],
    ) -> None:
        """Keep all agents' rows as one CSR; agent i owns the next sizes[i-1] rows.

        The per-agent rows and transposes are views into the stacked arrays;
        GT-VR's refresh alone reads a feature-major copy of each agent's rows
        (``_feature_major``), made last, from the canonical signed rows. The rows
        are held in canonical form (``_canonical``), sorted by feature with
        repeated features summed, so every oracle applies a feature once,
        and a row's sum over its entries is the same additions whether it is
        taken row- or feature-major. Each row is held multiplied by its
        label, so every kernel forms the signed margin z = (l a)'x as one
        product: ``rows`` is negated in place where l = -1, after a copy if
        its data shares memory with one of the caller's ``given`` matrices.
        """
        if not 0 <= lam1 < math.inf:
            raise ValueError(f"regularization weight must be finite and >= 0, got {lam1}")
        if min(sizes) < 1:
            raise ValueError("feature rows and labels must match and be non-empty")
        if not np.isin(labels, (-1.0, 1.0)).all():
            raise ValueError("labels must be exactly -1 or +1")
        if not np.isfinite(rows.data).all():
            raise ValueError("logistic features must be finite")
        rows = _canonical(rows)
        if any(np.shares_memory(rows.data, a.data) for a in given):
            rows = rows.copy()
        np.negative(rows.data, out=rows.data, where=np.repeat(labels < 0, np.diff(rows.indptr)))
        self._set_layout(sizes, rows.shape[1])
        self.lam1 = float(lam1)
        self._rows = rows
        self._label_rows = labels
        self._feats, self._feats_t = _agent_blocks(rows, self.layout.offsets)
        # each agent's rows as an (m_i, d) CSC copy, and its transpose, a
        # (d, m_i) CSR over the same arrays
        self._feature_major = [(a, a.T) for a in (block.tocsc() for block in self._feats)]

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
            import scipy.sparse as sp

            # each row's squares summed in canonical order, as the rows are held
            csr = _canonical(csr)
            norms = np.sqrt(np.asarray(csr.multiply(csr).sum(axis=1)).ravel())
            norms[norms == 0.0] = 1.0
            csr = sp.diags(1.0 / norms) @ csr
            csr = sp.csr_matrix(csr)
        order = np.concatenate([np.asarray(idx, dtype=np.int64) for idx in parts])
        labels = np.asarray(raw.labels[order], dtype=float)
        prob = cls.__new__(cls)
        prob._hold(csr[order], labels, [len(idx) for idx in parts], lam1, [raw.features])
        return prob

    def _component_grads(self, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
        # one pass over all k sampled rows: their entries gathered into a
        # zero-padded (width, k) layout, column c holding row rows[c]; the
        # clipped reads past a row's end are masked out, never used
        indptr = self._rows.indptr
        starts = indptr.take(rows)
        counts = indptr.take(rows + 1) - starts
        grads = np.multiply(2.0 * self.lam1, X, order="C")
        width = counts.max()
        if not width:  # only empty rows: each gradient is the ridge term
            return grads
        offsets = np.arange(width)[:, None]
        live = offsets < counts
        entries = starts + offsets
        vals = self._rows.data.take(entries, mode="clip")
        # each entry's position in the flattened (k, d) points and gradients
        flat = self._rows.indices.take(entries, mode="clip") + np.arange(0, len(rows) * self.d, self.d)
        # the running sum down axis 0 adds each row's products in entry
        # order, the arithmetic of the full passes' CSR products; a reduce
        # would sum a lone column pairwise
        z = np.add.accumulate(np.where(live, vals * X.take(flat), 0.0), axis=0)[-1]
        # a canonical row names each feature once, so no position repeats
        grads.ravel()[flat[live]] += (vals * _grad_coef(*_exp_terms(z), 1))[live]
        return grads

    def _component_grad_diffs(self, rows: np.ndarray, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        # X and T through one pass, as the first and second half of the batch
        grads = self._component_grads(np.concatenate((rows, rows)), np.concatenate((X, T)))
        return grads[: len(rows)] - grads[len(rows) :]

    def _margin_terms(self, s: int, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """The per-agent kernel of the metric pass and GT-SAGA's table: slot
        s's signed margins z = A_s @ points at a (d,) point or at each column
        of a (d, K) stack, and their ``_exp_terms``."""
        z = self._feats[s] @ points
        return (z, *_exp_terms(z))

    def _grad_scalars(self, s: int, x: np.ndarray) -> np.ndarray:
        # each sample's gradient coefficient
        return _grad_coef(*self._margin_terms(s, x)[1:], 1)

    def _grad_rows(self, rows: np.ndarray, scalars: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
        # the ridge, with each row's products added at its positions: the
        # sampled oracle's ridge + v coef, so a zero ridge entry keeps its sign
        np.multiply(2.0 * self.lam1, X, out=out)
        indptr = self._rows.indptr
        ends = indptr.take(rows + 1)
        counts = ends - indptr.take(rows)
        last = np.cumsum(counts)
        # row c's counts[c] entries end at ends[c] in the rows, at last[c] here
        entries = np.arange(last[-1]) + np.repeat(ends - last, counts)
        flat = np.repeat(np.arange(0, out.size, self.d), counts) + self._rows.indices[entries]
        out.ravel()[flat] += self._rows.data[entries] * np.repeat(scalars, counts)

    def _local_full_grads(self, slots: np.ndarray, X: np.ndarray) -> np.ndarray:
        # agent by agent, on the feature-major copy, where a one-vector
        # product scatters instead of running one long add chain per row. The
        # CSC product adds each canonical row's terms in feature order from 0,
        # as the CSR row product does, and the CSR transpose sums each feature
        # over the samples in sample order, as the CSC view's scatter does
        out = np.empty((len(slots), self.d))
        for row, (s, x) in enumerate(zip(slots.tolist(), X)):
            a, a_t = self._feature_major[s]
            e, one_e = _exp_terms(a @ x)
            out[row] = (a_t @ _grad_coef(e, one_e, self.m[s])) + (2.0 * self.lam1) * x
        return out

    def _local_costs_and_grads(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # agent by agent, two products against all K points at once, so
        # every temporary is (m_i, K); each point's column of a product adds
        # the terms of its one-point product in the same order
        costs = np.empty((len(X), self.n))
        grads = np.empty((len(X), self.n, self.d))
        points = np.ascontiguousarray(X.T)
        ridge = (2.0 * self.lam1) * X
        for i, m in enumerate(self.m):
            z, e, one_e = self._margin_terms(i, points)
            sig_neg = _sigmoid_neg(z, e, one_e)
            grads[:, i] = (self._feats_t[i] @ _grad_coef(e, one_e, m)).T
            grads[:, i] += ridge
            # transposed, each point's terms are a contiguous row, which numpy
            # sums pairwise as it sums the one-point vector
            costs[:, i] = np.ascontiguousarray(sig_neg.T).mean(axis=1)
        # stacked (1, d) @ (d, 1) products reproduce each x @ x bit for bit
        costs += self.lam1 * (X[:, None, :] @ X[:, :, None])[:, :, 0]
        return costs, grads

    def lipschitz_estimate(self) -> float:
        # sigmoid-composition curvature is bounded by 1/4; conservative
        # but valid, which is all the step-size theory requires. The squares
        # go in a view over the rows' own index arrays, with no elementwise
        # product matrix built
        import scipy.sparse as sp

        rows = self._rows
        squares = _view(sp.csr_matrix, rows.shape, rows.data * rows.data, rows.indices, rows.indptr)
        return float(squares.sum(axis=1).max()) / 4.0 + 2.0 * self.lam1


def _check_integers(name: str, ids: np.ndarray) -> None:
    """Raise naming ``name`` unless ``ids`` is an integer array."""
    if not isinstance(ids, np.ndarray) or ids.dtype.kind not in "iu":
        kind = ids.dtype if isinstance(ids, np.ndarray) else type(ids).__name__
        raise TypeError(f"{name} must be an integer array, got {kind}")


def _canonical(rows: sp.csr_matrix) -> sp.csr_matrix:
    """``rows`` with each row's entries sorted by feature and repeated
    features summed: the matrix itself if it is canonical already, else a
    canonical copy, so the caller's matrix is left alone."""
    if rows.has_canonical_format:
        return rows
    rows = rows.copy()
    rows.sum_duplicates()
    return rows


def _view(kind: type, shape: tuple[int, int], *arrays: np.ndarray):
    """A ``kind`` (CSR or CSC) matrix over ``data, indices, indptr``, sharing them.

    scipy's constructors copy an index or data slice that is under half
    of its base array, so the matrix is made empty and then handed them.
    """
    out = kind(shape)
    out.data, out.indices, out.indptr = arrays
    return out


def _agent_blocks(
    rows: sp.csr_matrix, offsets: Sequence[int]
) -> tuple[list[sp.csr_matrix], list[sp.csc_matrix]]:
    """Each block of rows ``offsets[i]:offsets[i + 1]`` as a CSR view of
    ``rows``, and its transpose A_{i+1}^T as a (d, m_{i+1}) CSC view of the
    same arrays: its products scatter each sample's entries in sample order.
    """
    import scipy.sparse as sp

    d = rows.shape[1]
    starts = rows.indptr[list(offsets)].tolist()
    blocks = [
        _view(sp.csr_matrix, (hi - lo, d), rows.data[a:b], rows.indices[a:b], rows.indptr[lo : hi + 1] - a)
        for lo, hi, a, b in zip(offsets, offsets[1:], starts, starts[1:])
    ]
    return blocks, [_view(sp.csc_matrix, (d, a.shape[0]), a.data, a.indices, a.indptr) for a in blocks]


def _residual_costs_and_grads(
    a: np.ndarray, t: np.ndarray, points: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """0.5 r'r / m and a'r / m for the residuals r = a x - t at each point:
    rows ``a`` (..., m, d) and targets ``t`` (..., m), broadcast against
    ``points`` (..., d, 1). The stacked (m, d) @ (d, 1), (1, m) @ (m, 1)
    and (d, m) @ (m, 1) products are one point's a @ x, r @ r and a.T @ r,
    item by item."""
    r = (a @ points)[..., 0] - t
    costs = 0.5 * (r[..., None, :] @ r[..., :, None])[..., 0, 0] / m
    grads = (a.swapaxes(-1, -2) @ r[..., None])[..., 0] / m
    return costs, grads


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
        # entry i - 1: the batched refresh's and metric pass's operands, as views
        self._blocks = None
        if len(set(self.m)) == 1:
            m = self.m[0]
            self._blocks = (self._rows.reshape(self.n, m, self.d), self._target_rows.reshape(self.n, m))

    def _component_grads(self, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
        a = self._rows.take(rows, axis=0)
        # stacked (1, d) @ (d, 1) products reproduce each row's a @ x bit
        # for bit; einsum and (a * X).sum(1) do not
        r = (a[:, None, :] @ X[:, :, None])[:, 0, 0] - self._target_rows.take(rows)
        return r[:, None] * a

    def _component_grad_diffs(self, rows: np.ndarray, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        a = self._rows.take(rows, axis=0)
        t = self._target_rows.take(rows)
        r_x = (a[:, None, :] @ X[:, :, None])[:, 0, 0] - t
        r_t = (a[:, None, :] @ T[:, :, None])[:, 0, 0] - t
        return r_x[:, None] * a - r_t[:, None] * a

    def _grad_scalars(self, s: int, x: np.ndarray) -> np.ndarray:
        # the residuals from one gemv over the agent's block; the sampled
        # oracle's per-row dots, and a gemv over part of the block, round
        # apart from it
        return self._feats[s] @ x - self._targets[s]

    def _grad_rows(self, rows: np.ndarray, scalars: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
        np.multiply(scalars[:, None], self._rows[rows], out=out)

    def _local_full_grads(self, slots: np.ndarray, X: np.ndarray) -> np.ndarray:
        if self._blocks is None:  # unequal m_i: agent by agent
            out = np.empty((len(slots), self.d))
            for row, (s, x) in enumerate(zip(slots.tolist(), X)):
                a = self._feats[s]
                r = a @ x - self._targets[s]
                out[row] = (a.T @ r) / self.m[s]
            return out
        feats, targets = self._blocks
        a = feats.take(slots, axis=0)
        # stacked (m, d) @ (d, 1) and (d, m) @ (m, 1) products: the gemv
        # calls of the agent-by-agent branch, item by item
        r = (a @ X[:, :, None])[:, :, 0] - targets.take(slots, axis=0)
        return (a.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0] / self.m[0]

    def _local_costs_and_grads(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # all K points at once: with one m_i over the (n, m, d) blocks, else
        # agent by agent. Each item of the stacked products is the per-point
        # oracle's gemv or dot call, so every value equals it bit for bit
        if self._blocks is not None:
            return _residual_costs_and_grads(*self._blocks, X[:, None, :, None], self.m[0])
        costs = np.empty((len(X), self.n))
        grads = np.empty((len(X), self.n, self.d))
        for i, (a, t, m) in enumerate(zip(self._feats, self._targets, self.m)):
            costs[:, i], grads[:, i] = _residual_costs_and_grads(a, t, X[:, :, None], m)
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
    import scipy.sparse as sp

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
