"""The logistic oracles in their earlier form, kept as a bit-identity reference.

Here the sigmoid pair selects with ``np.where`` on the sign of z, and
each agent's transpose A_i^T is a CSC view of its row block's arrays,
so ``A_i^T coef`` scatters over the m_i sample columns, and the rows
are the data as given, with the labels apart. The current
``LogisticProblem`` uses a branch-free sigmoid and holds each row
multiplied by its label; its local oracles, and the labels
``make_logistic`` draws, must equal these bit for bit. The sampled
oracle here is the per-row loop that the batched one replaced, which it
must equal within the rounding bound its test states.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from gtvr.problem import LogisticProblem
from gtvr.rng import PURPOSE_DATA, derived_generator


def sigmoid_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(z), sigma(-z)) from a single exp(-|z|), overflow-free."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    pos = z >= 0
    return np.where(pos, big, small), np.where(pos, small, big)


def make_logistic_labels(
    n: int, m: int, d: int, seed: int, density: float, margin_scale: float
) -> np.ndarray:
    """The labels ``make_logistic`` draws, stacked, with the class
    probability sigma(margin_scale * a'x_true) taken from ``sigmoid_pair``."""
    rng = derived_generator(seed, 0, PURPOSE_DATA)
    x_true = rng.normal(size=d) / np.sqrt(max(density * d, 1.0))
    labels = []
    for _ in range(n):
        mask = rng.random(size=(m, d)) < density
        empty = ~mask.any(axis=1)
        mask[empty, rng.integers(d, size=int(empty.sum()))] = True
        margin = sp.csr_matrix(mask.astype(float)) @ x_true
        labels.append(np.where(rng.random(size=m) < sigmoid_pair(margin_scale * margin)[0], 1.0, -1.0))
    return np.concatenate(labels)


def _row_block(rows: sp.csr_matrix, lo: int, hi: int) -> tuple[sp.csr_matrix, sp.csc_matrix]:
    """Rows lo..hi-1 of a CSR matrix and their transpose, sharing its arrays."""
    start, stop = rows.indptr[lo], rows.indptr[hi]
    arrays = (rows.data[start:stop], rows.indices[start:stop], rows.indptr[lo : hi + 1] - start)
    block = sp.csr_matrix((hi - lo, rows.shape[1]))
    block_t = sp.csc_matrix((rows.shape[1], hi - lo))
    for out in (block, block_t):
        out.data, out.indices, out.indptr = arrays
    return block, block_t


class ReferenceLogistic:
    """The earlier local oracles over a problem's stacked rows and labels."""

    def __init__(self, prob: LogisticProblem) -> None:
        self.n, self.m, self.lam1 = prob.n, prob.m, prob.lam1
        self.label_rows = prob._label_rows
        # the problem holds l a; a second multiply by l gives back a exactly
        self.rows = prob._rows.copy()
        self.rows.data *= np.repeat(self.label_rows, np.diff(self.rows.indptr))
        offsets = np.concatenate(([0], np.cumsum(self.m))).tolist()
        self.bounds = list(zip(offsets[:-1], offsets[1:]))
        blocks = [_row_block(self.rows, lo, hi) for lo, hi in self.bounds]
        self.feats = [a for a, _ in blocks]
        self.feats_t = [a_t for _, a_t in blocks]
        self.labels = [self.label_rows[lo:hi] for lo, hi in self.bounds]

    def component_grads(self, js: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The earlier sampled oracle, row by row: agent i's sample
        ``js[r*n + i - 1]`` at ``X[r*n + i - 1]``, with a BLAS dot for the
        margin and ``math.exp``. Its margins are added in another order than
        the CSR products' and its exp is libm's, so the current oracle equals
        it only within rounding."""
        grads = (2.0 * self.lam1) * X
        indptr, indices, data = self.rows.indptr, self.rows.indices, self.rows.data
        starts = np.array([lo for lo, _ in self.bounds])
        rows = (np.resize(starts, len(js)) + js - 1).tolist()
        for g, x, r in zip(grads, X, rows):
            lo, hi = indptr[r], indptr[r + 1]
            idx = indices[lo:hi]
            val = data[lo:hi]
            l = self.label_rows[r]
            z = l * float(val @ x[idx])
            e = math.exp(-abs(z))
            big, small = 1.0 / (1.0 + e), e / (1.0 + e)
            sig, sig_neg = (big, small) if z >= 0 else (small, big)
            g[idx] += (-l * sig * sig_neg) * val
        return grads

    def component_grad_table(self, i: int, x: np.ndarray) -> np.ndarray:
        a = self.feats[i - 1]
        l = self.labels[i - 1]
        z = l * (a @ x)
        sig, sig_neg = sigmoid_pair(z)
        coef = -l * sig * sig_neg
        table = np.asarray(a.multiply(coef[:, None]).todense())
        table += (2.0 * self.lam1) * x
        return table

    def local_cost(self, i: int, x: np.ndarray) -> float:
        z = self.labels[i - 1] * (self.feats[i - 1] @ x)
        _, sig_neg = sigmoid_pair(z)
        return float(sig_neg.mean()) + self.lam1 * float(x @ x)

    def local_full_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        a = self.feats[i - 1]
        l = self.labels[i - 1]
        z = l * (a @ x)
        sig, sig_neg = sigmoid_pair(z)
        coef = (-l * sig * sig_neg) / self.m[i - 1]
        return (self.feats_t[i - 1] @ coef) + (2.0 * self.lam1) * x

    def local_costs_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        z = self.label_rows * (self.rows @ x)
        sig, sig_neg = sigmoid_pair(z)
        coef = -self.label_rows * sig * sig_neg
        reg = self.lam1 * float(x @ x)
        reg_grad = (2.0 * self.lam1) * x
        costs = np.empty(self.n)
        grads = np.empty((self.n, x.size))
        for i, ((lo, hi), a_t) in enumerate(zip(self.bounds, self.feats_t)):
            costs[i] = float(sig_neg[lo:hi].mean()) + reg
            grads[i] = (a_t @ (coef[lo:hi] / self.m[i])) + reg_grad
        return costs, grads
