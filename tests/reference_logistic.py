"""The logistic oracles in their earlier form, kept as a bit-identity reference.

Here the sigmoid pair selects with ``np.where`` on the sign of z, and
each agent's transpose A_i^T is a CSC view of its row block's arrays,
so ``A_i^T coef`` scatters over the m_i sample columns. The current
``LogisticProblem`` uses a branch-free sigmoid and a feature-major copy;
its local oracles must equal these bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from gtvr.problem import LogisticProblem


def sigmoid_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(z), sigma(-z)) from a single exp(-|z|), overflow-free."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    pos = z >= 0
    return np.where(pos, big, small), np.where(pos, small, big)


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
        self.rows, self.label_rows = prob._rows, prob._label_rows
        offsets = np.concatenate(([0], np.cumsum(self.m))).tolist()
        self.bounds = list(zip(offsets[:-1], offsets[1:]))
        blocks = [_row_block(self.rows, lo, hi) for lo, hi in self.bounds]
        self.feats = [a for a, _ in blocks]
        self.feats_t = [a_t for _, a_t in blocks]
        self.labels = [self.label_rows[lo:hi] for lo, hi in self.bounds]

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
