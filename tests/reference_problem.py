"""The per-sample and per-agent oracles of both problem classes.

``gtvr.problem`` keeps only the oracles the engine and the metric pass
call: the batched ``component_grads`` and ``local_full_grads``, the
component table and ``local_costs_and_grads``. These are the scalar
oracles those are checked against, with the arithmetic and index checks
they had as methods, reading the problem's per-agent views (``_feats``,
``_targets``, ``_labels``). The logistic full gradient builds its own
transpose of ``_feats``, so it reads nothing of the feature-major copy
that the batched oracles use.
"""

from __future__ import annotations

import numpy as np

from gtvr.problem import (
    FiniteSumProblem,
    QuadraticProblem,
    _exp_terms,
    _sigmoid_neg,
    _sigmoid_pair_scalar,
    _sigmoid_product,
)


def _check_indices(prob: FiniteSumProblem, i: int, j: int | None = None) -> None:
    if not 1 <= i <= prob.n:
        raise IndexError(f"agent index {i} out of range [1, {prob.n}]")
    if j is not None and not 1 <= j <= prob.m[i - 1]:
        raise IndexError(f"sample index {j} out of range [1, {prob.m[i - 1]}] for agent {i}")


def component_cost(prob: FiniteSumProblem, i: int, j: int, x: np.ndarray) -> float:
    """f_ij(x), the cost of agent i's sample j."""
    _check_indices(prob, i, j)
    if isinstance(prob, QuadraticProblem):
        r = float(prob._feats[i - 1][j - 1] @ x) - prob._targets[i - 1][j - 1]
        return 0.5 * r * r
    a = prob._feats[i - 1]
    lo, hi = a.indptr[j - 1], a.indptr[j]
    z = prob._labels[i - 1][j - 1] * float(a.data[lo:hi] @ x[a.indices[lo:hi]])
    _, sig_neg = _sigmoid_pair_scalar(z)
    return sig_neg + prob.lam1 * float(x @ x)


def component_grad(prob: FiniteSumProblem, i: int, j: int, x: np.ndarray) -> np.ndarray:
    """The gradient of f_ij at x."""
    _check_indices(prob, i, j)
    if isinstance(prob, QuadraticProblem):
        a = prob._feats[i - 1][j - 1]
        r = float(a @ x) - prob._targets[i - 1][j - 1]
        return r * a
    a = prob._feats[i - 1]
    lo, hi = a.indptr[j - 1], a.indptr[j]
    idx = a.indices[lo:hi]
    val = a.data[lo:hi]
    l = prob._labels[i - 1][j - 1]
    z = l * float(val @ x[idx])
    sig, sig_neg = _sigmoid_pair_scalar(z)
    g = (2.0 * prob.lam1) * x
    g[idx] += (-l * sig * sig_neg) * val
    return g


def local_cost(prob: FiniteSumProblem, i: int, x: np.ndarray) -> float:
    """f_i(x), agent i's mean component cost."""
    _check_indices(prob, i)
    if isinstance(prob, QuadraticProblem):
        r = prob._feats[i - 1] @ x - prob._targets[i - 1]
        return 0.5 * float(r @ r) / prob.m[i - 1]
    z = prob._labels[i - 1] * (prob._feats[i - 1] @ x)
    sig_neg = _sigmoid_neg(z, *_exp_terms(z))
    return float(sig_neg.mean()) + prob.lam1 * float(x @ x)


def local_full_grad(prob: FiniteSumProblem, i: int, x: np.ndarray) -> np.ndarray:
    """The gradient of f_i at x, agent i's mean component gradient."""
    _check_indices(prob, i)
    if isinstance(prob, QuadraticProblem):
        a = prob._feats[i - 1]
        r = a @ x - prob._targets[i - 1]
        return (a.T @ r) / prob.m[i - 1]
    l = prob._labels[i - 1]
    z = l * (prob._feats[i - 1] @ x)
    coef = (-l * _sigmoid_product(*_exp_terms(z))) / prob.m[i - 1]
    return (prob._feats[i - 1].T.tocsr() @ coef) + (2.0 * prob.lam1) * x
