"""The per-sample and per-agent oracles of both problem classes.

``gtvr.problem`` keeps only the oracles the engine and the metric pass
call: the unchecked sampled cores ``_component_grads`` and
``_component_grad_diffs`` (tests reach them with 1-based indices through
``helpers.component_grads`` and ``helpers.component_grad_diffs``, and a
whole agent's table through ``helpers.component_grad_table``), the
batched ``local_full_grads`` and ``local_costs_and_grads``. These are the
scalar oracles those are checked against, with the arithmetic and index
checks they had as methods, reading the problem's per-agent views (``_feats``,
``_targets``). A logistic problem holds each row multiplied by its label,
so a row of ``_feats`` is l a and its margin (l a)'x is the signed margin
l a'x. A component's margin adds the row's products one at a time in
entry order, as scipy's CSR product adds them in the full passes. The
logistic full gradient builds its own transpose of ``_feats`` and its own
coefficient, so it reads nothing of the transposed views and the
coefficient kernel that the batched oracles use. The quadratic metric
pass, which the problem runs over all K points at once, is here as the
loop over points and agents it replaced.
"""

from __future__ import annotations

import numpy as np

from gtvr.problem import FiniteSumProblem, QuadraticProblem, _exp_terms, _sigmoid_neg


def _sigmoid_pair_scalar(z: float) -> tuple[float, float]:
    # numpy's exp, which the batched oracles call, not always math.exp's bits
    e = float(np.exp(-abs(z)))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    return (big, small) if z >= 0 else (small, big)


def _row_margin(val: np.ndarray, x: np.ndarray) -> float:
    """The sum of val[k] * x[k] from 0, one entry at a time in entry order."""
    z = 0.0
    for v, xk in zip(val.tolist(), x.tolist()):
        z += v * xk
    return z


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
    z = _row_margin(a.data[lo:hi], x[a.indices[lo:hi]])
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
    z = _row_margin(val, x[idx])
    sig, sig_neg = _sigmoid_pair_scalar(z)
    g = (2.0 * prob.lam1) * x
    g[idx] += (-sig * sig_neg) * val
    return g


def local_cost(prob: FiniteSumProblem, i: int, x: np.ndarray) -> float:
    """f_i(x), agent i's mean component cost."""
    _check_indices(prob, i)
    if isinstance(prob, QuadraticProblem):
        r = prob._feats[i - 1] @ x - prob._targets[i - 1]
        return 0.5 * float(r @ r) / prob.m[i - 1]
    z = prob._feats[i - 1] @ x
    sig_neg = _sigmoid_neg(z, *_exp_terms(z))
    return float(sig_neg.mean()) + prob.lam1 * float(x @ x)


def local_full_grad(prob: FiniteSumProblem, i: int, x: np.ndarray) -> np.ndarray:
    """The gradient of f_i at x, agent i's mean component gradient."""
    _check_indices(prob, i)
    if isinstance(prob, QuadraticProblem):
        a = prob._feats[i - 1]
        r = a @ x - prob._targets[i - 1]
        return (a.T @ r) / prob.m[i - 1]
    z = prob._feats[i - 1] @ x
    e, one_e = _exp_terms(z)
    coef = -((1.0 / one_e) * (e / one_e)) / prob.m[i - 1]
    return (prob._feats[i - 1].T.tocsr() @ coef) + (2.0 * prob.lam1) * x


def local_costs_and_grads(prob: QuadraticProblem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic metric pass point by point: every agent's cost and full
    gradient at each row of the (K, d) stack X, one residual per agent
    shared by both."""
    costs = np.empty((len(X), prob.n))
    grads = np.empty((len(X), prob.n, prob.d))
    for cost, grad, x in zip(costs, grads, X):
        for i, (a, t, m) in enumerate(zip(prob._feats, prob._targets, prob.m)):
            r = a @ x - t
            cost[i] = 0.5 * float(r @ r) / m
            grad[i] = (a.T @ r) / m
    return costs, grads
