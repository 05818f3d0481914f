"""Closed-form admissibility conditions, the 3x3 contraction matrix, and
complexity estimates for the tracked variance-reduced method.

The analysis couples three error moments (tracker deviation, consensus
error, anchor drift) through a non-negative matrix C. With the weight
vector eps = [1/(2 eta^2), 1, eps3] the componentwise inequality
C eps <= 3 rho^2 eps certifies a spectral radius d(C) <= 3 rho^2 < 1,
which is what drives the O(1/k) rate. All expressions here are those
certificates in closed form; preconditions are enforced, not assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np


def p_lower_bound(rho: float) -> float:
    """Smallest admissible refresh probability for a given network radius.

    Requires 0 < rho and rho^2 < 1/3; the bound lies in (0, 1) and grows
    toward 1 as the network mixes faster.
    """
    _check_rho(rho)
    return 1.0 - 3.0 * rho**2 / ((1.0 + 1.0 / rho) * (2.0 / 9.0) + 1.0 + rho)


def _check_rho(rho: float) -> None:
    if not rho > 0.0:
        raise ValueError(f"network radius must be positive, got {rho}")
    if not rho**2 < 1.0 / 3.0:
        raise ValueError(f"need rho^2 < 1/3, got rho = {rho}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def epsilon3(rho: float, p: float) -> float:
    """The third weight of the certificate vector.

    Defined as the unique positive solution of the third certificate row
    holding with equality; the denominator is positive exactly when p
    exceeds the admissible lower bound.
    """
    _check_rho(rho)
    if not 0.0 < p < 1.0:
        raise ValueError(f"refresh probability must lie in (0, 1), got {p}")
    if p <= p_lower_bound(rho):
        raise ValueError(
            f"refresh probability {p} is not above the admissible bound "
            f"{p_lower_bound(rho):.6f} for rho = {rho}"
        )
    num = 3.0 * rho**2 * p + (1.0 - p) * (1.0 + 1.0 / rho) / 3.0
    den = 3.0 * rho**2 - (1.0 - p) * ((2.0 / 9.0) * (1.0 + 1.0 / rho) + 1.0 + rho)
    if not den > 0.0:
        raise ValueError(f"certificate weight undefined: denominator {den} <= 0")
    return num / den


def t_constant(lipschitz: float, rho: float, p: float, eps3: float) -> float:
    """Curvature aggregate entering the square-root step-size term."""
    l2 = lipschitz**2
    return (
        16.0 * l2
        + (8.0 / 3.0 + (16.0 / 3.0) * (1.0 + 1.0 / rho) * (1.0 - p)) * l2
        + (32.0 + 32.0 * p) * l2 * rho**2
        + (16.0 / 9.0 + 16.0 * (1.0 - p) * (1.0 + rho + 2.0 * (rho + 1.0) / (9.0 * rho))) * l2 * eps3
    )


def eta_bar(lipschitz: float, rho: float, p: float) -> float:
    """Largest step-size for which the convergence guarantee holds."""
    _check_positive("smoothness constant L", lipschitz)
    eps = epsilon3(rho, p)
    big_t = t_constant(lipschitz, rho, p, eps)
    term1 = (1.0 - 3.0 * rho**2) / (
        (16.0 * rho**2 * lipschitz**2 + (32.0 * rho**2 * lipschitz**2 + 2.0) * (1.0 - p) * (rho + 1.0) / rho)
        * 5.0
        * lipschitz
    )
    term2 = 1.0 / (6.0 * lipschitz)
    term3 = math.sqrt((1.0 - (4.0 / 3.0 + (8.0 / 9.0) * p) * rho**2) / (2.0 * big_t))
    bound = min(term1, term2, term3)
    if not bound > 0.0:
        raise FloatingPointError(f"eta_bar underflows to 0 at L = {lipschitz}")
    return bound


def eta_tilde(lipschitz: float, rho: float, p: float) -> float:
    """Step-size cap under which the complexity estimates hold."""
    return min(eta_bar(lipschitz, rho, p), (1.0 - 3.0 * rho**2) / (3.0 * rho**2 * lipschitz))


def lmi_matrix(
    eta: float,
    rho: float,
    p: float,
    lipschitz: float,
) -> tuple[np.ndarray, float, float]:
    """The coupling matrix C and the forcing coefficients per unit n.

    Rows order the moments as (tracker deviation, consensus error,
    anchor drift). The free splitting parameter is pinned to rho/eta,
    which the listed entries already substitute; the closure additionally
    assumes eta * L <= 1/6 and rejects anything larger.
    """
    if not (eta > 0.0 and rho > 0.0 and lipschitz > 0.0 and 0.0 < p <= 1.0):
        raise ValueError("all contraction-matrix parameters must be positive (p in (0, 1])")
    if eta * lipschitz > 1.0 / 6.0:
        raise ValueError(
            f"matrix entries assume eta * L <= 1/6, got {eta * lipschitz:.6g}"
        )
    l2 = lipschitz**2
    c1 = 2.0 * rho**2 + (12.0 + 8.0 * p) / 9.0 * rho**4
    c2 = (
        16.0 * rho**2 * l2
        + (8.0 * rho + 16.0 * (rho + 1.0) * (1.0 - p)) / (3.0 * rho) * rho**2 * l2
        + (32.0 + 32.0 * p) * l2 * rho**4
    )
    c3 = (16.0 / 9.0) * (1.0 + (9.0 * rho**2 + 11.0 * rho + 2.0) / rho * (1.0 - p)) * rho**2 * l2
    c2pp = 2.0 * rho**2 * p + (1.0 - p) * (1.0 + 1.0 / rho) / 3.0
    c1pp = (1.0 - p) * ((2.0 / 9.0) * (1.0 + 1.0 / rho) + 1.0 + rho)
    c = np.array(
        [
            [c1, c2, c3],
            [2.0 * rho**2 * eta**2, 2.0 * rho**2, 0.0],
            [2.0 * rho**2 * eta**2 * p, c2pp, c1pp],
        ]
    )
    c4 = 16.0 * rho**2 * eta**2 * l2 + 32.0 * (1.0 - p) * rho**2 * eta**2 * l2 * (1.0 + 1.0 / rho)
    c4pp = 2.0 * eta**2 * (1.0 - p) * (1.0 + 1.0 / rho)
    return c, c4, c4pp


def nonneg_spectral_radius(matrix: np.ndarray) -> float:
    """Perron root of a non-negative matrix: its largest eigenvalue modulus."""
    c = np.asarray(matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"need a square matrix, got shape {c.shape}")
    if (c < 0.0).any():
        raise ValueError("matrix must be non-negative")
    return float(max(abs(np.linalg.eigvals(c))))


def verify_contraction(
    c: np.ndarray,
    rho: float,
    eps3: float,
    eta: float,
) -> tuple[bool, float]:
    """Componentwise certificate check plus the spectral radius d(C).

    Checks C eps <= 3 rho^2 eps with eps = [1/(2 eta^2), 1, eps3] (the
    middle row holds with exact equality by construction) and returns
    d(C), from the eigenvalues of C, alongside. When the admissibility
    conditions hold, both the inequality and d(C) <= 3 rho^2 hold.
    """
    d_c = nonneg_spectral_radius(c)
    eps = np.array([1.0 / (2.0 * eta**2), 1.0, eps3])
    lhs = np.asarray(c, dtype=float) @ eps
    rhs = 3.0 * rho**2 * eps
    return bool(np.all(lhs <= rhs * (1.0 + 1e-12))), d_c


def complexity_estimate(
    eta: float,
    epsilon: float,
    f_gap: float,
    r0: float,
    n: int,
    total_samples: int,
    p: float,
    neighbor_counts: Sequence[int],
) -> tuple[float, float, float]:
    """(iterations, gradient evaluations, communication rounds) to reach
    a stationarity level epsilon.

    Iterations scale as (9 / (eta epsilon)) (f_gap + (10 / 9n) r0 / eta);
    each iteration costs p * m_i + 2 evaluations at agent i (so
    p * total + 2n network-wide) and one exchange per neighbor link
    endpoint. Estimates are returned unrounded so they scale exactly
    linearly in 1/epsilon.
    """
    _check_positive("accuracy epsilon", epsilon)
    _check_positive("step-size eta", eta)
    for name, value in (("cost gap f_gap", f_gap), ("initial deviation r0", r0)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if len(neighbor_counts) != n:
        raise ValueError(f"expected {n} neighbor counts, got {len(neighbor_counts)}")
    # every agent of a connected network of n >= 2 agents has a neighbor
    if min(neighbor_counts) < 1:
        raise ValueError(f"neighbor counts must be >= 1, got {list(neighbor_counts)}")
    iterations = 9.0 / (eta * epsilon) * (f_gap + (10.0 / (9.0 * n)) * r0 / eta)
    grads = iterations * (p * total_samples + 2.0 * n)
    comms = iterations * float(sum(neighbor_counts))
    return iterations, grads, comms


@dataclass
class TheoryReport:
    """Everything the admissibility machinery can say about one setup."""

    rho: float
    L: float
    P: float
    n: int
    M: int
    p_lower: float | None = None
    eps3: float | None = None
    T: float | None = None
    eta_bar: float | None = None
    eta_tilde: float | None = None
    eta: float | None = None
    C: list[list[float]] | None = None
    C4: float | None = None
    C4pp: float | None = None
    contraction_ok: bool | None = None
    dC: float | None = None
    iterations: float | None = None
    gradient_evals: float | None = None
    communications: float | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_text(self) -> str:
        def show(val) -> str:
            if val is None:
                return "n/a"
            if isinstance(val, bool):
                return "yes" if val else "no"
            if isinstance(val, float):
                return f"{val:.12g}"
            return str(val)

        pairs = []
        for f in fields(self):
            if f.name not in ("C", "C4", "C4pp", "notes"):
                pairs.append((f.name, getattr(self, f.name)))
            if f.name == "dC":
                pairs.append(("3*rho^2", 3.0 * (self.rho * self.rho)))
        width = max(len(name) for name, _ in pairs)
        lines = [f"{name:<{width}}  {show(val)}" for name, val in pairs]
        if self.C is not None:
            lines.append("C:")
            for row in self.C:
                lines.append("  " + "  ".join(f"{v: .9e}" for v in row))
        if self.gradient_evals is not None:
            # plain stochastic-gradient methods pay O(v^2 / eps^2) with v
            # their per-agent gradient-variance bound; v has no computable
            # value here, so the comparison stays a label
            lines.append("baseline gradient complexity: O(v^2 / eps^2), v not computed")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def build_report(
    rho: float,
    lipschitz: float,
    p: float,
    n: int,
    total_samples: int,
    eta: float | None = None,
    neighbor_counts: Sequence[int] | None = None,
    epsilon: float | None = None,
    f_gap: float | None = None,
    r0: float | None = None,
) -> TheoryReport:
    """Assemble a report, degrading gracefully outside the proven region.

    Every quantity that is well-defined for the inputs is filled in; the
    rest stay None with an explanatory note, because experiment configs
    (including the reference ones) routinely run outside the admissible
    parameter region, or where a bound leaves double precision. Inputs
    that no setup can have (P outside (0, 1), a negative or non-finite
    rho or L, a non-positive or non-finite eta, n or M below 1) raise
    ValueError.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"refresh probability P must lie in (0, 1), got {p}")
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"network radius rho must be finite and >= 0, got {rho}")
    # a flat objective (L = 0) is a setup: only the bounds that divide by L reject it
    if not 0.0 <= lipschitz < math.inf:
        raise ValueError(f"smoothness constant L must be finite and >= 0, got {lipschitz}")
    if eta is not None:
        _check_positive("step-size eta", eta)
    if n < 1:
        raise ValueError(f"agent count n must be >= 1, got {n}")
    if total_samples < 1:
        raise ValueError(f"total sample count M must be >= 1, got {total_samples}")
    report = TheoryReport(rho=rho, L=lipschitz, P=p, n=n, M=total_samples, eta=eta)
    if rho <= 1e-12:
        report.notes.append("network mixes in one round (rho ~ 0); admissibility bounds degenerate")
        return report
    # rho * rho equals rho**2 but turns inf, not OverflowError, past 1e154
    if not rho * rho < 1.0 / 3.0:
        report.notes.append(f"rho^2 = {rho * rho:.6g} >= 1/3: outside the proven region")
        return report
    report.p_lower = p_lower_bound(rho)
    p_ref = p
    if not p > report.p_lower:
        p_ref = 0.5 * (report.p_lower + 1.0)
        report.notes.append(
            f"P = {p} is not above the admissible bound {report.p_lower:.6g}; "
            f"step-size bounds computed at reference P = {p_ref:.6g}"
        )
    if p_ref >= 1.0 - 1e-12:
        # interval (p_lower, 1) too narrow to represent in doubles
        report.notes.append("admissible probability window is numerically empty")
        return report
    try:
        report.eps3 = epsilon3(rho, p_ref)
        report.T = t_constant(lipschitz, rho, p_ref, report.eps3)
        report.eta_bar = eta_bar(lipschitz, rho, p_ref)
        report.eta_tilde = eta_tilde(lipschitz, rho, p_ref)
        eta_eff = eta if eta is not None else report.eta_bar
        if eta_eff * lipschitz <= 1.0 / 6.0:
            c, report.C4, report.C4pp = lmi_matrix(eta_eff, rho, p_ref, lipschitz)
            report.C = c.tolist()
            report.contraction_ok, report.dC = verify_contraction(c, rho, report.eps3, eta_eff)
        else:
            report.notes.append(
                f"eta * L = {eta_eff * lipschitz:.6g} > 1/6: contraction matrix undefined"
            )
        if None not in (epsilon, f_gap, r0) and neighbor_counts is not None:
            estimates = complexity_estimate(
                eta_eff, epsilon, f_gap, r0, n, total_samples, p_ref, neighbor_counts
            )
            if not all(math.isfinite(value) for value in estimates):
                report.notes.append(
                    f"the complexity estimates leave double precision at eta = {eta_eff:.6g}, "
                    f"epsilon = {epsilon:.6g}"
                )
                return report
            report.iterations, report.gradient_evals, report.communications = estimates
            if eta_eff > report.eta_tilde:
                report.notes.append(
                    f"step-size {eta_eff} exceeds the complexity-range cap {report.eta_tilde:.6g}; "
                    "estimates are extrapolations"
                )
    except ArithmeticError:
        # a square, product or reciprocal of L or eta left double precision:
        # what is filled in stands, the rest cannot be computed
        at_eta = "" if eta is None else f", eta = {eta:.6g}"
        report.notes.append(f"the bounds leave double precision at L = {lipschitz:.6g}{at_eta}")
    return report
