import math
from fractions import Fraction

import numpy as np
import pytest

from gtvr import theory


def frac_p_lower(rho: Fraction) -> Fraction:
    return 1 - 3 * rho**2 / ((1 + 1 / rho) * Fraction(2, 9) + 1 + rho)


def frac_eps3(rho: Fraction, p: Fraction) -> Fraction:
    num = 3 * rho**2 * p + Fraction(1, 3) * (1 - p) * (1 + 1 / rho)
    den = 3 * rho**2 - (1 - p) * (Fraction(2, 9) * (1 + 1 / rho) + 1 + rho)
    return num / den


def frac_t(lip: Fraction, rho: Fraction, p: Fraction, eps3: Fraction) -> Fraction:
    l2 = lip**2
    return (
        16 * l2
        + (Fraction(8, 3) + Fraction(16, 3) * (1 + 1 / rho) * (1 - p)) * l2
        + (32 + 32 * p) * l2 * rho**2
        + (Fraction(16, 9) + 16 * (1 - p) * (1 + rho + 2 * (rho + 1) / (9 * rho))) * l2 * eps3
    )


def admissible_grid():
    for rho in (0.15, 0.3, 0.45, 0.55):
        p_low = theory.p_lower_bound(rho)
        for p in (p_low + 0.6 * (1 - p_low), p_low + 0.25 * (1 - p_low)):
            yield rho, p


def test_p_lower_bound_half():
    got = theory.p_lower_bound(0.5)
    oracle = frac_p_lower(Fraction(0.5))
    assert got == pytest.approx(float(oracle), rel=1e-15)
    assert got == pytest.approx(0.653846, abs=1e-6)


def test_p_lower_bound_stays_below_one():
    for rho in (0.01, 0.05, 0.1, 0.3, 0.5, 0.577):
        val = theory.p_lower_bound(rho)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(float(frac_p_lower(Fraction(rho))), rel=1e-13)


def test_p_lower_bound_rejects_bad_radius():
    with pytest.raises(ValueError):
        theory.p_lower_bound(math.sqrt(1.0 / 3.0) + 1e-12)
    with pytest.raises(ValueError):
        theory.p_lower_bound(0.0)
    with pytest.raises(ValueError):
        theory.p_lower_bound(-0.2)


def test_epsilon3_hand_value():
    got = theory.epsilon3(0.5, 0.9)
    oracle = frac_eps3(Fraction(0.5), Fraction(0.9))
    assert got == pytest.approx(float(oracle), rel=1e-14)
    assert got == pytest.approx(1.453125, rel=1e-12)


def test_epsilon3_rejects_boundary():
    rho = 0.5
    p_low = theory.p_lower_bound(rho)
    with pytest.raises(ValueError):
        theory.epsilon3(rho, p_low)
    with pytest.raises(ValueError):
        theory.epsilon3(rho, p_low - 0.05)


def test_epsilon3_solves_third_row_identity():
    """The third certificate row must hold with equality at eps3."""
    for rho, p in admissible_grid():
        eps3 = theory.epsilon3(rho, p)
        lhs = (
            2 * rho**2 * p / 2.0
            + (2 * rho**2 * p + (1 - p) * (1 + 1 / rho) / 3.0)
            + (1 - p) * ((2.0 / 9.0) * (1 + 1 / rho) + 1 + rho) * eps3
        )
        assert abs(lhs - 3 * rho**2 * eps3) <= 1e-12


def test_eta_bar_capped_by_sixth_of_l():
    for rho, p in admissible_grid():
        for lip in (0.5, 1.0, 10.0):
            assert theory.eta_bar(lip, rho, p) <= 1.0 / (6.0 * lip) + 1e-18


def test_eta_bar_termwise_oracle():
    rho_f, p_f, lip_f = Fraction(0.5), Fraction(0.9), Fraction(1)
    eps3_f = frac_eps3(rho_f, p_f)
    term1 = (1 - 3 * rho_f**2) / (
        (16 * rho_f**2 * lip_f**2 + (32 * rho_f**2 * lip_f**2 + 2) * (1 - p_f) * (rho_f + 1) / rho_f)
        * 5
        * lip_f
    )
    term2 = Fraction(1, 6)
    radicand = (1 - (Fraction(4, 3) + Fraction(8, 9) * p_f) * rho_f**2) / (2 * frac_t(lip_f, rho_f, p_f, eps3_f))
    term3 = math.sqrt(float(radicand))
    expected = min(float(term1), float(term2), term3)
    assert theory.eta_bar(1.0, 0.5, 0.9) == pytest.approx(expected, rel=1e-13)
    # numbers small enough that the first term is the binding one here
    assert theory.eta_bar(1.0, 0.5, 0.9) == pytest.approx(float(term1), rel=1e-13)


def test_eta_bar_monotone_in_smoothness():
    for rho, p in admissible_grid():
        assert theory.eta_bar(2.0, rho, p) <= theory.eta_bar(1.0, rho, p)
        assert theory.eta_bar(20.0, rho, p) <= theory.eta_bar(2.0, rho, p)


def test_t_constant_equals_certificate_row_aggregate():
    """T must agree with (C2 + C3 eps3) / rho^2; two routes, one value."""
    for rho, p in admissible_grid():
        eps3 = theory.epsilon3(rho, p)
        lip = 3.0
        c, _, _ = theory.lmi_matrix(1e-3, rho, p, lip)
        via_matrix = (c[0, 1] + c[0, 2] * eps3) / rho**2
        assert theory.t_constant(lip, rho, p, eps3) == pytest.approx(via_matrix, rel=1e-12)


def test_eta_tilde_structure():
    assert theory.eta_tilde(1.0, 0.05, 0.999) == theory.eta_bar(1.0, 0.05, 0.999)
    for rho, p in admissible_grid():
        for lip in (1.0, 10.0):
            et = theory.eta_tilde(lip, rho, p)
            eb = theory.eta_bar(lip, rho, p)
            assert et <= eb
            second = (1 - 3 * rho**2) / (3 * rho**2 * lip)
            assert et == pytest.approx(min(eb, second), rel=1e-15)
    # second term at rho = 0.5, L = 1 is exactly 1/3
    assert (1 - 3 * 0.25) / (3 * 0.25 * 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_lmi_matrix_against_rational_oracle():
    eta, rho, p, lip = 0.05, 0.5, 0.9, 1.0
    c, c4, c4pp = theory.lmi_matrix(eta, rho, p, lip)
    ef, rf, pf, lf = Fraction(eta), Fraction(rho), Fraction(p), Fraction(lip)
    l2 = lf**2
    c1 = 2 * rf**2 + Fraction(12 + 8 * pf, 9) * rf**4
    c2 = 16 * rf**2 * l2 + (8 * rf + 16 * (rf + 1) * (1 - pf)) / (3 * rf) * rf**2 * l2 + (32 + 32 * pf) * l2 * rf**4
    c3 = Fraction(16, 9) * (1 + (9 * rf**2 + 11 * rf + 2) / rf * (1 - pf)) * rf**2 * l2
    c2pp = 2 * rf**2 * pf + (1 - pf) * (1 + 1 / rf) / 3
    c1pp = (1 - pf) * (Fraction(2, 9) * (1 + 1 / rf) + 1 + rf)
    oracle = np.array(
        [
            [float(c1), float(c2), float(c3)],
            [float(2 * rf**2 * ef**2), float(2 * rf**2), 0.0],
            [float(2 * rf**2 * ef**2 * pf), float(c2pp), float(c1pp)],
        ]
    )
    assert np.abs(c - oracle).max() <= 1e-14 * np.abs(oracle).max()
    assert c4 == pytest.approx(
        float(16 * rf**2 * ef**2 * l2 + 32 * (1 - pf) * rf**2 * ef**2 * l2 * (1 + 1 / rf)), rel=1e-14
    )
    assert c4pp == pytest.approx(float(2 * ef**2 * (1 - pf) * (1 + 1 / rf)), rel=1e-14)


def test_lmi_matrix_p_one_limits():
    rho, lip = 0.4, 2.0
    c, _, _ = theory.lmi_matrix(0.01, rho, 1.0, lip)
    assert c[2, 2] == 0.0
    assert c[0, 2] == pytest.approx((16.0 / 9.0) * rho**2 * lip**2, rel=1e-14)


def test_lmi_entry_22_independent_of_eta_and_l():
    rho = 0.3
    for eta, lip in ((0.01, 1.0), (0.002, 40.0), (0.05, 3.0)):
        c, _, _ = theory.lmi_matrix(eta, rho, 0.9, lip)
        assert c[1, 1] == pytest.approx(2 * rho**2, rel=1e-15)
        assert c[1, 2] == 0.0


def test_lmi_matrix_rejects_large_step():
    with pytest.raises(ValueError, match="1/6"):
        theory.lmi_matrix(0.2, 0.4, 0.9, 1.0)
    with pytest.raises(ValueError):
        theory.lmi_matrix(0.01, -0.4, 0.9, 1.0)


def test_verify_contraction_true_in_admissible_region():
    for rho, p in admissible_grid():
        for lip in (1.0, 10.0):
            eb = theory.eta_bar(lip, rho, p)
            for eta in (eb / 2, 0.99 * eb):
                c, _, _ = theory.lmi_matrix(eta, rho, p, lip)
                eps3 = theory.epsilon3(rho, p)
                ok, d_c = theory.verify_contraction(c, rho, eps3, eta)
                assert ok
                assert d_c <= 3 * rho**2 + 1e-12
                # independent dense-eigenvalue oracle for the Perron root
                dense = max(abs(np.linalg.eigvals(c)))
                assert d_c == pytest.approx(dense, abs=1e-9)


def test_verify_contraction_false_beyond_step_bound():
    rho, p, lip = 0.5, 0.9, 1.0
    # eta above the square-root term but still below the 1/(6L) closure cap
    eta = 0.1
    assert eta > theory.eta_bar(lip, rho, p)
    c, _, _ = theory.lmi_matrix(eta, rho, p, lip)
    ok, _ = theory.verify_contraction(c, rho, theory.epsilon3(rho, p), eta)
    assert not ok


def test_second_row_exact_equality():
    for rho, p in admissible_grid():
        eta = 0.9 * theory.eta_bar(1.0, rho, p)
        lhs = 2 * rho**2 * eta**2 * (1.0 / (2.0 * eta**2)) + 2 * rho**2
        assert abs(lhs - 3 * rho**2) <= 1e-12


def test_nonneg_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.random((4, 4)) + 1e-3
        got = theory.nonneg_spectral_radius(m)
        assert got == pytest.approx(max(abs(np.linalg.eigvals(m))), abs=1e-9)
    assert theory.nonneg_spectral_radius(np.zeros((3, 3))) == 0.0
    # reducible: the radius is the largest diagonal entry
    upper = np.array([[0.2, 5.0, 1.0], [0.0, 0.7, 3.0], [0.0, 0.0, 0.4]])
    assert theory.nonneg_spectral_radius(upper) == pytest.approx(0.7, rel=1e-12)
    with pytest.raises(ValueError):
        theory.nonneg_spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        theory.nonneg_spectral_radius(np.ones((2, 3)))


def test_spectral_radius_is_the_perron_root_of_each_certificate_matrix():
    # for any positive v, min_i (Cv)_i / v_i <= d(C) <= max_i (Cv)_i / v_i
    # (Collatz-Wielandt); at the Perron vector the bracket closes
    for rho, p in admissible_grid():
        for lip in (1.0, 10.0):
            eta = 0.99 * theory.eta_bar(lip, rho, p)
            c, _, _ = theory.lmi_matrix(eta, rho, p, lip)
            vals, vecs = np.linalg.eig(c)
            v = np.abs(vecs[:, np.argmax(np.abs(vals))].real)
            ratios = (c @ v) / v
            d_c = theory.nonneg_spectral_radius(c)
            assert ratios.min() * (1.0 - 1e-12) <= d_c <= ratios.max() * (1.0 + 1e-12)


def test_complexity_scales_linearly_in_accuracy():
    counts = theory.complexity_estimate(0.05, 1e-3, 2.0, 0.4, 5, 100, 0.5, [2] * 5)
    halved = theory.complexity_estimate(0.05, 5e-4, 2.0, 0.4, 5, 100, 0.5, [2] * 5)
    assert halved == tuple(2 * c for c in counts)


def test_complexity_zero_gap_zero_iterations():
    its, grads, comms = theory.complexity_estimate(0.05, 1e-3, 0.0, 0.0, 5, 100, 0.5, [2] * 5)
    assert its == 0.0 and grads == 0.0 and comms == 0.0


def test_complexity_ring_communications():
    n = 8
    its, grads, comms = theory.complexity_estimate(0.02, 1e-2, 1.0, 0.1, n, 400, 0.3, [2] * n)
    assert comms == pytest.approx(its * 2 * n, rel=1e-15)
    assert grads == pytest.approx(its * (0.3 * 400 + 2 * n), rel=1e-15)


def test_build_report_admissible():
    rep = theory.build_report(0.4, 2.0, 0.95, n=6, total_samples=600, eta=None)
    assert rep.contraction_ok is True
    assert rep.dC <= 3 * 0.4**2 + 1e-12
    assert rep.C is not None and rep.eta_bar is not None
    assert not rep.notes
    import json

    data = json.loads(rep.to_json())
    assert data["p_lower"] == pytest.approx(theory.p_lower_bound(0.4), rel=1e-15)
    assert "eta_bar" in rep.to_text()


def test_build_report_below_admissible_probability():
    rep = theory.build_report(0.5, 3.5, 0.3, n=10, total_samples=32561, eta=0.1)
    assert rep.p_lower is not None
    assert rep.eta_bar is not None  # computed at the reference probability
    assert any("reference" in note for note in rep.notes)


def test_build_report_degenerate_radius():
    rep = theory.build_report(0.0, 1.0, 0.5, n=4, total_samples=100)
    assert rep.p_lower is None
    assert rep.notes
    rep2 = theory.build_report(0.9, 1.0, 0.5, n=4, total_samples=100)
    assert rep2.eta_bar is None
    assert any("1/3" in note for note in rep2.notes)


def test_report_text_pinned():
    rep = theory.build_report(
        0.3, 2.0, 0.8, n=5, total_samples=100, eta=0.01,
        neighbor_counts=[2] * 5, epsilon=1e-3, f_gap=1.0, r0=0.5,
    )
    assert rep.to_text() == "\n".join(
        [
            "rho             0.3",
            "L               2",
            "P               0.8",
            "n               5",
            "M               100",
            "p_lower         0.880687397709",
            "eps3            2.51898527005",
            "T               142.21113657",
            "eta_bar         0.00788757391008",
            "eta_tilde       0.00788757391008",
            "eta             0.01",
            "contraction_ok  yes",
            "dC              0.207292098388",
            "3*rho^2         0.27",
            "iterations      10900000",
            "gradient_evals  1133974631.75",
            "communications  109000000",
            "C:",
            "   1.975704746e-01   9.228088773e+00   1.417600000e+00",
            "   1.800000000e-05   1.800000000e-01   0.000000000e+00",
            "   1.692618658e-05   2.554320786e-01   1.350000000e-01",
            "baseline gradient complexity: O(v^2 / eps^2), v not computed",
            "note: P = 0.8 is not above the admissible bound 0.880687; "
            "step-size bounds computed at reference P = 0.940344",
            "note: step-size 0.01 exceeds the complexity-range cap 0.00788757; "
            "estimates are extrapolations",
        ]
    )


@pytest.mark.parametrize(
    "key, value, name",
    [
        ("p", 1.5, "P"),
        ("p", 1.0, "P"),
        ("p", 0.0, "P"),
        ("p", math.nan, "P"),
        ("rho", -0.5, "rho"),
        ("rho", math.nan, "rho"),
        ("rho", math.inf, "rho"),
        ("n", 0, "n"),
        ("total_samples", 0, "M"),
        ("total_samples", -5, "M"),
    ],
)
def test_build_report_rejects_invalid_inputs(key, value, name):
    args = dict(rho=0.4, lipschitz=1.0, p=0.95, n=4, total_samples=100)
    args[key] = value
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        theory.build_report(**args)
