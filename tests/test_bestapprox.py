import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lblab.bestapprox import (ConditioningError, best_l1, best_uniform,
                              best_weighted_l2, weighted_l2_errors)
from lblab.bounds import chebyshev_lb_inf, l1_lb, l2_weighted_exact, maxnorm_lb


def inv(x):
    return 1.0 / x


def test_uniform_constant_fit_of_reciprocal():
    # best constant for 1/eta on [1, 4] is (1 + 1/4)/2 = 5/8, error 3/8
    err, coef = best_uniform(inv, (1, 4), 0)
    assert err == pytest.approx(3 / 8, rel=1e-6)
    assert coef[0] == pytest.approx(5 / 8, rel=1e-6)
    assert err >= maxnorm_lb(1, 4, 0, 0) - 1e-9


def test_uniform_exact_representability():
    err, coef = best_uniform(lambda x: 2 * x ** 2 - 3 * x + 1, (0, 2), 2)
    assert err <= 1e-9
    assert coef == pytest.approx([1, -3, 2], abs=1e-8)


def test_uniform_respects_shifted_lower_bound():
    # approximating 1/(eta - c) on [-1, 1] with c = -2, i.e. 1/(eta + 2)
    for k in range(4):
        err, _ = best_uniform(lambda x: 1 / (x + 2), (-1, 1), k)
        assert err >= chebyshev_lb_inf(2.0, k) - 1e-9


def test_uniform_monotone_in_k():
    errs = [best_uniform(inv, (1, 4), k)[0] for k in range(6)]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_uniform_grid_refinement_stable():
    e1, _ = best_uniform(inv, (1, 4), 3, grid=2049)
    e2, _ = best_uniform(inv, (1, 4), 3, grid=4097)
    assert abs(e1 - e2) / e2 < 1e-4


def test_uniform_rejects_bad_input():
    with pytest.raises(ValueError):
        best_uniform(inv, (4, 1), 2)
    with pytest.raises(ValueError):
        best_uniform(inv, (1, 4), 10, grid=32)


def test_l1_empty_candidate_set():
    # against the zero polynomial the L1 error is just int_1^4 deta/eta = ln 4
    err, coef = best_l1(inv, (1, 4), -1)
    assert err == pytest.approx(math.log(4), rel=1e-5)
    assert np.all(coef == 0)


def test_l1_zero_target():
    err, _ = best_l1(lambda x: np.zeros_like(np.asarray(x, dtype=float)), (1, 4), 2)
    assert err <= 1e-9


def test_l1_respects_lower_bound():
    c = 2.5  # with [mu, L] = [1, 4] this makes the rate ratio 1/3
    half = 1.5  # target lives on the centered interval [-(L-mu)/2, (L-mu)/2]
    for k in range(1, 5):
        err, _ = best_l1(lambda x: 1 / (x + c), (-half, half), k - 1)
        assert err >= l1_lb(4, 1, c, k) - 1e-9


def test_l1_matches_markov_interpolant():
    # A. A. Markov: the best L1 fit of degree k-1 to 1/(x + c) on [-h, h]
    # interpolates at the zeros h cos(j pi / (k + 1)) of U_k, j = 1..k, so
    # its fine-grid error pins the LP to the continuous optimum
    c, half = 2.5, 1.5
    f = lambda x: 1 / (x + c)
    xf = np.linspace(-half, half, 10 * 8193)
    for k in range(1, 9):
        nodes = half * np.cos(np.pi * np.arange(1, k + 1) / (k + 1))
        p = np.polynomial.Polynomial.fit(nodes, f(nodes), k - 1)
        markov = np.trapezoid(np.abs(p(xf) - f(xf)), xf)
        err, _ = best_l1(f, (-half, half), k - 1)
        assert markov * (1 - 1e-12) <= err <= markov * (1 + 1e-5), (k, err, markov)


def test_l1_uncertified_degree_is_a_conditioning_error():
    # on the 8193-point grid the degree-9 dual LP misses the 1e-9 duality-gap
    # certificate; the refusal is a ValueError, so the CLI exits 3
    with pytest.raises(ConditioningError, match="duality gap"):
        best_l1(lambda x: 1 / (x + 2.5), (-1.5, 1.5), 9)


def test_l1_monotone_in_k():
    errs = [best_l1(inv, (1, 4), k)[0] for k in range(-1, 5)]
    assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))


def test_weighted_l2_matches_closed_form():
    for alpha in (-0.9, -0.5, -0.1):
        for k in range(9):
            err2, _ = best_weighted_l2(alpha, k)
            assert err2 == pytest.approx(l2_weighted_exact(alpha, k), rel=1e-9)


def test_weighted_l2_base_cases():
    err2, coefs = best_weighted_l2(-0.5, 0)
    assert err2 == pytest.approx(1 / 1.5)
    assert coefs == []
    err2, _ = best_weighted_l2(-0.5, 1)
    assert err2 == pytest.approx(0.10666666666, rel=1e-8)
    # degree 0 is the float 1/(alpha + 2), one ulp above the rounded
    # high-precision value at alpha = -0.05
    assert best_weighted_l2(-0.05, 0)[0] == weighted_l2_errors(-0.05, 2)[0] == 1 / 1.95


def test_weighted_l2_past_degree_12_and_bad_input():
    # the exact elimination has no degree cap: degrees 13..40 match the
    # closed form, and best_weighted_l2 gives degree 40's error
    errs = weighted_l2_errors(-0.5, 40)
    for k in range(13, 41):
        assert errs[k] == pytest.approx(l2_weighted_exact(-0.5, k), rel=1e-12), k
    err2, coefs = best_weighted_l2(-0.5, 40)
    assert err2 == errs[40]
    assert len(coefs) == 40
    for solve in (best_weighted_l2, weighted_l2_errors):
        with pytest.raises(ValueError):
            solve(0.0, 2)
        with pytest.raises(ValueError):
            solve(-0.5, -1)


@pytest.mark.parametrize("alpha", (-0.999, -0.9, -0.5, -1 / 3, -0.1, -0.001), ids=str)
def test_weighted_l2_errors_match_closed_form_to_degree_40(alpha):
    for k, err2 in enumerate(weighted_l2_errors(alpha, 40)):
        assert err2 == pytest.approx(l2_weighted_exact(alpha, k), rel=1e-12), k


ALPHAS = (-0.9, -0.7, -0.5, -0.3, -0.1, Fraction(-1, 3))


def _lu_weighted_l2(alpha, k):
    """Reference for degree k: its own k x k Gram system solved by LU at 60
    digits, err^2 = g00 - c . rhs; degree 0 is the float 1/(alpha + 2)."""
    if k == 0:
        return 1.0 / (alpha + 2), []
    with mpmath.workdps(60):
        if isinstance(alpha, Fraction):
            al = mpmath.mpf(alpha.numerator) / alpha.denominator
        else:
            al = mpmath.mpf(alpha)
        G = mpmath.matrix(k, k)
        rhs = mpmath.matrix(k, 1)
        for i in range(1, k + 1):
            rhs[i - 1] = 1 / (i + al + 2)
            for j in range(1, k + 1):
                G[i - 1, j - 1] = 1 / (i + j + al + 2)
        c = mpmath.lu_solve(G, rhs)
        err2 = 1 / (al + 2) - sum(c[i] * rhs[i] for i in range(k))
        return float(err2), [float(ci) for ci in c]


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_weighted_l2_errors_equal_per_degree_solves(alpha):
    # one factorization gives every degree's error, bit for bit the per-degree
    # LU solve's, and best_weighted_l2 gives the same error and coefficients
    errs = weighted_l2_errors(alpha, 12)
    assert len(errs) == 13
    for k, err2 in enumerate(errs):
        ref_err2, ref_coefs = _lu_weighted_l2(alpha, k)
        assert err2 == ref_err2, k
        assert best_weighted_l2(alpha, k) == (ref_err2, ref_coefs), k


def test_weighted_l2_fraction_alpha():
    # -1/2 is exact in binary, so the Fraction and float paths agree exactly
    assert weighted_l2_errors(Fraction(-1, 2), 8) == weighted_l2_errors(-0.5, 8)
    for k, err2 in enumerate(weighted_l2_errors(Fraction(-1, 3), 8)):
        assert err2 == pytest.approx(l2_weighted_exact(-1 / 3, k), rel=1e-9)


@pytest.mark.parametrize("alpha", (-0.9, Fraction(-1, 3)), ids=str)
def test_weighted_l2_coefficients_solve_normal_equations(alpha):
    # sum_j <g_i, g_j> c_j = <g_i, g_0> for i = 1..k, checked in exact rationals
    a = Fraction(alpha)
    for k in (1, 4, 8):
        _, coefs = best_weighted_l2(alpha, k)
        assert len(coefs) == k
        c = [Fraction(x) for x in coefs]
        for i in range(1, k + 1):
            terms = [cj / (i + j + a + 2) for j, cj in enumerate(c, start=1)]
            residual = sum(terms) - 1 / (i + a + 2)
            assert abs(residual) <= 1e-12 * sum(abs(t) for t in terms), (k, i)
