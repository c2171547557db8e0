"""Brute-force best-approximation solvers.

These are the independent oracles that sandwich the closed-form lower bounds
in `lblab.bounds`: solve the discretized best-approximation problem, then
report the candidate's error on a much finer grid.  The reported number is an
upper bound on nothing and a lower bound on nothing per se, but it is always
>= the continuous optimum up to the fine-grid discretization of the
candidate itself, which keeps "analytic lower bound <= brute force" checks
free of false failures.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np
from numpy.polynomial import chebyshev as npcheb


_DPS = 60  # mpmath working precision of the weighted-L2 Gram solves


class ConditioningError(ValueError):
    """A solve that cannot be certified at this size: an LP the solver gives
    up on or whose duality gap is too wide, or a Gram matrix too
    ill-conditioned to factor."""


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog` with HiGHS, imported on the first solve: only
    the LP solvers need scipy.optimize, and importing it takes longer than
    most commands take to run.  Presolve is off: on these dense LPs it cost
    more than the simplex (the one-row degree-0 L1 dual took 0.6 s with it and
    0.05 s without on a 2-core machine) and changed no objective."""
    from scipy.optimize import linprog as solve
    return solve(*args, method="highs", options={"presolve": False}, **kwargs)


def _cheb_grid(a: float, b: float, m: int) -> np.ndarray:
    """m Chebyshev-distributed points on [a, b], endpoints included."""
    j = np.arange(m)
    x = np.cos(np.pi * j / (m - 1))  # 1 .. -1
    return 0.5 * (a + b) + 0.5 * (b - a) * x[::-1]


def _design(x: np.ndarray, a: float, b: float, k: int) -> np.ndarray:
    # Chebyshev basis on [a,b]; far better LP conditioning than monomials
    t = (2 * x - (a + b)) / (b - a)
    return npcheb.chebvander(t, k)


def _to_monomial(ccoef: np.ndarray, a: float, b: float) -> np.ndarray:
    # coefficients of sum c_i T_i((2x-(a+b))/(b-a)) in powers of x
    p = npcheb.Chebyshev(ccoef, domain=[a, b]).convert(kind=np.polynomial.Polynomial)
    return p.coef

def _eval_monomial(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(x, coef)


def _sample(f, x: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except Exception:
        pass
    return np.asarray([f(v) for v in x], dtype=float)


def best_uniform(f, interval, k: int, grid: int = 4097):
    """Discrete minimax fit of a degree-k polynomial to f on [a, b].

    Solves min_c max_i |p_c(x_i) - f(x_i)| as an LP on a Chebyshev grid, then
    returns (sup-error of the fitted candidate on a 10x finer grid, monomial
    coefficients).
    """
    a, b = interval
    if not b > a:
        raise ValueError("need b > a")
    if grid < 8 * (k + 1):
        raise ValueError("grid too coarse for the requested degree")
    x = _cheb_grid(a, b, grid)
    y = _sample(f, x)
    if not np.all(np.isfinite(y)):
        raise ValueError("f must be finite on the grid")
    V = _design(x, a, b, k)
    m, nc = V.shape
    # variables: [c_0..c_k, t]; minimize t s.t. -t <= V c - y <= t
    A_ub = np.block([[V, -np.ones((m, 1))], [-V, -np.ones((m, 1))]])
    b_ub = np.concatenate([y, -y])
    cost = np.zeros(nc + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (nc + 1))
    if not res.success:
        raise ConditioningError(f"minimax LP failed: {res.message}")
    coef = _to_monomial(res.x[:nc], a, b)
    xf = _cheb_grid(a, b, 10 * grid)
    yf = _sample(f, xf)
    err = float(np.max(np.abs(_eval_monomial(coef, xf) - yf)))
    return err, coef


def best_l1(f, interval, k: int, grid: int = 8193):
    """Trapezoid-discretized L1 fit of a degree-k polynomial to f on [a, b].

    Solves the dual of min_c sum_i w_i |p_c(x_i) - f(x_i)| on a uniform grid
    with trapezoid weights w: maximize y.lam subject to V^T lam = 0 and
    |lam_i| <= w_i.  The Chebyshev coefficients are read from the equality
    marginals, and the duality gap certifies each solve.  Returns (trapezoid
    L1 error of the candidate on a 10x finer grid, monomial coefficients).
    Pass k = -1 to force the zero polynomial (an empty candidate set P_{-1}).
    """
    a, b = interval
    if not b > a:
        raise ValueError("need b > a")
    x = np.linspace(a, b, grid)
    y = _sample(f, x)
    if not np.all(np.isfinite(y)):
        raise ValueError("f must be finite on the grid")
    w = np.full(grid, (b - a) / (grid - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    if k < 0:
        coef = np.zeros(1)
    else:
        if grid < 8 * (k + 1):
            raise ValueError("grid too coarse for the requested degree")
        V = _design(x, a, b, k)
        res = linprog(-y, A_eq=V.T, b_eq=np.zeros(k + 1), bounds=np.column_stack([-w, w]))
        if not res.success:
            raise ConditioningError(f"L1 LP failed: {res.message}")
        ccoef = -res.eqlin.marginals
        primal, dual = float(w @ np.abs(V @ ccoef - y)), -res.fun
        if abs(primal - dual) > 1e-9 * max(primal, abs(dual)):
            raise ConditioningError(f"L1 LP duality gap too large: primal {primal!r}, dual {dual!r}")
        coef = _to_monomial(ccoef, a, b)
    xf = np.linspace(a, b, 10 * grid)
    yf = _sample(f, xf)
    r = np.abs(_eval_monomial(coef, xf) - yf)
    err = float(np.trapezoid(r, xf))
    return err, coef


def _gram_cholesky(alpha, kmax: int):
    """(g00, L, z) at the current mpmath precision for the basis
    g_i = eta^(i + (1+alpha)/2) under <g_i, g_j> = 1/(i+j+alpha+2): L is the
    Cholesky factor of the kmax x kmax Gram matrix of g_1..g_kmax and
    z = L^-1 b with b_i = <g_0, g_i>.  The leading k x k block of L and the
    first k entries of z are those of degree k, so its squared error is
    g00 - sum_{i<k} z_i^2."""
    if not (-1 < alpha < 0):
        raise ValueError("alpha must lie in (-1, 0)")
    if kmax < 0:
        raise ValueError("k must be nonnegative")
    if kmax > 12:
        raise ConditioningError("Gram matrix too ill-conditioned beyond k = 12")
    if isinstance(alpha, Fraction):  # mpf takes no Fraction; the division rounds once
        al = mpmath.mpf(alpha.numerator) / alpha.denominator
    else:
        al = mpmath.mpf(alpha)
    G = mpmath.matrix(kmax, kmax)
    for i in range(1, kmax + 1):
        for j in range(1, kmax + 1):
            G[i - 1, j - 1] = 1 / (i + j + al + 2)
    L = mpmath.cholesky(G)
    z = mpmath.matrix(kmax, 1)
    for i in range(kmax):  # forward substitution
        b = 1 / (i + 1 + al + 2)
        z[i] = (b - mpmath.fdot((L[i, j], z[j]) for j in range(i))) / L[i, i]
    return 1 / (al + 2), L, z


def _squared_errors(alpha, g00, z) -> list:
    # degree 0 is the plain float <g_0, g_0>, as the empty basis needs no solve
    errs, err2 = [1.0 / (alpha + 2)], g00
    for zi in z:
        err2 -= zi * zi
        errs.append(float(err2))
    return errs


def weighted_l2_errors(alpha, kmax: int) -> list:
    """Squared best weighted-L2 errors of `best_weighted_l2` for k = 0..kmax,
    all from one Cholesky factorization of the kmax x kmax Gram matrix."""
    with mpmath.workdps(_DPS):
        g00, _, z = _gram_cholesky(alpha, kmax)
        return _squared_errors(alpha, g00, z)


def best_weighted_l2(alpha, k: int):
    """Best weighted-L2 approximation of eta^((1+alpha)/2) by the basis
    eta^(i + (1+alpha)/2), i = 1..k, under the inner product
    <g_i, g_j> = integral_0^1 eta^(i+j+1+alpha) = 1/(i+j+alpha+2).

    Returns (squared error, basis coefficients).  The Gram matrix is
    Hilbert-like; it is factored by Cholesky at `_DPS` digits and the
    coefficients back-substituted, refused beyond k = 12.
    """
    with mpmath.workdps(_DPS):
        g00, L, z = _gram_cholesky(alpha, k)
        c = mpmath.mp.U_solve(L.T, z)
        return _squared_errors(alpha, g00, z)[-1], [float(ci) for ci in c]
