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

import numpy as np
from numpy.polynomial import chebyshev as npcheb


class ConditioningError(ValueError):
    """An LP that cannot be certified at this size: the solver gives up on it
    or its duality gap is too wide."""


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


def best_uniform(f, interval, k: int, grid: int = 4097):
    """Discrete minimax fit of a degree-k polynomial to f on [a, b].

    Solves min_c max_i |p_c(x_i) - f(x_i)| as an LP on a Chebyshev grid, then
    returns (sup-error of the fitted candidate on a 10x finer grid, monomial
    coefficients).  `f` maps an array of points to the array of its values.
    """
    a, b = interval
    if not b > a:
        raise ValueError("need b > a")
    if grid < 8 * (k + 1):
        raise ValueError("grid too coarse for the requested degree")
    x = _cheb_grid(a, b, grid)
    y = np.asarray(f(x), dtype=float)
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
    yf = np.asarray(f(xf), dtype=float)
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
    `f` maps an array of points to the array of its values.
    """
    a, b = interval
    if not b > a:
        raise ValueError("need b > a")
    x = np.linspace(a, b, grid)
    y = np.asarray(f(x), dtype=float)
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
    yf = np.asarray(f(xf), dtype=float)
    r = np.abs(_eval_monomial(coef, xf) - yf)
    err = float(np.trapezoid(r, xf))
    return err, coef


def _gram_elimination(alpha, kmax: int) -> list:
    """Gaussian elimination, in exact rationals, of [G | b] for the basis
    g_i = eta^(i + (1+alpha)/2): G_ij = <g_i, g_j> = 1/(i+j+alpha+2) for
    i, j = 1..kmax and b_i = <g_0, g_i>.  Returns the rows [U_p | y_p], valid
    from the diagonal on; the leading k are degree k's, whose squared error is
    <g_0, g_0> - sum_{p<k} y_p^2 / U_pp.  A float alpha is an exact rational."""
    if not (-1 < alpha < 0):
        raise ValueError("alpha must lie in (-1, 0)")
    if kmax < 0:
        raise ValueError("k must be nonnegative")
    a = Fraction(alpha) + 2
    rows = [[1 / (i + j + a) for j in range(1, kmax + 1)] + [1 / (i + a)]
            for i in range(1, kmax + 1)]
    for p, pivot in enumerate(rows):
        for r in range(p + 1, kmax):
            # the trailing block stays symmetric, so row r's multiplier is
            # pivot[r] and only its entries from column r on are updated
            m, row = pivot[r] / pivot[p], rows[r]
            for j in range(r, kmax + 1):
                row[j] -= m * pivot[j]
    return rows


def _squared_errors(alpha, rows) -> list:
    # degree 0 is the plain float <g_0, g_0>, as the empty basis needs no solve
    errs, err2 = [1.0 / (alpha + 2)], 1 / (Fraction(alpha) + 2)
    for p, row in enumerate(rows):
        err2 -= row[-1] ** 2 / row[p]
        errs.append(float(err2))
    return errs


def weighted_l2_errors(alpha, kmax: int) -> list:
    """Squared best weighted-L2 errors of `best_weighted_l2` for k = 0..kmax,
    all from one elimination of the kmax x kmax Gram system."""
    return _squared_errors(alpha, _gram_elimination(alpha, kmax))


def best_weighted_l2(alpha, k: int):
    """Best weighted-L2 approximation of eta^((1+alpha)/2) by the basis
    eta^(i + (1+alpha)/2), i = 1..k, under the inner product
    <g_i, g_j> = integral_0^1 eta^(i+j+1+alpha) = 1/(i+j+alpha+2).

    Returns (squared error, basis coefficients).  The Gram matrix is
    Hilbert-like, so it is eliminated in exact rationals and the
    coefficients back-substituted before rounding to floats.
    """
    rows = _gram_elimination(alpha, k)
    c = [Fraction(0)] * k
    for p in reversed(range(k)):
        row = rows[p]
        c[p] = (row[-1] - sum(row[j] * c[j] for j in range(p + 1, k))) / row[p]
    return _squared_errors(alpha, rows)[-1], [float(ci) for ci in c]
