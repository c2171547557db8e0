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


class ConditioningError(ValueError):
    pass


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first solve: only the LP
    solvers need scipy.optimize, and importing it takes longer than most
    commands take to run."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


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
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (nc + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"minimax LP failed: {res.message}")
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
        res = linprog(-y, A_eq=V.T, b_eq=np.zeros(k + 1), bounds=np.column_stack([-w, w]),
                      method="highs")
        if not res.success:
            raise RuntimeError(f"L1 LP failed: {res.message}")
        ccoef = -res.eqlin.marginals
        primal, dual = float(w @ np.abs(V @ ccoef - y)), -res.fun
        if abs(primal - dual) > 1e-9 * max(primal, abs(dual)):
            raise RuntimeError(f"L1 LP duality gap too large: primal {primal!r}, dual {dual!r}")
        coef = _to_monomial(ccoef, a, b)
    xf = np.linspace(a, b, 10 * grid)
    yf = _sample(f, xf)
    r = np.abs(_eval_monomial(coef, xf) - yf)
    err = float(np.trapezoid(r, xf))
    return err, coef


def best_weighted_l2(alpha: float, k: int, dps: int = 60):
    """Best weighted-L2 approximation of eta^((1+alpha)/2) by the basis
    eta^(i + (1+alpha)/2), i = 1..k, under the inner product
    <g_i, g_j> = integral_0^1 eta^(i+j+1+alpha) = 1/(i+j+alpha+2).

    Returns (squared error, basis coefficients).  The Gram matrix is
    Hilbert-like; assembled exactly in rationals where possible and solved in
    high precision, refused beyond k = 12.
    """
    if not (-1 < alpha < 0):
        raise ValueError("alpha must lie in (-1, 0)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > 12:
        raise ConditioningError("Gram matrix too ill-conditioned beyond k = 12")
    if k == 0:
        return 1.0 / (alpha + 2), []
    with mpmath.workdps(dps):
        al = mpmath.mpf(Fraction(alpha)) if isinstance(alpha, Fraction) else mpmath.mpf(alpha)
        G = mpmath.matrix(k, k)
        rhs = mpmath.matrix(k, 1)
        for i in range(1, k + 1):
            rhs[i - 1] = 1 / (i + al + 2)
            for j in range(1, k + 1):
                G[i - 1, j - 1] = 1 / (i + j + al + 2)
        c = mpmath.lu_solve(G, rhs)
        g00 = 1 / (al + 2)
        err2 = g00 - sum(c[i] * rhs[i] for i in range(k))
        return float(err2), [float(c[i]) for i in range(k)]
