"""Symbolic execution of oblivious schedules.

The iterates are polynomials in the instance parameters (eta per component
for the quadratic families, sin psi per pair for the dual family); every
numeric constant is coerced to an exact binary rational so the degree
accounting is exact.  Each oracle answer can raise the degree by at most
one, and the tracer asserts the matching degree budget after every call:

- quadratic families: total degree of every entry <= calls made;
- the single-function smooth family: additionally a zero constant term;
- dual family: per-coordinate degrees <= calls, and the per-variable degree
  budget (sum over variables of the largest degree any coordinate has in
  that variable) <= calls.  The literal sum of per-coordinate total degrees
  can exceed the call count under repeated exact coordinate steps inside one
  block, so the budget is measured per variable, which is the form the
  polynomial counting argument actually consumes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .oracles import CallLog, SingleRunEngine, answer
from .polynomials import MultiPoly, PolyVector, UniPoly
from .optimizers import Schedule, _drive, make_rng

FAMILIES = ("toy", "fsm", "smooth", "rlm")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(float(x))


class DegreeViolation(AssertionError):
    pass


class _SymEngine(SingleRunEngine):
    """Symbolic engine: points are PolyVectors of length d.  For the
    quadratic families each component matrix is affine in one
    indeterminate."""

    def __init__(self, n, d, nvars):
        self.n = n
        self.d = d
        self.nvars = nvars

    def zero(self) -> PolyVector:
        return PolyVector.zeros(self.d, self.nvars)

    def add_to_entry(self, w: PolyVector, i, t):
        return w.with_entry(i, w[i] + t)

    def grad_entry(self, j, i, w):
        return self.comp_grad(j, w)[i]


class ToySymEngine(_SymEngine):
    def __init__(self):
        super().__init__(n=1, d=1, nvars=1)
        self.eta = MultiPoly.var(1, 0)

    def comp_grad(self, j, w):
        return PolyVector([self.eta * w[0] - 1])

    def diag(self, j, i):
        raise NotImplementedError("toy component diagonal is the indeterminate itself")


class SmoothSymEngine(_SymEngine):
    def __init__(self, R, d):
        super().__init__(n=1, d=d, nvars=1)
        self.R = _frac(R)
        self.eta = MultiPoly.var(1, 0)

    def comp_grad(self, j, w):
        out = [self.eta * e for e in w.entries]
        out[0] = out[0] - self.eta * self.R
        return PolyVector(out)

    def diag(self, j, i):
        raise NotImplementedError("smooth component diagonal is the indeterminate itself")


class FsmSymEngine(_SymEngine):
    def __init__(self, n, d, L, mu, R):
        super().__init__(n=n, d=d, nvars=n)
        self.h = _frac((float(L) + float(mu)) / 2)
        self.mu = _frac(mu)
        q0 = _frac(float(R) * float(mu) / math.sqrt(2))
        self.q = [q0, q0] + [Fraction(0)] * (d - 2)

    def comp_grad(self, j, w):
        e = MultiPoly.var(self.nvars, j)
        out = [wi * self.mu for wi in w.entries]
        out[0] = w[0] * self.h + e * w[1]
        out[1] = e * w[0] + w[1] * self.h
        return PolyVector([o - qi if qi else o for o, qi in zip(out, self.q)])

    def diag(self, j, i):
        return self.h if i < 2 else self.mu


class RlmSymEngine(_SymEngine):
    """Dual family: coordinates paired, block entries affine in s_j = sin psi_j."""

    def __init__(self, n, lam):
        if n % 2:
            raise ValueError("n must be even")
        super().__init__(n=n, d=n, nvars=n // 2)
        ln = float(lam) * n
        self.dg = _frac((1 + 1 / ln) / n)
        self.off_coef = _frac(1 / (ln * n))
        self.lin = _frac(1 / n)

    def grad_entry(self, j, a):
        pair, pos = divmod(j, 2)
        other = a[2 * pair + 1 - pos]
        s = MultiPoly.var(self.nvars, pair)
        return a[j] * self.dg + s * other * self.off_coef - self.lin

    def diag(self, j):
        return self.dg


def _sym_engine(family, n=1, d=1, L=1.0, mu=1.0, R=1.0, lam=0.01):
    if family == "toy":
        return ToySymEngine()
    if family == "smooth":
        return SmoothSymEngine(R, d)
    if family == "fsm":
        return FsmSymEngine(n, d, L, mu, R)
    if family == "rlm":
        return RlmSymEngine(n, lam)
    raise ValueError(f"unknown family {family!r}")


def _check_budget(vec: PolyVector, family: str, calls: int):
    if family == "rlm":
        for e in vec.entries:
            if e.total_degree > calls:
                raise DegreeViolation(f"coordinate degree {e.total_degree} > {calls} calls")
        if vec.variable_degree_sum() > calls:
            raise DegreeViolation(
                f"per-variable degree budget {vec.variable_degree_sum()} > {calls} calls")
        return
    deg = vec.max_total_degree()
    if deg > calls:
        raise DegreeViolation(f"total degree {deg} > {calls} calls")
    if family == "smooth":
        for e in vec.entries:
            if e.constant_term() != 0:
                raise DegreeViolation("smooth-family iterate has a nonzero constant term")


def trace_oblivious(schedule: Schedule, family: str, k: int, seed: int = 0,
                    n: int = 1, d: int = 1, L: float = 1.0, mu: float = 1.0,
                    R: float = 1.0, lam: float = 0.01) -> PolyVector:
    """Run `schedule` for k oracle calls with polynomial-valued iterates.

    The degree budget is asserted on every answer and, as the measure of the
    per-call loop that `run` uses, on the tracked point after every step
    that called the oracle.  Returns the tracked point as a PolyVector with
    budget k.
    """
    if not schedule.oblivious:
        raise ValueError(f"{schedule.name} is not declared oblivious; refusing to trace")
    if k < 0:
        raise ValueError("k must be nonnegative")
    engine = _sym_engine(family, n=n, d=d, L=L, mu=mu, R=R, lam=lam)
    engine.rng = make_rng(seed)
    log = CallLog()

    def ask(point, query):
        out = answer(engine, point, query, log)
        _check_budget(out, family, log.total)
        return out

    state = _drive(schedule, engine, ask, lambda: log.total,
                   lambda w: _check_budget(w, family, log.total), np.empty(k + 1, object))
    return PolyVector(state["w"].entries, budget=k)


def trace_gd_toy(k: int, L) -> UniPoly:
    """Gradient descent with step 1/L on f_eta(w) = eta w^2/2 - w, traced
    symbolically from w = 0: w <- (1 - eta/L) w + 1/L, k times."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    Lf = Fraction(L)
    one_minus = UniPoly([1, -1 / Lf])
    w = UniPoly()
    invL = UniPoly([1 / Lf])
    for _ in range(k):
        w = one_minus * w + invL
    return w


def _minimizer_for(family, point, n=1, d=1, L=1.0, mu=1.0, R=1.0, lam=0.01):
    from . import instances
    if family == "toy":
        return np.array([1.0 / point[0]])
    if family == "smooth":
        w = np.zeros(d)
        w[0] = R
        return w
    if family == "fsm":
        return instances.fsm_minimizer(np.asarray(point, dtype=float), L, mu, R, d)
    if family == "rlm":
        # point carries the sin psi values directly
        ln = lam * n
        vals = 1.0 / ((ln + 1) / ln + np.asarray(point, dtype=float) / ln)
        return np.repeat(vals, 2)
    raise ValueError(f"unknown family {family!r}")


def trace_sup_error(tracevec: PolyVector, family: str, grid, n=1, d=1,
                    L=1.0, mu=1.0, R=1.0, lam=0.01) -> float:
    """max over the grid of || trace(point) - minimizer(point) ||.

    Grid entries are parameter tuples (one scalar per indeterminate)."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    worst = 0.0
    for point in grid:
        point = tuple(np.atleast_1d(point))
        vals = np.array([float(e(point)) for e in tracevec.entries])
        target = _minimizer_for(family, point, n=n, d=d, L=L, mu=mu, R=R, lam=lam)
        worst = max(worst, float(np.linalg.norm(vals - target)))
    return worst


def fig2_data(L: float, mu: float, k_max: int = 4, grid: int = 1025):
    """Iterate polynomials of GD and AGD on the scalar family, tabulated on
    [mu, L] against the target 1/eta.

    Returns (header, rows): header is
    eta, gd_k1..gd_k{k_max}, agd_k1..agd_k{k_max}, target.
    """
    from .optimizers import make_optimizer
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    gd_polys = [trace_gd_toy(k, L) for k in range(1, k_max + 1)]
    agd = make_optimizer("agd", L=L, mu=mu, n=1)
    agd_polys = []
    for k in range(1, k_max + 1):
        vec = trace_oblivious(agd, "toy", k, L=L, mu=mu)
        agd_polys.append(vec[0])
    etas = np.linspace(mu, L, grid)
    header = (["eta"] + [f"gd_k{k}" for k in range(1, k_max + 1)]
              + [f"agd_k{k}" for k in range(1, k_max + 1)] + ["target"])
    rows = []
    for eta in etas:
        row = [float(eta)]
        row += [float(p(eta)) for p in gd_polys]
        row += [float(p((eta,))) for p in agd_polys]
        row.append(1.0 / float(eta))
        rows.append(row)
    return header, rows
