"""Symbolic execution of oblivious schedules.

The iterates are polynomials in the instance parameters (eta per component
for the quadratic families, sin psi per pair for the dual family).  The
tracer answers through the same structures as the numeric engines, built
with exact entries: `Block2Diag` with the indeterminate as its
off-diagonal entry for the finite-sum family, `DenseSym(eta I)` for the
scalar and smooth families, and the dual family's (diag, off) pair blocks,
all read by the `oracles` answer arithmetic on PolyVector points.  Every
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

from .instances import Block2Diag, DenseSym
from .oracles import ComponentOracle, PairOracle, SingleRunEngine, answer
from .polynomials import MultiPoly, PolyVector, UniPoly
from .optimizers import Schedule, _drive, make_rng

FAMILIES = ("toy", "fsm", "smooth", "rlm")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(float(x))


class DegreeViolation(AssertionError):
    pass


class _PolyComponents(ComponentOracle, SingleRunEngine):
    """A quadratic family's (Q, q) components with exact entries."""

    def __init__(self, components, d, nvars):
        super().__init__(len(components), PolyVector.zeros(d, nvars))
        self.components = components

    def diag(self, j, i):
        dg = super().diag(j, i)
        if isinstance(dg, MultiPoly):
            raise ValueError("the exact coordinate step divides by the indeterminate, "
                             "so it has no polynomial trace")
        return dg


class _PolyPairs(PairOracle, SingleRunEngine):
    """The dual family's pair blocks, off-diagonal entries affine in sin psi."""

    def __init__(self, blocks, lin):
        pairs = len(blocks[0])
        super().__init__(2 * pairs, PolyVector.zeros(2 * pairs, pairs))
        self.blocks, self.lin = blocks, lin


def _objects(values) -> np.ndarray:
    return np.array(values, dtype=object)


def _sym_engine(family, n=1, d=1, L=1.0, mu=1.0, R=1.0, lam=0.01):
    """The family's oracle structures over exact entries; each constant is one
    float expression coerced to the rational it rounds to."""
    eta = MultiPoly.var(1, 0)
    if family == "toy":
        return _PolyComponents([(DenseSym(_objects([[eta]])), _objects([1]))], 1, 1)
    if family == "smooth":
        q = _objects([eta * _frac(R)] + [Fraction(0)] * (d - 1))
        return _PolyComponents([(DenseSym(np.eye(d, dtype=object) * eta), q)], d, 1)
    if family == "fsm":
        if d < 2:
            raise ValueError("need d >= 2")
        h = _frac((float(L) + float(mu)) / 2)
        q0 = _frac(float(R) * float(mu) / math.sqrt(2))
        q = _objects([q0, q0] + [Fraction(0)] * (d - 2))
        return _PolyComponents([(Block2Diag(d, h, MultiPoly.var(n, j), _frac(mu)), q)
                                for j in range(n)], d, n)
    if family == "rlm":
        if n % 2:
            raise ValueError("n must be even")
        ln = float(lam) * n
        off = _frac(1 / (ln * n))
        blocks = ([_frac((1 + 1 / ln) / n)] * (n // 2),
                  [MultiPoly.var(n // 2, p) * off for p in range(n // 2)])
        return _PolyPairs(blocks, _frac(1 / n))
    raise ValueError(f"unknown family {family!r}")


def _check_budget(vec: PolyVector, family: str, calls: int):
    if family == "rlm":
        for e in vec:
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
        for e in vec:
            if e.constant_term() != 0:
                raise DegreeViolation("smooth-family iterate has a nonzero constant term")


def trace_oblivious(schedule: Schedule, family: str, k: int, seed: int = 0,
                    n: int = 1, d: int = 1, L: float = 1.0, mu: float = 1.0,
                    R: float = 1.0, lam: float = 0.01) -> PolyVector:
    """Run `schedule` for k oracle calls with polynomial-valued iterates.

    The degree budget is asserted on every answer and, as the measure of the
    per-call loop that `run` uses, on the tracked point after every step
    that called the oracle.  Returns the tracked point as a PolyVector.
    """
    if not schedule.oblivious:
        raise ValueError(f"{schedule.name} is not declared oblivious; refusing to trace")
    if k < 0:
        raise ValueError("k must be nonnegative")
    engine = _sym_engine(family, n=n, d=d, L=L, mu=mu, R=R, lam=lam)
    engine.rng = make_rng(seed)

    def ask(point, query):
        out = answer(engine, point, query)
        _check_budget(out, family, engine.calls)
        return out

    state = _drive(schedule, engine, ask, lambda w: _check_budget(w, family, engine.calls),
                   np.empty(k + 1, object))
    return PolyVector(state["w"])


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
    agd = make_optimizer("agd", L=L, mu=mu)
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
