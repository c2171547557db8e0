"""Symbolic execution of oblivious schedules, on the per-call loop `run` uses,
which refuses a negative count, the other oracle family and L-BFGS.

The iterates are polynomials in the instance parameters (eta per component
for the quadratic families, sin psi per pair for the dual family).  The
tracer answers through the same structures as the numeric engines: the
quadratic families' components come from the instances' own builders
(`toy_components`, `smooth_components`, `fsm_components`) called with
MultiPoly indeterminates for the parameters, and the dual family's
(diag, off) pair blocks are built here.  All of them are read by the
`oracles` answer arithmetic on PolyVector points.  The builders' float
constants stay floats; MultiPoly's operators coerce each one to the exact
binary rational it is, so the degree accounting is exact.  Each oracle
answer can raise the degree by at most one, and the tracer asserts the
matching degree budget after every call:

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

from fractions import Fraction

import numpy as np

from .instances import fsm_components, smooth_components, toy_components
from .oracles import ComponentOracle, PairOracle, SingleRunEngine, answer
from .polynomials import MultiPoly, PolyVector, UniPoly
from .optimizers import Schedule, _drive, make_optimizer, make_rng

FAMILIES = ("toy", "fsm", "smooth", "rlm")


class DegreeViolation(AssertionError):
    pass


class _PolyComponents(ComponentOracle, SingleRunEngine):
    """A quadratic family's (Q, q) components with polynomial entries."""

    def __init__(self, components, nvars):
        super().__init__(len(components), PolyVector.zeros(len(components[0][1]), nvars))
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


def _sym_engine(family, n=1, d=1, L=1.0, mu=1.0, R=1.0, lam=0.01):
    """The family's oracle structures with an indeterminate per parameter."""
    eta = MultiPoly.var(1, 0)
    if family == "toy":
        return _PolyComponents(toy_components(eta), 1)
    if family == "smooth":
        return _PolyComponents(smooth_components(eta, R, d), 1)
    if family == "fsm":
        etas = [MultiPoly.var(n, j) for j in range(n)]
        return _PolyComponents(fsm_components(etas, L, mu, R, d), n)
    if family == "rlm":
        if n % 2:
            raise ValueError("n must be even")
        # not shared with `RlmInstance.blocks` (sin psi/ln/n there, fl(1/(ln n))
        # times sin psi here): either form moves pinned rlm envelope or trace bytes
        ln = float(lam) * n
        blocks = ([(1 + 1 / ln) / n] * (n // 2),
                  [MultiPoly.var(n // 2, p) * (1 / (ln * n)) for p in range(n // 2)])
        return _PolyPairs(blocks, 1 / n)
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
    engine = _sym_engine(family, n=n, d=d, L=L, mu=mu, R=R, lam=lam)
    engine.rng = make_rng(seed)

    def ask(point, query):
        out = answer(engine, point, query)
        _check_budget(out, family, engine.log.total)
        return out

    state, _ = _drive(schedule, engine, ask,
                      lambda w: _check_budget(w, family, engine.log.total), k)
    return PolyVector(state["w"])


def trace_gd_toy(k: int, L) -> UniPoly:
    """Gradient descent with step 1/L on f_eta(w) = eta w^2/2 - w, traced
    from w = 0 with the step held exactly: w <- (1 - eta/L) w + 1/L, k times."""
    p = trace_oblivious(make_optimizer("gd", L=L, step=1 / Fraction(L)), "toy", k, L=L)[0]
    return UniPoly([p.terms.get((i,), 0) for i in range(k + 1)])


def fig2_data(L: float, mu: float, k_max: int = 4, grid: int = 1025):
    """Iterate polynomials of GD and AGD on the scalar family, tabulated on
    [mu, L] against the target 1/eta.

    Returns (header, rows): header is
    eta, gd_k1..gd_k{k_max}, agd_k1..agd_k{k_max}, target.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    gd_polys = [trace_gd_toy(k, L) for k in range(1, k_max + 1)]
    agd = make_optimizer("agd", L=L, mu=mu)
    agd_polys = [trace_oblivious(agd, "toy", k, L=L, mu=mu)[0] for k in range(1, k_max + 1)]
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
