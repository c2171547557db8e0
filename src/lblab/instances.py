"""Parametrized hard-instance families: quadratic finite sums with
closed-form minimizers, plus the dual of the regularized linear-loss problem.

Matrices are stored structurally (a leading 2x2 block plus a diagonal tail)
with a dense materialization used by test oracles; the structural form is
what keeps the large-dimension benchmark runs cheap.  The structures'
products are written over any entries with arithmetic: floats, per-row
arrays (the batched engines) and exact polynomials (the symbolic tracer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Block2Diag:
    """Symmetric d x d matrix: [[h, e], [e, h]] on coordinates (0, 1),
    `tail` on the remaining diagonal, zeros elsewhere."""

    d: int
    h: float
    e: float
    tail: float

    def dense(self) -> np.ndarray:
        Q = np.diag(np.full(self.d, self.tail, dtype=float))
        Q[0, 0] = Q[1, 1] = self.h
        Q[0, 1] = Q[1, 0] = self.e
        return Q

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """Q w for a point w, or row by row for (rows, d) points with a
        per-row `e`.  `e` multiplies from the right, so a polynomial `e`
        meets the point's entries and never an array."""
        out = self.tail * w
        out[..., 0] = self.h * w[..., 0] + w[..., 1] * self.e
        out[..., 1] = w[..., 0] * self.e + self.h * w[..., 1]
        return out

    def diag(self, i: int) -> float:
        return self.h if i < 2 else self.tail

    def row_dot(self, i: int, w: np.ndarray) -> float:
        if i == 0:
            return self.h * w[0] + self.e * w[1]
        if i == 1:
            return self.e * w[0] + self.h * w[1]
        return self.tail * w[i]

    def eigvals(self):
        vals = [self.h + self.e, self.h - self.e]
        if self.d > 2:
            vals.append(self.tail)
        return sorted(vals)


@dataclass(frozen=True)
class DenseSym:
    Q: np.ndarray

    @property
    def d(self):
        return self.Q.shape[0]

    def dense(self) -> np.ndarray:
        return self.Q

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self.Q @ w

    def diag(self, i: int) -> float:
        return self.Q[i, i]

    def row_dot(self, i: int, w: np.ndarray) -> float:
        return self.Q[i] @ w

    def eigvals(self):
        return sorted(np.linalg.eigvalsh(self.Q))


@dataclass(frozen=True)
class QuadraticInstance:
    """Average of n quadratic components (1/2) w'Q_i w - q_i'w.

    mu and L certify the per-component spectral sandwich mu I <= Q_i <= L I.
    """

    components: tuple  # of (matrix structure, q vector)
    mu: float
    L: float
    minimizer: np.ndarray
    optimal_value: float

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return len(self.minimizer)

    def comp_grad(self, j: int, w: np.ndarray) -> np.ndarray:
        Q, q = self.components[j]
        return Q.matvec(w) - q

    def grad(self, w: np.ndarray) -> np.ndarray:
        g = np.zeros_like(w)
        for Q, q in self.components:
            g += Q.matvec(w) - q
        return g / self.n

    @cached_property
    def _terms(self):
        """(distinct, slot): the distinct (Q, q) pairs by identity, and for
        each component the index of its pair in `distinct`."""
        first, distinct, slot = {}, [], []
        for Q, q in self.components:
            key = (id(Q), id(q))
            if key not in first:
                first[key] = len(distinct)
                distinct.append((Q, q))
            slot.append(first[key])
        return tuple(distinct), tuple(slot)

    def value(self, w: np.ndarray) -> float:
        """Mean of the component values (1/2) w'Q_i w - q_i'w.

        Each distinct (Q, q) pair's term is computed once, and the n terms
        are then added in component order.  This is bit-identical to the
        plain loop over components: a pair that is the same objects gives
        the same float term, and the sum runs in the same order.
        """
        distinct, slot = self._terms
        terms = [0.5 * float(w @ Q.matvec(w)) - float(q @ w) for Q, q in distinct]
        tot = 0.0
        for i in slot:
            tot += terms[i]
        return tot / self.n

    def suboptimality(self, w: np.ndarray) -> float:
        return self.value(w) - self.optimal_value

    def mean_matrix(self) -> np.ndarray:
        A = np.zeros((self.d, self.d))
        for Q, _ in self.components:
            A += Q.dense()
        return A / self.n

    def mean_q(self) -> np.ndarray:
        s = np.zeros(self.d)
        for _, q in self.components:
            s += q
        return s / self.n


def _finish(comps, mu, L) -> QuadraticInstance:
    d = len(comps[0][1])
    A = np.zeros((d, d))
    s = np.zeros(d)
    for Q, q in comps:
        A += Q.dense()
        s += q
    A /= len(comps)
    s /= len(comps)
    w = np.linalg.solve(A, s)
    opt = 0.5 * float(w @ A @ w) - float(s @ w)
    return QuadraticInstance(tuple(comps), mu, L, w, opt)


def toy_instance(eta: float, mu: float, L: float) -> QuadraticInstance:
    """Scalar f_eta(w) = eta w^2/2 - w; minimizer 1/eta, value -1/(2 eta)."""
    if not (mu <= eta <= L):
        raise ValueError("eta must lie in [mu, L]")
    comp = (DenseSym(np.array([[float(eta)]])), np.array([1.0]))
    return QuadraticInstance((comp,), mu, L, np.array([1.0 / eta]), -0.5 / eta)


def fsm_instance(etas, L: float, mu: float, R: float, d: int) -> QuadraticInstance:
    """n components sharing the linear term q = (R mu/sqrt2, R mu/sqrt2, 0, ...);
    component i carries the 2x2 block [[(L+mu)/2, eta_i], [eta_i, (L+mu)/2]]
    padded with diagonal mu.  Block eigenvalues (L+mu)/2 +- eta_i stay in
    [mu, L] exactly when |eta_i| <= (L-mu)/2."""
    etas = np.asarray(etas, dtype=float)
    if d < 2:
        raise ValueError("need d >= 2")
    if not L > mu > 0:
        raise ValueError("need L > mu > 0")
    half = (L - mu) / 2
    if np.any(np.abs(etas) > half + 1e-12):
        raise ValueError("|eta_i| must not exceed (L - mu)/2")
    h = (L + mu) / 2
    q = np.zeros(d)
    q[0] = q[1] = R * mu / math.sqrt(2)
    # equal etas (bit for bit, so -0.0 is not 0.0) share one component, which
    # `QuadraticInstance.value` then evaluates once
    shared = {}
    comps = [shared.setdefault(float(e).hex(), (Block2Diag(d, h, float(e), mu), q))
             for e in etas]
    inst = _finish(comps, mu, L)
    closed = fsm_minimizer(etas, L, mu, R, d)
    assert np.linalg.norm(inst.minimizer - closed) <= 1e-10 * max(1.0, np.linalg.norm(closed))
    return inst


def fsm_minimizer(etas, L: float, mu: float, R: float, d: int) -> np.ndarray:
    """Closed form: both leading coordinates R mu/(sqrt2 ((L+mu)/2 + mean eta))."""
    etas = np.asarray(etas, dtype=float)
    w = np.zeros(d)
    w[0] = w[1] = R * mu / (math.sqrt(2) * ((L + mu) / 2 + float(etas.mean())))
    return w


def fsm_minimizer_separation(n: int, kappa: float, R: float, j: int = 0) -> float:
    """Distance between the minimizers of the two parameter vectors that agree
    everywhere except coordinate j (one extreme vs the other):
    2R/|n(kappa+1)/(kappa-1) - n + 2|, which is >= 2R/(n+2) for kappa > 3."""
    if kappa <= 3:
        raise ValueError("separation bound needs kappa > 3")
    if not 0 <= j < n:
        raise ValueError("component index out of range")
    sep = 2 * R / abs(n * (kappa + 1) / (kappa - 1) - n + 2)
    assert sep >= 2 * R / (n + 2) - 1e-12
    return sep


def smooth_instance(eta: float, R: float, d: int, L: float) -> QuadraticInstance:
    """g_eta(x) = (eta/2)||x||^2 - R eta e_1'x; minimizer R e_1 for every eta."""
    if not 0 < eta <= L:
        raise ValueError("eta must lie in (0, L]")
    q = np.zeros(d)
    q[0] = R * eta
    comp = (DenseSym(np.eye(d) * eta), q)
    w = np.zeros(d)
    w[0] = R
    return QuadraticInstance((comp,), eta, eta, w, -0.5 * R * R * eta)


def nesterov_chain(d: int, L: float, mu: float) -> QuadraticInstance:
    """The classical chain quadratic: tridiagonal Hessian from
    w_1^2 + sum (w_i - w_{i+1})^2 - 2 w_1 plus a ridge, with the spectrum
    affinely rescaled so the extreme eigenvalues are exactly mu and L.
    (The scaling convention is ours; only the tridiagonal structure and the
    condition number matter to the benchmark.)"""
    if d < 2:
        raise ValueError("need d >= 2")
    if not L > mu > 0:
        raise ValueError("need L > mu > 0")
    M = np.diag(np.full(d, 2.0)) - np.diag(np.ones(d - 1), 1) - np.diag(np.ones(d - 1), -1)
    M[-1, -1] = 1.0
    ev = np.linalg.eigvalsh(M)
    lo, hi = ev[0], ev[-1]
    # a*M + b*I with spectrum exactly [mu, L]
    a = (L - mu) / (hi - lo)
    b = mu - a * lo
    Q = a * M + b * np.eye(d)
    q = np.zeros(d)
    q[0] = a  # the -2 w_1 term, scaled with M
    return _finish([(DenseSym(Q), q)], mu, L)


# ---------------------------------------------------------------------------
# Regularized loss minimization (dual side)


@dataclass(frozen=True)
class RlmInstance:
    """Dual of the regularized problem with unit-norm data pairs
    x = cos(psi) e_i + sin(psi) e_{i+1} and losses (w'x + 1)^2/2:

        D(alpha) = (1/2) alpha' Q_psi alpha - (1/n) 1'alpha,

    Q_psi block diagonal with 2x2 blocks (1/n)[[1+1/(lam n), sin psi_j/(lam n)],
    [sin psi_j/(lam n), 1+1/(lam n)]].  Note D itself is (1/n)-strongly convex;
    the associated 1-strong convexity statement applies to n*D.
    """

    psis: np.ndarray
    lam: float
    n: int

    @cached_property
    def blocks(self) -> np.ndarray:
        ln = self.lam * self.n
        s = np.sin(self.psis)
        return np.stack([(1 + 1 / ln) * np.ones_like(s), s / ln]) / self.n  # diag, off

    def q_dense(self) -> np.ndarray:
        diag, off = self.blocks
        Q = np.zeros((self.n, self.n))
        for j in range(self.n // 2):
            a, b = 2 * j, 2 * j + 1
            Q[a, a] = Q[b, b] = diag[j]
            Q[a, b] = Q[b, a] = off[j]
        return Q

    def data_matrix(self) -> np.ndarray:
        """Columns are the unit-norm data vectors in R^n."""
        X = np.zeros((self.n, self.n))
        for j in range(self.n // 2):
            a, b = 2 * j, 2 * j + 1
            c, s = math.cos(self.psis[j]), math.sin(self.psis[j])
            X[a, a] = 1.0
            X[a, b] = c
            X[b, b] = s
        return X

    def dual_value(self, alpha: np.ndarray) -> float:
        g = self.q_matvec(alpha)
        return 0.5 * float(alpha @ g) - float(alpha.sum()) / self.n

    @staticmethod
    def pair_matvec(diag, off, alpha: np.ndarray) -> np.ndarray:
        """Q alpha for Q block diagonal with 2x2 blocks [[diag_j, off_j],
        [off_j, diag_j]] on coordinates (2j, 2j+1)."""
        out = np.empty_like(alpha)
        a = alpha[..., 0::2]
        b = alpha[..., 1::2]
        out[..., 0::2] = diag * a + off * b
        out[..., 1::2] = off * a + diag * b
        return out

    def q_matvec(self, alpha: np.ndarray) -> np.ndarray:
        return self.pair_matvec(*self.blocks, alpha)

    def dual_grad(self, alpha: np.ndarray) -> np.ndarray:
        return self.q_matvec(alpha) - 1.0 / self.n

    def minimizer(self) -> np.ndarray:
        return rlm_dual_minimizer(self.psis, self.lam, self.n)

    @cached_property
    def optimal_value(self) -> float:
        return self.dual_value(self.minimizer())

    def suboptimality(self, alpha: np.ndarray) -> float:
        return self.dual_value(alpha) - self.optimal_value

    def primal_value(self, w: np.ndarray) -> float:
        X = self.data_matrix()
        r = X.T @ w + 1.0
        return 0.5 * float(r @ r) / self.n + 0.5 * self.lam * float(w @ w)


def rlm_instance(psis, lam: float, n: int) -> RlmInstance:
    if n % 2:
        raise ValueError("n must be even")
    if lam <= 0:
        raise ValueError("lam must be positive")
    psis = np.asarray(psis, dtype=float)
    if len(psis) != n // 2:
        raise ValueError("need one psi per coordinate pair")
    if np.any(np.abs(psis) > math.pi / 2 + 1e-12):
        raise ValueError("psi must lie in [-pi/2, pi/2]")
    return RlmInstance(psis, float(lam), int(n))


def rlm_dual_minimizer(psis, lam: float, n: int) -> np.ndarray:
    """Coordinate pairs 1/((lam n + 1)/(lam n) + sin(psi_j)/(lam n))."""
    psis = np.asarray(psis, dtype=float)
    ln = lam * n
    vals = 1.0 / ((ln + 1) / ln + np.sin(psis) / ln)
    return np.repeat(vals, 2)


def rlm_separation(lam: float, n: int) -> float:
    """||alpha*(psi_1) - alpha*(psi_2)|| for the all -pi/2 vector vs the same
    with one coordinate flipped to pi/2: exactly 2 sqrt2/(lam n + 2)."""
    return 2 * math.sqrt(2) / (lam * n + 2)
