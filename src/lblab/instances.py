"""Parametrized hard-instance families: quadratic finite sums with
closed-form minimizers, plus the dual of the regularized linear-loss problem.

Matrices are stored structurally (a leading 2x2 block plus a diagonal tail)
with a dense materialization used by test oracles; the structural form is
what keeps the large-dimension benchmark runs cheap.  The structures'
products are written over any entries with arithmetic: floats, per-row
arrays (a grid that `stack_rows` stacks into one instance, on (rows, d)
points) and exact polynomials (the symbolic tracer).  They read entry i of
a point as `w.T[i]`, which is the entry on object arrays too.
Every batched grid, quadratic or dual, becomes rows in `stack_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
            return self.h * w.T[0] + self.e * w.T[1]
        if i == 1:
            return self.e * w.T[0] + self.h * w.T[1]
        return self.tail * w.T[i]

    def eigvals(self):
        vals = [self.h + self.e, self.h - self.e]
        if self.d > 2:
            vals.append(self.tail)
        return sorted(vals)


def row_dots(X, Y):
    """x @ y over the last axis, per row.  The stacked matmul calls BLAS dot
    once per row, the kernel `x @ y` calls on two vectors, so each row has
    the bits of that product; two vectors skip the stacking, which costs
    more than the product on a run's per-call path."""
    if X.ndim == Y.ndim == 1:
        return X @ Y
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class DenseSym:
    """A symmetric matrix Q, or a (rows, d, d) stack of them."""

    Q: np.ndarray

    @property
    def d(self):
        return self.Q.shape[-1]

    def dense(self) -> np.ndarray:
        return self.Q

    def matvec(self, w: np.ndarray) -> np.ndarray:
        # one gemv per row, the kernel `Q @ w` calls on a single vector
        return (self.Q @ w[..., None])[..., 0]

    def diag(self, i: int) -> float:
        return self.Q.T[i, i]

    def row_dot(self, i: int, w: np.ndarray) -> float:
        return row_dots(self.Q[..., i, :], w)

    def eigvals(self):
        return sorted(np.linalg.eigvalsh(self.Q))


@dataclass(frozen=True)
class QuadraticInstance:
    """Average of n quadratic components (1/2) w'Q_i w - q_i'w.

    mu and L certify the per-component spectral sandwich mu I <= Q_i <= L I.
    An instance from `stack_rows` holds one instance per row: its entries,
    `minimizer` (rows, d) and `optimal_value` (rows,) have one value per row.
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
        return self.minimizer.shape[-1]

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
        """(distinct, slot): the (Q, q) pairs whose entries differ, and for
        each component the index of its pair in `distinct`.  Pairs are keyed
        on the bytes of the structure's fields and of q, so 0.0 and -0.0
        stay apart."""
        first, distinct, slot = {}, [], []
        for Q, q in self.components:
            key = (type(Q), *(np.asarray(v).tobytes() for v in vars(Q).values()),
                   np.asarray(q).tobytes())
            if key not in first:
                first[key] = len(distinct)
                distinct.append((Q, q))
            slot.append(first[key])
        return tuple(distinct), tuple(slot)

    def value(self, w: np.ndarray) -> float:
        """Mean of the component values (1/2) w'Q_i w - q_i'w, per row.

        Each distinct (Q, q) pair's term is computed once, and the n terms
        are then added in component order.  This is bit-identical to the
        plain loop over components: bit-identical entries give the same
        float term, and the sum runs in the same order.
        """
        distinct, slot = self._terms
        terms = [0.5 * row_dots(w, Q.matvec(w)) - row_dots(q, w) for Q, q in distinct]
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
    inst = QuadraticInstance(tuple(comps), mu, L, np.zeros(len(comps[0][1])), 0.0)
    A, s = inst.mean_matrix(), inst.mean_q()
    w = np.linalg.solve(A, s)
    return replace(inst, minimizer=w, optimal_value=0.5 * float(w @ A @ w) - float(s @ w))


# The component builders below take float parameters (the instance factories)
# or MultiPoly indeterminates (the symbolic tracer); the other constants stay
# floats, which MultiPoly's operators read as the rationals they are.


def toy_components(eta) -> list:
    """The one component of f_eta(w) = eta w^2/2 - w."""
    return [(DenseSym(np.array([[eta]])), np.array([1.0]))]


def toy_instance(eta: float, mu: float, L: float) -> QuadraticInstance:
    """Scalar f_eta(w) = eta w^2/2 - w; minimizer 1/eta, value -1/(2 eta)."""
    if not (mu <= eta <= L):
        raise ValueError("eta must lie in [mu, L]")
    return QuadraticInstance(tuple(toy_components(float(eta))), mu, L,
                             np.array([1.0 / eta]), -0.5 / eta)


def fsm_components(etas, L: float, mu: float, R: float, d: int) -> list:
    """One component per eta_i: the 2x2 block [[(L+mu)/2, eta_i],
    [eta_i, (L+mu)/2]] padded with diagonal mu, and the shared linear term
    q = (R mu/sqrt2, R mu/sqrt2, 0, ...)."""
    if d < 2:
        raise ValueError("need d >= 2")
    h = (L + mu) / 2
    q = np.zeros(d)
    q[0] = q[1] = R * mu / math.sqrt(2)
    return [(Block2Diag(d, h, e, mu), q) for e in etas]


def fsm_instance(etas, L: float, mu: float, R: float, d: int) -> QuadraticInstance:
    """The n components of `fsm_components`.  Block eigenvalues
    (L+mu)/2 +- eta_i stay in [mu, L] exactly when |eta_i| <= (L-mu)/2."""
    etas = np.asarray(etas, dtype=float)
    comps = fsm_components(etas.tolist(), L, mu, R, d)
    if not L > mu > 0:
        raise ValueError("need L > mu > 0")
    half = (L - mu) / 2
    if np.any(np.abs(etas) > half + 1e-12):
        raise ValueError("|eta_i| must not exceed (L - mu)/2")
    # at a huge L the mean system's sums overflow: refused here, not warned
    try:
        with np.errstate(over="raise"):
            inst = _finish(comps, mu, L)
            closed = fsm_minimizer(etas, L, mu, R, d)
    except FloatingPointError:
        raise ValueError(f"the mean system overflows float arithmetic at L/mu = {L / mu:g}") from None
    if not np.linalg.norm(inst.minimizer - closed) <= 1e-10 * max(1.0, np.linalg.norm(closed)):
        raise ValueError("the solved minimizer disagrees with the closed form "
                         f"at L/mu = {L / mu:g}")
    return inst


def stack_rows(instances, seeds: int = 1):
    """One instance whose row g*seeds + s is instances[g]: every batched
    engine reads its rows, entries and per-row optimum from it.

    A grid of `RlmInstance`s of one lam and n stacks into one whose psis
    are (rows, n/2).  Components whose structures are all `Block2Diag` with
    one h, tail and q (the fsm family) keep that form, with a per-row
    off-diagonal entry `e`; a grid of any other structures becomes
    `DenseSym` components over a (rows, d, d) stack with a (rows, d) q,
    whose rows round as `Q @ w`.  Block components of unlike h, tail or q
    are refused: the dense form would multiply them as gemv does, not as
    `Block2Diag.matvec`.
    """
    instances = list(instances)
    if len({(type(inst), inst.n, inst.d) for inst in instances}) != 1:
        raise ValueError("a batch needs one or more instances of one kind and shape")

    def per_row(per_instance):
        return np.repeat(np.asarray(per_instance), seeds, axis=0)

    first = instances[0]
    if isinstance(first, RlmInstance):
        if len({inst.lam for inst in instances}) != 1:
            raise ValueError("a batch of RlmInstances needs one lam")
        return RlmInstance(per_row([inst.psis for inst in instances]), first.lam, first.n)
    comps = [inst.components for inst in instances]
    Q0, q0 = comps[0][0]
    if any(isinstance(Q, Block2Diag) for c in comps for Q, _ in c):
        if not all(isinstance(Q, Block2Diag) and (Q.h, Q.tail) == (Q0.h, Q0.tail)
                   and np.array_equal(q, q0) for c in comps for Q, q in c):
            raise ValueError("a batch of Block2Diag components needs one h, tail and q")
        e = per_row([[Q.e for Q, _ in c] for c in comps]).T.copy()  # (n, rows)
        stacked = [(Block2Diag(Q0.d, Q0.h, ej, Q0.tail), q0) for ej in e]
    else:
        stacked = [(DenseSym(per_row([c[j][0].dense() for c in comps])),
                    per_row([c[j][1] for c in comps])) for j in range(len(comps[0]))]
    return QuadraticInstance(tuple(stacked), min(inst.mu for inst in instances),
                             max(inst.L for inst in instances),
                             per_row([inst.minimizer for inst in instances]),
                             per_row([inst.optimal_value for inst in instances]))


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
    if not sep >= 2 * R / (n + 2) - 1e-12:
        raise AssertionError(f"separation {sep!r} is below 2R/(n+2)")
    return sep


def smooth_components(eta, R: float, d: int) -> list:
    """The one component of g_eta(x) = (eta/2)||x||^2 - R eta e_1'x."""
    return [(DenseSym(np.eye(d) * eta), np.array([R * eta] + [0.0] * (d - 1)))]


def smooth_instance(eta: float, R: float, d: int, L: float) -> QuadraticInstance:
    """g_eta(x) = (eta/2)||x||^2 - R eta e_1'x; minimizer R e_1 for every eta."""
    if not 0 < eta <= L:
        raise ValueError("eta must lie in (0, L]")
    w = np.zeros(d)
    w[0] = R
    return QuadraticInstance(tuple(smooth_components(float(eta), R, d)), eta, eta, w,
                             -0.5 * R * R * eta)


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

    From `stack_rows`, psis is (rows, n/2) and `blocks`, `minimizer()`,
    `optimal_value` and `dual_value` on (rows, n) points work per row.
    """

    psis: np.ndarray
    lam: float
    n: int

    @property
    def d(self) -> int:
        return self.n  # a dual point has one entry per data vector

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
        return 0.5 * row_dots(alpha, self.q_matvec(alpha)) - alpha.sum(axis=-1) / self.n

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
    """Coordinate pairs 1/((lam n + 1)/(lam n) + sin(psi_j)/(lam n)), per psi row."""
    psis = np.asarray(psis, dtype=float)
    ln = lam * n
    vals = 1.0 / ((ln + 1) / ln + np.sin(psis) / ln)
    return np.repeat(vals, 2, axis=-1)


def rlm_separation(lam: float, n: int) -> float:
    """||alpha*(psi_1) - alpha*(psi_2)|| for the all -pi/2 vector vs the same
    with one coordinate flipped to pi/2: exactly 2 sqrt2/(lam n + 2)."""
    return 2 * math.sqrt(2) / (lam * n + 2)
