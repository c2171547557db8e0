"""Closed-form lower bounds on polynomial approximation error and the
iteration-complexity expressions built from them.

Everything here is a pure function of scalars.  The formulas are written in
cancellation-safe forms (e.g. u - sqrt(u^2-1) as 1/(u + sqrt(u^2-1))) so the
identity checks hold out to u ~ 1e6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProblemParams:
    """Scalar problem parameters shared by the bound formulas.

    alpha is the weight-distribution exponent in (-1, 0) of the smooth case;
    delta = 2*(alpha+1) + 2 is the equivalent exponent in (2, 4).
    """

    L: float = 1.0
    mu: float = 1.0
    n: int = 1
    R: float = 1.0
    lam: float = 0.0
    eps: float = 1e-3
    alpha: float = -0.5
    xstar: float = 0.0  # |x*| scale for the single-function bound

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    @property
    def delta(self) -> float:
        return 2 * (self.alpha + 1) + 2


def _safe_u_minus_root(u: float) -> float:
    # u - sqrt(u^2 - 1) without cancellation for large u
    return 1.0 / (u + math.sqrt(u * u - 1.0))


def _ratio_from_root(r: float) -> float:
    # (sqrt(r) - 1)/(sqrt(r) + 1) computed stably for r near 1 and r large
    s = math.sqrt(r)
    return (s - 1.0) / (s + 1.0)


def chebyshev_lb_inf(c: float, k: int) -> float:
    """Lower bound (c - sqrt(c^2-1))**k / (c^2 - 1) on the uniform-norm error
    of degree-k polynomial approximation of 1/(eta - c) on [-1, 1]."""
    if c <= 1:
        raise ValueError("c must exceed 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _safe_u_minus_root(c) ** k / (c * c - 1.0)


def maxnorm_lb(a: float, b: float, c: float, k: int) -> float:
    """Uniform-norm lower bound for approximating 1/(eta + c) on [a, b]:

        2(b-a)/((b+a+2c)^2 - (b-a)^2) * ((sqrt((b+c)/(a+c)) - 1)/(... + 1))**k
    """
    if not (b > a > 0):
        raise ValueError("need b > a > 0")
    if c <= -a:
        raise ValueError("need c > -a")
    if k < 0:
        raise ValueError("k must be nonnegative")
    try:  # (b+a+2c)^2 - (b-a)^2 overflows, or rounds to 0, where b/a is huge
        pref = 2 * (b - a) / ((b + a + 2 * c) ** 2 - (b - a) ** 2)
    except (OverflowError, ZeroDivisionError) as e:
        raise ValueError(f"the maxnorm prefactor is not finite at a={a!r}, b={b!r}") from e
    return pref * _ratio_from_root((b + c) / (a + c)) ** k


def l1_lb(L: float, mu: float, alpha: float, k: int) -> float:
    """L1 lower bound ((sqrt(r)-1)/(sqrt(r)+1))**k, r = (2a+L-mu)/(2a+mu-L),
    for approximating 1/(eta + alpha) on [-(L-mu)/2, (L-mu)/2] by degree k-1."""
    if not L > mu:
        raise ValueError("need L > mu")
    if not alpha > (L - mu) / 2:
        raise ValueError("need alpha > (L - mu)/2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    r = (2 * alpha + L - mu) / (2 * alpha + mu - L)
    return _ratio_from_root(r) ** k


def l2_weighted_lb(alpha: float, k: int) -> float:
    """Lower bound 1/(e^2 (k+2)^(2(alpha+1)+2)) on the weighted-L2 problem
    min over degree k-1 of integral_0^1 eta (s(eta) eta - 1)^2 eta^alpha."""
    if not (-1 < alpha < 0):
        raise ValueError("alpha must lie in (-1, 0)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return 1.0 / (math.e ** 2 * (k + 2) ** (2 * (alpha + 1) + 2))


def l2_weighted_exact(alpha: float, k: int) -> float:
    """Exact optimum of the weighted-L2 problem:

        (alpha + 2) * (prod_{j=1}^k j/(j + alpha + 1))^2 / (k + alpha + 2)^2

    (the Cauchy/Gram determinant ratio evaluated in closed form)."""
    if not (-1 < alpha < 0):
        raise ValueError("alpha must lie in (-1, 0)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    logprod = sum(math.log(j) - math.log(j + alpha + 1) for j in range(1, k + 1))
    return (alpha + 2) * math.exp(2 * logprod) / (k + alpha + 2) ** 2


def fsm_rate_envelope(kappa: float, n: int, k, prefactor: float = 1.0):
    """prefactor * ((sqrt(1+(kappa-1)/n) - 1)/(sqrt(1+(kappa-1)/n) + 1))**(k/n)."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = _ratio_from_root(1 + (kappa - 1) / n)
    k = np.asarray(k, dtype=float)
    out = prefactor * ratio ** (k / n)
    return float(out) if out.ndim == 0 else out


def fsm_envelope_prefactor(mu: float, L: float, n: int, R: float) -> float:
    """The appendix prefactor of the fsm envelope:
    (mu/2) (n R mu / (sqrt(2) (L - mu)))**2."""
    return (mu / 2) * (n * R * mu / (math.sqrt(2) * (L - mu))) ** 2


def rlm_rate_envelope(lam: float, n: int, k):
    """(1/2)(n lam/2)^2 ((sqrt(2/(lam n)+1) - 1)/(sqrt(2/(lam n)+1) + 1))**(2k/n)."""
    ratio = _ratio_from_root(2 / (lam * n) + 1)
    return 0.5 * (n * lam / 2) ** 2 * ratio ** (2 * np.asarray(k) / n)


def iteration_lb_from_rate(L: float, mu: float, alpha: float, c: float, eps: float) -> float:
    """Minimal k implied by eps >= c * ratio**k:
    (1/2) sqrt((L+alpha)/(mu+alpha) - 1) * (ln c + ln(1/eps)), clamped at 0."""
    if not (L > mu > 0) or alpha < 0 or c <= 0 or eps <= 0:
        raise ValueError("need L > mu > 0, alpha >= 0, c > 0, eps > 0")
    val = 0.5 * math.sqrt((L + alpha) / (mu + alpha) - 1.0) * (math.log(c) + math.log(1.0 / eps))
    return max(val, 0.0)


@dataclass(frozen=True)
class TheoremBound:
    value: float  # clamped at 0
    raw: float


def theorem_bounds(params: ProblemParams, which: str) -> TheoremBound:
    """Iteration-complexity lower bounds for the four problem families.

    which in {"toy", "fsm", "smooth", "rlm"}.  The expressions can be
    negative for easy eps; value is clamped at 0, raw is not.
    """
    p = params
    if which == "toy":
        if not (p.L > p.mu > 0 and p.xstar > 0):
            raise ValueError("toy bound needs L > mu > 0 and xstar > 0")
        raw = 0.25 * math.sqrt(p.kappa - 1) * (
            math.log(p.mu / 2)
            + 2 * math.log(p.xstar * (p.L - p.mu) / (2 * p.L))
            + math.log(1.0 / p.eps)
        )
    elif which == "fsm":
        if not (p.L > p.mu > 0 and p.n >= 1 and p.R > 0):
            raise ValueError("fsm bound needs L > mu > 0, n >= 1, R > 0")
        pref = p.n * p.R * p.mu / (math.sqrt(2) * (p.L - p.mu))
        poly_term = 0.25 * math.sqrt(p.n * (p.kappa - 1)) * (
            math.log(p.mu / 2) + 2 * math.log(pref) + math.log(1.0 / p.eps)
        )
        raw = max(float(p.n), poly_term)
    elif which == "smooth":
        if not (p.L > 0 and p.R > 0 and -1 < p.alpha < 0):
            raise ValueError("smooth bound needs L > 0, R > 0, alpha in (-1, 0)")
        raw = (p.L * p.R ** 2 * (p.alpha + 1) / (math.e ** 2 * p.eps)) ** (
            1.0 / (2 * p.alpha + 4)
        ) - 2.0
    elif which == "rlm":
        if not (p.n >= 1 and p.lam > 0):
            raise ValueError("rlm bound needs n >= 1, lam > 0")
        poly_term = 0.125 * math.sqrt(2 * p.n / p.lam) * (
            math.log(p.n ** 2 * p.lam ** 2 / 8) + math.log(1.0 / p.eps)
        )
        raw = max(p.n / 2.0, poly_term)
    else:
        raise ValueError(f"unknown bound family {which!r}")
    return TheoremBound(value=max(raw, 0.0), raw=raw)


def smooth_bound_delta_form(L: float, eps: float, delta: float, const: float = 1.0) -> float:
    """The (L*(delta-2)/eps)**(1/delta) packaging of the smooth-case bound.

    Exposed alongside theorem_bounds(..., "smooth"); the constant absorbed in
    the Omega() is not pinned down, so the two forms are not claimed to be
    numerically identical.
    """
    if not (2 < delta < 4):
        raise ValueError("delta must lie in (2, 4)")
    return const * (L * (delta - 2) / eps) ** (1.0 / delta)


def identity_checks(u: float, ks=(1, 2, 3, 4, 5, 6)) -> dict:
    """Residuals of the two technical identities at u.

    - algebraic: |(u - sqrt(u^2-1)) - (1 - sqrt((u-1)/(u+1)))/(1 + sqrt((u-1)/(u+1)))|
      with both sides computed in cancellation-safe form;
    - sgn_integral[k]: |numeric integral_{-1}^{1} sgn(sin(k arccos eta))/(u - eta) deta
      - 2 ln((z^k+1)/(z^k-1))|, z = u + sqrt(u^2 - 1).
    """
    from scipy import integrate  # only this check integrates; keep it off import

    if u <= 1:
        raise ValueError("u must exceed 1")
    s = math.sqrt((u - 1.0) / (u + 1.0))
    lhs = _safe_u_minus_root(u)
    rhs = (1.0 - s) / (1.0 + s)
    report = {"u": u, "algebraic": abs(lhs - rhs), "sgn_integral": {}}

    z = u + math.sqrt(u * u - 1.0)
    for k in ks:
        # sign changes of sin(k arccos eta) inside (-1,1) sit at cos(j*pi/k)
        breaks = sorted(math.cos(j * math.pi / k) for j in range(1, k))
        pieces = [-1.0] + breaks + [1.0]
        total = 0.0
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            mid = 0.5 * (lo + hi)
            sgn = math.copysign(1.0, math.sin(k * math.acos(mid)))
            val, _ = integrate.quad(lambda e: 1.0 / (u - e), lo, hi, limit=200)
            total += sgn * val
        zk = z ** k
        closed = 2.0 * math.log((zk + 1.0) / (zk - 1.0))
        report["sgn_integral"][k] = abs(total - closed)
    return report
