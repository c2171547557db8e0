"""Exact rational polynomial arithmetic.

`MultiPoly` is the one kernel: a sparse exponent map holding integer
numerators over one shared denominator, which keeps its arithmetic exact
under any rational divisor while costing one gcd per result rather than one
per term.  `UniPoly` is its one-variable case, adding a dense coefficient
view and Horner evaluation at a scalar.  Exact coefficients keep the degree
bookkeeping exact: a floating-point representation would manufacture tiny
spurious terms and break the degree assertions made by the symbolic tracer.

`PolyVector` is a 1-d numpy object array of MultiPoly entries, so numpy's
elementwise arithmetic and the matrix structures of `instances` run on
polynomial iterates exactly as on float ones.

Also provides second-kind Chebyshev polynomials and the signed moments of
sgn(U_k), which are the orthogonality workhorse behind the uniform-norm
lower bounds.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

# Degree of the zero polynomial.  A sentinel (not -1) keeps max/+ arithmetic
# on degrees total.
NEG_INF = float("-inf")


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


class _Terms(Mapping):
    """Read-only view of a MultiPoly's terms: exponent tuple -> Fraction."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums, den):
        self._nums = nums
        self._den = den

    def __getitem__(self, exp) -> Fraction:
        return Fraction(self._nums[exp], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)

    def __repr__(self):
        return repr(dict(self.items()))


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> rational coefficient.

    The coefficients are integer numerators over one shared positive
    denominator, in lowest terms: the gcd of the denominator and all the
    numerators is 1.  The form is canonical, so equality compares it
    directly, and an arithmetic result costs one gcd instead of one per
    term.  Zero coefficients are never stored, and the terms keep their
    insertion order.  Total degree is the maximal sum of exponents over
    stored terms.
    """

    __slots__ = ("nvars", "_nums", "_den")

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for exp, c in (terms or {}).items():
            c = _frac(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for {self.nvars} variables")
            clean[exp] = clean.get(exp, Fraction(0)) + c
        clean = {e: c for e, c in clean.items() if c != 0}
        # the lcm of reduced denominators leaves the numerators coprime to it
        self._den = math.lcm(*(c.denominator for c in clean.values()))
        self._nums = {e: c.numerator * (self._den // c.denominator) for e, c in clean.items()}

    @classmethod
    def _new(cls, nvars, nums, den) -> "MultiPoly":
        """Unchecked constructor for arithmetic results: `nums` holds no zero
        and `den` > 0; the fraction is reduced here."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
        p = object.__new__(cls)
        p.nvars = nvars
        p._nums = nums
        p._den = den
        return p

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    @property
    def terms(self) -> Mapping:
        return _Terms(self._nums, self._den)

    @property
    def total_degree(self):
        if not self._nums:
            return NEG_INF
        return max(map(sum, self._nums))

    def degree_in(self, i: int):
        if not self._nums:
            return NEG_INF
        return max(e[i] for e in self._nums)

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get((0,) * self.nvars, 0), self._den)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("indeterminate-count mismatch")

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._nums.items())))

    def _combine(self, other, sign: int) -> "MultiPoly":
        """self + sign * other: self's terms in order, then other's new ones.
        A scalar other is the exact rational it is, as in `scale`."""
        if isinstance(other, (int, float, Fraction)):
            if not other:
                return self
            other = MultiPoly.constant(self.nvars, other)
        self._check(other)
        da, db = self._den, other._den
        g = math.gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        out = dict(self._nums) if ma == 1 else {e: n * ma for e, n in self._nums.items()}
        get = out.get
        for e, n in other._nums.items():
            out[e] = get(e, 0) + n * mb
        if 0 in out.values():
            out = {e: n for e, n in out.items() if n}
        return self._new(self.nvars, out, da * ma)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._new(self.nvars, {e: -n for e, n in self._nums.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        self._check(other)
        out = {}
        get = out.get
        for ea, na in self._nums.items():
            for eb, nb in other._nums.items():
                e = tuple(map(operator.add, ea, eb))
                out[e] = get(e, 0) + na * nb
        if 0 in out.values():
            out = {e: n for e, n in out.items() if n}
        return self._new(self.nvars, out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, r) -> "MultiPoly":
        r = _frac(r)
        num = r.numerator
        if not num:
            return self._new(self.nvars, {}, 1)
        return self._new(self.nvars, {e: n * num for e, n in self._nums.items()},
                         self._den * r.denominator)

    def __truediv__(self, r):
        # exact: scale by the rational reciprocal
        return self.scale(1 / _frac(r))

    def __call__(self, point):
        if len(point) != self.nvars:
            raise ValueError("point length != indeterminate count")
        # A Fraction times a float is float(c) * x, and n / den is float(c)
        # correctly rounded, so float points need no Fraction per term.
        # Float64 array coordinates run the same operations elementwise, so
        # each entry has the bits of the call at that entry.  Other points
        # take Fractions.
        nums, den = self._nums, self._den
        arrays = [x for x in point if isinstance(x, np.ndarray)]
        exact = not all(isinstance(x, (float, np.ndarray)) for x in point)
        acc = None
        for e, n in nums.items():
            t = Fraction(n, den) if exact else n / den
            for x, p in zip(point, e):
                for _ in range(p):
                    t = t * x
            acc = t if acc is None else acc + t
        if acc is None:
            acc = Fraction(0) if all(isinstance(x, (int, Fraction)) for x in point) else 0.0
        if arrays and not isinstance(acc, np.ndarray):  # no term read an array coordinate
            acc = np.full(np.broadcast_shapes(*(x.shape for x in arrays)), acc)
        return acc

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms})"


class UniPoly(MultiPoly):
    """Univariate polynomial in eta: a one-variable MultiPoly.

    coeffs[i] is the coefficient of eta**i, with no trailing zeros.  The
    arithmetic and equality are MultiPoly's; a result keeps the class of its
    left operand.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(1, {(i,): c for i, c in enumerate(coeffs)})

    degree = MultiPoly.total_degree

    def _dense(self) -> list:
        """Numerators of eta**0 .. eta**degree over the shared denominator."""
        get = self._nums.get
        return [get((i,), 0) for i in range(self.degree + 1)] if self._nums else []

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._dense())

    def __call__(self, x):
        # Horner; exact when x is a Fraction or int.  At a float or float64
        # point each coefficient is n / den, float(c) correctly rounded, so
        # the loop runs in floats; at a float64 array it runs elementwise,
        # each entry with the bits of the call at that entry.
        if isinstance(x, (float, np.ndarray)):
            coeffs = [n / self._den for n in self._dense()]
            if isinstance(x, float):
                x = float(x)
        else:
            coeffs = self.coeffs
        acc = x * 0 + 0  # +0, as MultiPoly's zero: x * 0 alone is -0.0 at x < 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


class PolyVector(np.ndarray):
    """A 1-d object array of MultiPoly entries sharing an indeterminate count.

    Numpy's elementwise arithmetic applies the MultiPoly operators, so the
    matrix structures in `instances` and the answer procedures in `oracles`
    run on it unchanged, with exact coefficients.  The degree measurements
    are here; the budget they are checked against lives with the tracer.
    """

    def __new__(cls, entries):
        entries = list(entries)
        if entries:
            nv = entries[0].nvars
            if any(e.nvars != nv for e in entries):
                raise ValueError("mixed indeterminate counts")
        vec = np.empty(len(entries), dtype=object).view(cls)
        vec[:] = entries
        return vec

    @classmethod
    def zeros(cls, d: int, nvars: int) -> "PolyVector":
        return cls([MultiPoly(nvars, {})] * d)

    @property
    def entries(self) -> list:
        return list(self)

    @property
    def nvars(self):
        return self[0].nvars if len(self) else 0

    def max_total_degree(self):
        degs = [e.total_degree for e in self]
        return max(degs) if degs else NEG_INF

    def variable_degree_sum(self):
        """Sum over variables of the largest degree any entry has in it."""
        total = 0
        for v in range(self.nvars):
            dv = max((e.degree_in(v) for e in self), default=NEG_INF)
            if dv != NEG_INF:
                total += dv
        return total

    def __truediv__(self, r):
        # the float reciprocal, coerced like every other constant
        return self * (1.0 / r)


# ---------------------------------------------------------------------------
# Chebyshev polynomials of the second kind


def chebyshev_U(k: int) -> UniPoly:
    """U_k via the recurrence U_0 = 1, U_1 = 2*eta, U_{k+1} = 2*eta*U_k - U_{k-1}."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    u_prev = UniPoly([1])
    if k == 0:
        return u_prev
    u = UniPoly([0, 2])
    two_eta = UniPoly([0, 2])
    for _ in range(k - 1):
        u_prev, u = u, two_eta * u - u_prev
    return u


def sgn_chebyshev_moment(j: int, k: int) -> float:
    """Integral of eta**j * sgn(U_k(eta)) over [-1, 1].

    Computed from the sign pattern, not by sampling: sgn(U_k) is piecewise
    constant between consecutive zeros cos(m*pi/(k+1)), equal to +1 on the
    rightmost piece and alternating leftward.  The antiderivative
    eta**(j+1)/(j+1) is evaluated at the breakpoints in doubles, which
    agree with a 50-digit evaluation to 2e-15 for k <= 40, j <= 44.
    For j <= k-1 the result vanishes (sign-pattern orthogonality).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = [math.cos(math.pi * m / (k + 1)) for m in range(k + 2)]
    # pts runs from +1 down to -1; piece m lies on (pts[m+1], pts[m])
    total = 0.0
    sign = 1
    for m in range(k + 1):
        hi, lo = pts[m], pts[m + 1]
        total += sign * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# Serialization: {"vars": n, "terms": [{"exp": [...], "num": "...", "den": "..."}]}


def poly_to_json(p) -> str:
    """The bytes `json.dumps` prints for the dict above, written as text.

    Each coefficient is in lowest terms, as a Fraction prints.  Over a
    power-of-two denominator the gcd is 2**min(trailing zeros of n,
    log2 den), so one shift reduces a term; other denominators take
    `math.gcd`.  Each distinct reduced denominator is printed once.
    """
    nums, den = p._nums, p._den
    dyadic = den & (den - 1) == 0
    log2 = den.bit_length() - 1
    den_text = {}
    terms = []
    for e in sorted(nums):
        n = nums[e]
        if dyadic:
            s = min((n & -n).bit_length() - 1, log2)
            n, d = n >> s, den >> s
        else:
            g = math.gcd(n, den)
            n, d = n // g, den // g
        d_text = den_text.get(d)
        if d_text is None:
            d_text = den_text[d] = str(d)
        terms.append(f'{{"exp": [{", ".join(map(str, e))}], "num": "{n}", "den": "{d_text}"}}')
    return f'{{"vars": {p.nvars}, "terms": [{", ".join(terms)}]}}'


def poly_from_json(s: str) -> MultiPoly:
    d = json.loads(s)
    terms = {
        tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in d["terms"]
    }
    return MultiPoly(d["vars"], terms)
