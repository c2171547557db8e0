"""Exact rational polynomial arithmetic.

`MultiPoly` is the one kernel: a sparse exponent map holding integer
numerators over one shared denominator, which keeps its arithmetic exact
under any rational divisor while costing one gcd per result rather than one
per term.  Each term's exponent tuple is packed into one int key, a
fixed-width field per variable with variable 0 most significant, so a
product of terms adds two ints and the keys sort as the tuples do; every
exponent must stay below EXP_LIMIT = 2**15, and the constructor or a
product that would reach it raises ValueError rather than wrap into the
next field.  `UniPoly` is its one-variable case, adding a dense coefficient
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

import functools
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


EXP_BITS = 15
EXP_LIMIT = 1 << EXP_BITS  # every exponent is below this


@functools.cache
def _layout(nvars: int) -> "_Layout":
    return _Layout(nvars)


class _Layout:
    """The key fields for one indeterminate count, variable 0 most significant.

    A field has EXP_BITS bits for the exponent and at least one spare bit
    above them, enough that the sum of two exponents does not carry into
    the next field and that the sum of all nvars exponents stays below
    2**width - 1.  Since 2**width is 1 mod 2**width - 1, a key's residue
    mod 2**width - 1 is then its term's total degree.
    """

    __slots__ = ("width", "shifts", "field", "over")

    def __init__(self, nvars):
        self.width = EXP_BITS + max(nvars.bit_length(), 1)
        self.shifts = tuple(self.width * i for i in reversed(range(nvars)))
        self.field = (1 << self.width) - 1  # also the modulus of the total degree
        # the lowest spare bit of every field: a sum of two exponents below
        # EXP_LIMIT is at least EXP_LIMIT exactly when it sets that bit
        self.over = sum(EXP_LIMIT << s for s in self.shifts)

    def pack(self, exp) -> int:
        if len(exp) != len(self.shifts) or not all(0 <= e < EXP_LIMIT for e in exp):
            raise ValueError(f"bad exponent tuple {exp} for {len(self.shifts)} variables: "
                             f"each exponent lies in [0, {EXP_LIMIT})")
        key = 0
        for e in exp:
            key = key << self.width | e
        return key

    def unpack(self, key) -> tuple:
        return tuple([key >> s & self.field for s in self.shifts])


class _Terms(Mapping):
    """Read-only view of a MultiPoly's terms: exponent tuple -> Fraction."""

    __slots__ = ("_nums", "_den", "_layout")

    def __init__(self, nums, den, layout):
        self._nums = nums
        self._den = den
        self._layout = layout

    def __getitem__(self, exp) -> Fraction:
        try:
            key = self._layout.pack(tuple(map(operator.index, exp)))
        except (TypeError, ValueError):
            raise KeyError(exp) from None
        return Fraction(self._nums[key], self._den)

    def __iter__(self):
        return map(self._layout.unpack, self._nums)

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

    Each term is stored under its exponent tuple packed into one int key
    (see `_Layout`), so a product of terms adds two ints rather than two
    tuples; `terms` is the exponent-tuple view.  Every exponent is below
    EXP_LIMIT = 2**15: the constructor and a product that would reach it
    raise ValueError.  `_cap` bounds the total degree from above (a
    product's is the sum of its factors'), so a product whose cap is below
    EXP_LIMIT needs no look at its keys.
    """

    __slots__ = ("nvars", "_nums", "_den", "_cap")

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        layout = _layout(self.nvars)
        clean = {}
        for exp, c in (terms or {}).items():
            c = _frac(c)
            if c == 0:
                continue
            key = layout.pack(tuple(int(e) for e in exp))
            clean[key] = clean.get(key, Fraction(0)) + c
        clean = {k: c for k, c in clean.items() if c != 0}
        # the lcm of reduced denominators leaves the numerators coprime to it
        self._den = math.lcm(*(c.denominator for c in clean.values()))
        self._nums = {k: c.numerator * (self._den // c.denominator) for k, c in clean.items()}
        self._cap = max(map(layout.field.__rmod__, self._nums), default=0)

    @classmethod
    def _new(cls, nvars, nums, den, cap) -> "MultiPoly":
        """Unchecked constructor for arithmetic results: `nums` holds no zero,
        `den` > 0 and `cap` bounds the total degree; the fraction is reduced
        here.  `nums` may be shared with another polynomial, since no method
        mutates it after this."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        p = object.__new__(cls)
        p.nvars = nvars
        p._nums = nums
        p._den = den
        p._cap = cap
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
        return _Terms(self._nums, self._den, _layout(self.nvars))

    @property
    def total_degree(self):
        if not self._nums:
            return NEG_INF
        return max(map(_layout(self.nvars).field.__rmod__, self._nums))

    def degree_in(self, i: int):
        if not self._nums:
            return NEG_INF
        layout = _layout(self.nvars)
        shift = layout.shifts[i]
        return max(map((layout.field << shift).__and__, self._nums)) >> shift

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(0, 0), self._den)

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
        out = dict(self._nums) if ma == 1 else {k: n * ma for k, n in self._nums.items()}
        get = out.get
        if mb == 1:
            for k, n in other._nums.items():
                out[k] = get(k, 0) + n
        elif mb == -1:
            for k, n in other._nums.items():
                out[k] = get(k, 0) - n
        else:
            for k, n in other._nums.items():
                out[k] = get(k, 0) + n * mb
        if 0 in out.values():
            out = {k: n for k, n in out.items() if n}
        return self._new(self.nvars, out, da * ma, max(self._cap, other._cap))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._new(self.nvars, {k: -n for k, n in self._nums.items()}, self._den,
                         self._cap)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        self._check(other)
        a, b = self._nums, other._nums
        if len(a) == 1 or len(b) == 1:
            # a one-term factor adds one key to the other's keys, so no two
            # collide and no product is zero; the terms come in the order
            # the double loop below would give them
            (k1, n1), = (a if len(a) == 1 else b).items()
            many = b if len(a) == 1 else a
            if n1 == 1:
                out = {k + k1: n for k, n in many.items()}
            else:
                out = {k + k1: n * n1 for k, n in many.items()}
        else:
            out = {}
            get = out.get
            for ka, na in a.items():
                for kb, nb in b.items():
                    k = ka + kb
                    out[k] = get(k, 0) + na * nb
            if 0 in out.values():
                out = {k: n for k, n in out.items() if n}
        cap = self._cap + other._cap
        if cap >= EXP_LIMIT and any(map(_layout(self.nvars).over.__and__, out)):
            raise ValueError(f"a product has an exponent of at least {EXP_LIMIT}")
        return self._new(self.nvars, out, self._den * other._den, cap)

    __rmul__ = __mul__

    def scale(self, r) -> "MultiPoly":
        r = _frac(r)
        num = r.numerator
        if not num:
            return self._new(self.nvars, {}, 1, 0)
        nums = self._nums if num == 1 else {k: n * num for k, n in self._nums.items()}
        return self._new(self.nvars, nums, self._den * r.denominator, self._cap)

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
        unpack = _layout(self.nvars).unpack
        arrays = [x for x in point if isinstance(x, np.ndarray)]
        exact = not all(isinstance(x, (float, np.ndarray)) for x in point)
        acc = None
        for k, n in nums.items():
            t = Fraction(n, den) if exact else n / den
            for x, p in zip(point, unpack(k)):
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
        """Numerators of eta**0 .. eta**degree over the shared denominator;
        with one variable a term's key is its exponent."""
        get = self._nums.get
        return [get(i, 0) for i in range(self.degree + 1)] if self._nums else []

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
    `math.gcd`.  Each distinct reduced denominator is printed once.  The
    keys' integer order is the exponent tuples' order.
    """
    nums, den = p._nums, p._den
    unpack = _layout(p.nvars).unpack
    dyadic = den & (den - 1) == 0
    log2 = den.bit_length() - 1
    den_text = {}
    terms = []
    for k in sorted(nums):
        n = nums[k]
        if dyadic:
            s = min((n & -n).bit_length() - 1, log2)
            n, d = n >> s, den >> s
        else:
            g = math.gcd(n, den)
            n, d = n // g, den // g
        d_text = den_text.get(d)
        if d_text is None:
            d_text = den_text[d] = str(d)
        exp = ", ".join(map(str, unpack(k)))
        terms.append(f'{{"exp": [{exp}], "num": "{n}", "den": "{d_text}"}}')
    return f'{{"vars": {p.nvars}, "terms": [{", ".join(terms)}]}}'


def polys_to_json_lines(polys) -> str:
    """`poly_to_json` of each polynomial, one per line, in order.  Each
    distinct polynomial is serialized once and its line repeated."""
    done = []  # (polynomial, line)
    lines = []
    for p in polys:
        for q, line in done:
            if q == p:
                break
        else:
            line = poly_to_json(p) + "\n"
            done.append((p, line))
        lines.append(line)
    return "".join(lines)


def poly_from_json(s: str) -> MultiPoly:
    d = json.loads(s)
    terms = {
        tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in d["terms"]
    }
    return MultiPoly(d["vars"], terms)
