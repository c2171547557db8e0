import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lblab.polynomials import (NEG_INF, MultiPoly, PolyVector, UniPoly,
                               chebyshev_U, chebyshev_U_zeros, poly_from_json,
                               poly_to_json, sgn_chebyshev_moment)


raw_terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 2),
                            st.fractions(min_value=-5, max_value=5, max_denominator=6),
                            max_size=5)
small_multipoly = raw_terms.map(lambda t: MultiPoly(2, t))


@settings(max_examples=60, deadline=None)
@given(small_multipoly, small_multipoly, small_multipoly)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_difference_of_squares():
    eta = MultiPoly.var(1, 0)
    assert (eta + 1) * (eta - 1) == eta * eta - 1


def test_add_zero_identity():
    p = MultiPoly(2, {(1, 2): Fraction(3, 7)})
    assert p + MultiPoly(2, {}) == p


def test_zero_degree_sentinel():
    assert MultiPoly(3, {}).total_degree == NEG_INF
    assert UniPoly([]).degree == NEG_INF
    assert UniPoly([0, 0]).degree == NEG_INF
    assert max(NEG_INF, 4) == 4  # degree arithmetic stays total


def test_eval_examples():
    p = MultiPoly(1, {(2,): 1, (0,): -1})  # eta^2 - 1
    assert p((Fraction(2),)) == 3
    assert MultiPoly(1, {})((Fraction(5),)) == 0
    with pytest.raises(ValueError):
        p((1, 2))


def test_eval_gd_iterate_point():
    # two steps of gradient descent with L = 1 evaluated at eta = 1: 2 - 1 = 1
    p = UniPoly([2, -1])
    assert p(Fraction(1)) == 1


def test_unipoly_is_a_one_variable_multipoly():
    u = UniPoly([Fraction(1, 3), 0, Fraction(-5, 6)])
    assert u == MultiPoly(1, {(0,): Fraction(1, 3), (2,): Fraction(-5, 6)})
    assert u.coeffs == (Fraction(1, 3), Fraction(0), Fraction(-5, 6))
    assert u.degree == 2
    # MultiPoly's arithmetic keeps the left operand's class
    eta = UniPoly([0, 1])
    for q in (u + eta, u - 1, -u, u * eta, 3 * u, u.scale(Fraction(2, 3)), u / 7, u - u):
        assert type(q) is UniPoly
    assert u * eta == UniPoly([0, Fraction(1, 3), 0, Fraction(-5, 6)])
    assert (u - u).coeffs == ()
    # Horner at a float takes each coefficient as float(c)
    for x in (0.3, np.float64(-1.7), 2.0):
        want = 0.0
        for c in reversed(u.coeffs):
            want = want * float(x) + float(c)
        assert u(x) == want and type(u(x)) is float
    assert u(Fraction(2)) == Fraction(1, 3) - Fraction(10, 3)


def test_unipoly_zero_evaluates_to_zero():
    for zero in (UniPoly(), UniPoly([0, 0]), UniPoly([1]) - 1):
        assert zero.degree == NEG_INF
        assert zero(1.5) == 0.0 and type(zero(1.5)) is float
        assert zero(Fraction(3, 2)) == 0 and type(zero(Fraction(3, 2))) is Fraction


def test_indeterminate_count_mismatch():
    with pytest.raises(ValueError):
        MultiPoly(1, {(1,): 1}) + MultiPoly(2, {(1, 0): 1})


def test_chebyshev_small_cases():
    assert chebyshev_U(0) == UniPoly([1])
    assert chebyshev_U(2) == UniPoly([-1, 0, 4])
    assert chebyshev_U(3) == UniPoly([0, -4, 0, 8])
    for k in range(13):
        assert chebyshev_U(k).degree == k


def test_chebyshev_matches_sine_form():
    for k in range(13):
        p = chebyshev_U(k)
        for i in range(50):
            eta = -0.98 + i * (1.96 / 49)
            ref = math.sin((k + 1) * math.acos(eta)) / math.sqrt(1 - eta * eta)
            assert abs(float(p(eta)) - ref) <= 1e-10


def test_chebyshev_zeros():
    assert chebyshev_U_zeros(0) == []
    assert chebyshev_U_zeros(1) == pytest.approx([0.0])
    assert chebyshev_U_zeros(2) == pytest.approx([0.5, -0.5])
    z3 = chebyshev_U_zeros(3)
    assert z3 == pytest.approx([math.sqrt(2) / 2, 0.0, -math.sqrt(2) / 2])
    p3 = chebyshev_U(3)
    assert all(abs(float(p3(z))) < 1e-12 for z in z3)
    for k in range(1, 11):
        zs = chebyshev_U_zeros(k)
        assert all(x > y for x, y in zip(zs, zs[1:]))
        assert all(-1 < z < 1 for z in zs)


def test_sgn_orthogonality():
    # sgn(U_k) is orthogonal to every monomial of lower degree
    for k in range(1, 11):
        for j in range(k):
            assert abs(sgn_chebyshev_moment(j, k)) <= 1e-10


def test_sgn_moment_nonzero_at_degree_k():
    # at j = k the moment must not vanish, otherwise the check is vacuous
    assert abs(sgn_chebyshev_moment(2, 2)) > 1e-3


def test_sgn_moment_of_sign_function():
    # sgn(U_1(eta)) = sgn(eta), whose moments are 2/(j+1) for odd j and 0 for
    # even j: the nonzero values, in doubles, to within rounding
    for j in range(40):
        exact = 2 / (j + 1) if j % 2 else 0.0
        assert abs(sgn_chebyshev_moment(j, 1) - exact) <= 1e-15, j


def test_serialization_roundtrip():
    polys = [
        MultiPoly(2, {(0, 0): Fraction(-1, 3), (2, 1): Fraction(7, 2)}),
        MultiPoly(3, {(0, 0, 0): Fraction(-1, 3), (2, 1, 0): Fraction(7, 10),
                      (0, 0, 4): Fraction(5, 14), (1, 1, 1): 6}) / 9,
        # one term's numerator carries more factors of two than the denominator
        MultiPoly(3, {(0, 0, 0): Fraction(-3, 2 ** 70), (1, 0, 0): 12, (0, 2, 0): Fraction(5, 8)}),
        MultiPoly(3, {(0, 1, 0): -7}),
    ]
    for p in polys:
        s = poly_to_json(p)
        assert poly_from_json(s) == p
        # each term prints in lowest terms, as the Fraction does
        terms = json.loads(s)["terms"]
        assert len(terms) == len(p.terms)
        for t in terms:
            c = p.terms[tuple(t["exp"])]
            assert (t["num"], t["den"]) == (str(c.numerator), str(c.denominator))
    u = UniPoly([1, Fraction(1, 2)])
    assert poly_from_json(poly_to_json(u)) == u


def test_polyvector_degree_measures():
    x, y = MultiPoly.var(2, 0), MultiPoly.var(2, 1)
    v = PolyVector([x * x * y, y, MultiPoly(2, {})])
    assert v.max_total_degree() == 3
    # per-variable: max degree in x is 2, in y is 1
    assert v.variable_degree_sum() == 3
    assert len(v) == 3


# ---------------------------------------------------------------------------
# The shared-denominator representation behind the unchanged MultiPoly API


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_eval(terms, point):
    # the per-term Fraction evaluation: c * x * x * ..., summed in term order
    acc = None
    for e, c in terms.items():
        t = c
        for x, p in zip(point, e):
            for _ in range(p):
                t = t * x
        acc = t if acc is None else acc + t
    return acc


def _same_value(got, ref):
    # the same double, bit for bit; the reference of a lone constant stays a
    # Fraction, which float points evaluate to its correctly rounded float
    assert isinstance(got, float)
    assert float(got).hex() == float(ref).hex()


@settings(max_examples=80, deadline=None)
@given(raw_terms, raw_terms, st.fractions(min_value=-4, max_value=4, max_denominator=9))
def test_arithmetic_matches_fraction_dict_reference(ta, tb, r):
    a, b = MultiPoly(2, ta), MultiPoly(2, tb)
    ra = {e: c for e, c in ta.items() if c}
    rb = {e: c for e, c in tb.items() if c}
    # list equality also pins the term order, which evaluation sums in
    assert list(a.terms.items()) == list(ra.items())
    assert list((a + b).terms.items()) == list(_ref_add(ra, rb).items())
    assert list((a - b).terms.items()) == list(_ref_add(ra, rb, -1).items())
    assert list((a * b).terms.items()) == list(_ref_mul(ra, rb).items())
    assert list(a.scale(r).terms.items()) == [(e, c * r) for e, c in ra.items() if c * r]
    assert list((-a).terms.items()) == [(e, -c) for e, c in ra.items()]


def test_canonical_form_across_routes():
    p = MultiPoly(2, {(0, 0): Fraction(5, 4), (1, 0): -2, (0, 3): Fraction(1, 6)})
    routes = [(p / 3) * 3, p * Fraction(2, 6) * 3, (p + p) / 2, p * 7 - p * 6,
              (p / Fraction(10, 3)).scale(Fraction(10, 3)), p + MultiPoly(2, {}) * p]
    for q in routes:
        assert q == p
        assert hash(q) == hash(p)
    assert p * Fraction(2, 6) == p / 3
    assert hash(p * Fraction(2, 6)) == hash(p / 3)
    assert p - p == MultiPoly(2, {})
    assert hash(p - p) == hash(MultiPoly(2, {}))
    # a polynomial never equals a number, so equality agrees with hashing
    for const, c in ((MultiPoly.constant(1, 3), 3), (UniPoly([3]), 3),
                     (MultiPoly.constant(2, Fraction(1, 2)), Fraction(1, 2))):
        assert const != c
        assert len({const, c}) == 2


def test_exact_division_by_non_dyadic_values_round_trips():
    x, y = MultiPoly.var(2, 0), MultiPoly.var(2, 1)
    p = x * x * Fraction(3, 8) - y + Fraction(1, 5)
    for r in (3, Fraction(7, 3), Fraction(-11, 10), 0.1):
        q = p / r
        assert q * r == p
        for e, c in p.terms.items():
            assert q.terms[e] == c / Fraction(r)
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_constant_term_is_a_fraction():
    x = MultiPoly.var(2, 0)
    for p, want in ((x / 3 + Fraction(2, 6), Fraction(1, 3)), (x * 5, Fraction(0)),
                    (MultiPoly(2, {}), Fraction(0)), (MultiPoly.constant(2, 4) / 6, Fraction(2, 3))):
        c = p.constant_term()
        assert type(c) is Fraction
        assert c == want


@settings(max_examples=80, deadline=None)
@given(raw_terms, st.integers(0, 60), st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 2))
def test_float_evaluation_matches_fraction_reference(ta, j, point):
    # large j puts numerators and denominator beyond 2**53, where only a
    # correctly rounded n / den matches float(c)
    p = MultiPoly(2, ta).scale(Fraction(2 ** 60 + 1, 3 ** j))
    for pt in (point, tuple(np.float64(x) for x in point)):
        ref = _ref_eval(p.terms, pt)
        if ref is None:
            assert p(pt) == 0.0
        else:
            _same_value(p(pt), ref)
    # exact points stay exact
    fpoint = (Fraction(1, 3), Fraction(-2))
    assert p(fpoint) == (_ref_eval(p.terms, fpoint) or 0)


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        MultiPoly(2, {(1, 0): "1"})
    # zero coefficients are dropped and exponents become int tuples
    p = MultiPoly(2, {(np.int64(1), 2.0): Fraction(1, 2), (0, 0): 0})
    assert list(p.terms.items()) == [((1, 2), Fraction(1, 2))]
    assert all(type(x) is int for e in p.terms for x in e)
