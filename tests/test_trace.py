import contextlib
import hashlib
import io
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lblab import cli
from lblab.bounds import maxnorm_lb
from lblab.instances import fsm_instance, rlm_instance, smooth_instance, toy_instance
from lblab.optimizers import Schedule, _drive, _make_engine, make_optimizer, run
from lblab.oracles import FirstOrder, answer
from lblab.polynomials import MultiPoly
from lblab.trace import DegreeViolation, _sym_engine, fig2_data, trace_gd_toy, trace_oblivious


def test_gd_toy_closed_form_coefficients():
    # w_k(eta) = (1/L) sum_i (-1)^i C(k, i+1) (eta/L)^i
    for L in (1, 4, 10):
        for k in range(9):
            p = trace_gd_toy(k, L)
            coeffs = [(Fraction((-1) ** i) * math.comb(k, i + 1)) / Fraction(L) ** (i + 1)
                      for i in range(k)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert list(p.coeffs) == coeffs


def test_traced_gd_matches_closed_form():
    L = 4.0
    sched = make_optimizer("gd", L=L, mu=1.0)
    for k in range(7):
        vec = trace_oblivious(sched, "toy", k, L=L, mu=1.0)
        ref = trace_gd_toy(k, L)
        assert vec[0] == ref


def test_trace_zero_calls():
    sched = make_optimizer("gd", L=4.0, mu=1.0)
    vec = trace_oblivious(sched, "toy", 0, L=4.0, mu=1.0)
    assert vec[0].total_degree == float("-inf")


def test_trace_sup_error_dominates_lower_bound():
    # an oblivious method's iterate is a polynomial in eta, so its worst
    # error over [mu, L] is at least the polynomial lower bound
    L, mu = 4.0, 1.0
    etas = np.linspace(mu, L, 513)
    for name in ("gd", "agd"):
        sched = make_optimizer(name, L=L, mu=mu)
        for k in range(5):
            poly = trace_oblivious(sched, "toy", k, L=L, mu=mu)[0]
            sup = max(abs(float(poly((eta,))) - 1 / eta) for eta in etas)
            assert sup >= maxnorm_lb(mu, L, 0.0, k) - 1e-9, (name, k)
    # spot check: k = 4 lower bound is 3/8 * (1/3)^4
    assert maxnorm_lb(1, 4, 0, 4) == pytest.approx(3 / 8 / 81)


def test_trace_float_consistency():
    # evaluating the symbolic iterate at a concrete eta reproduces the
    # numeric run's suboptimality
    L, mu, k = 4.0, 1.0, 6
    sched = make_optimizer("gd", L=L, mu=mu)
    vec = trace_oblivious(sched, "toy", k, L=L, mu=mu)
    for eta in (1.0, 2.5, 4.0):
        w = float(vec[0]((eta,)))
        inst = toy_instance(eta, mu, L)
        sub = 0.5 * eta * w * w - w + 0.5 / eta
        rec = run(sched, inst, k)
        assert sub == pytest.approx(rec.errors[k], abs=1e-12)


# Every (oblivious schedule, family) pair that `trace` accepts: the exact
# coordinate step divides by the toy and smooth parameters, so the cd
# schedules trace on fsm only, and sdca is the one dual schedule.
PRIMAL = ("gd", "agd", "hb", "sgd", "sag", "saga", "svrg", "sdca_primal")
TRACEABLE = ([(name, "fsm") for name in PRIMAL + ("cd_cyclic", "cd_random")]
             + [(name, family) for family in ("toy", "smooth") for name in PRIMAL]
             + [("sdca", "rlm")])


@pytest.mark.parametrize("name,family", TRACEABLE)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_traced_polynomial_equals_numeric_iterate(name, family, data):
    # the traced iterate, evaluated at the instance's parameters (eta per
    # component, or sin psi per pair), is the numeric engine's tracked point
    draw = data.draw
    L, mu, R = draw(st.floats(2.0, 100.0)), 1.0, draw(st.floats(0.5, 2.0))
    k, seed = draw(st.integers(0, 12)), draw(st.integers(0, 2 ** 32))
    step = draw(st.none() | st.floats(0.05 / L, 1 / L)) if name in PRIMAL else None
    epoch = draw(st.none() | st.integers(1, 6)) if name == "svrg" else None
    sched = make_optimizer(name, L=L, mu=mu, step=step, epoch=epoch)
    n, d, lam = 1, 1, 0.01
    if family == "toy":
        point = [draw(st.floats(mu, L))]
        instance = toy_instance(point[0], mu, L)
    elif family == "smooth":
        d = draw(st.integers(1, 4))
        point = [draw(st.floats(1e-3, L))]
        instance = smooth_instance(point[0], R, d, L)
    elif family == "fsm":
        n, d = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        point = draw(st.lists(st.floats(-(L - mu) / 2, (L - mu) / 2), min_size=n, max_size=n))
        instance = fsm_instance(point, L, mu, R, d)
    else:
        n, lam = draw(st.sampled_from([2, 4, 6, 8])), draw(st.floats(0.01, 1.0))
        psis = draw(st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=n // 2,
                             max_size=n // 2))
        instance = rlm_instance(psis, lam, n)
        point = np.sin(instance.psis).tolist()
    vec = trace_oblivious(sched, family, k, seed=seed, n=n, d=d, L=L, mu=mu, R=R, lam=lam)
    # exact evaluation: in floats, the terms' cancellation costs more than 1e-12
    traced = np.array([float(e(tuple(map(Fraction, point)))) for e in vec])
    engine = _make_engine(instance, seed)
    numeric = _drive(sched, engine, partial(answer, engine), lambda w: 0.0, k)[0]["w"]
    assert np.linalg.norm(traced - numeric) <= 1e-12 * np.linalg.norm(numeric)


def test_stochastic_trace_respects_budget():
    sched = make_optimizer("sgd", L=100.0, mu=1.0)
    for seed in range(3):
        vec = trace_oblivious(sched, "fsm", 5, seed=seed, n=3, d=4,
                              L=100.0, mu=1.0, R=1.0)
        assert vec.max_total_degree() <= 5


def test_smooth_trace_zero_constant_term():
    for name in ("gd", "agd", "hb"):
        sched = make_optimizer(name, L=1.0, mu=0.01)
        vec = trace_oblivious(sched, "smooth", 6, d=3, L=1.0, R=1.0)
        for e in vec.entries:
            assert e.constant_term() == 0


def test_rlm_trace_variable_budget():
    sched = make_optimizer("sdca")
    vec = trace_oblivious(sched, "rlm", 8, n=4, lam=0.05)
    assert vec.variable_degree_sum() <= 8
    for e in vec.entries:
        assert e.total_degree <= 8


def test_traced_fsm_structures_equal_the_instance_exactly():
    # the tracer's components at float etas are the numeric instance's,
    # entry for entry, as exact rationals
    etas, d, L, mu, R = [3.0, -7.25, 0.1], 5, 100.0, 1.0, 0.7
    point = tuple(Fraction(e) for e in etas)

    def exact(c):
        return (MultiPoly(len(etas), {}) + c)(point)

    sym = _sym_engine("fsm", n=len(etas), d=d, L=L, mu=mu, R=R)
    inst = fsm_instance(etas, L, mu, R, d)
    for (Qs, qs), (Q, q) in zip(sym.components, inst.components, strict=True):
        for attr in ("h", "e", "tail"):
            assert exact(getattr(Qs, attr)) == Fraction(getattr(Q, attr)), attr
        assert [exact(c) for c in qs] == [Fraction(c) for c in q]


def test_trace_refuses_non_oblivious():
    sched = make_optimizer("lbfgs", L=4.0, mu=1.0)
    with pytest.raises(ValueError):
        trace_oblivious(sched, "toy", 3, L=4.0, mu=1.0)


@pytest.mark.parametrize("opt,family", [("sgd", "rlm"), ("sdca", "fsm"), ("cd_random", "rlm")])
def test_trace_refuses_a_schedule_of_the_other_oracle_family(opt, family):
    # the same ValueError as `run`, before any oracle is asked
    with pytest.raises(ValueError, match="does not run on the"):
        trace_oblivious(make_optimizer(opt, L=100.0, mu=1.0), family, 3, n=4, d=4)


def test_trace_catches_degree_cheating():
    # a schedule that squares its answer doubles the degree per call and
    # must trip the budget check
    def init(engine):
        return {"w": engine.zero()}

    def stp(state, k, ask, engine):
        a = ask(state["w"], FirstOrder(-0.25, 1.0, 0))
        w = a.copy()
        w[0] = a[0] * a[0]
        state["w"] = w

    cheat = Schedule("cheat", True, init, stp, stochastic=False)
    with pytest.raises(DegreeViolation):
        trace_oblivious(cheat, "toy", 4, L=4.0, mu=1.0)


def test_fig2_agd_dominates_gd_at_k4():
    header, rows = fig2_data(4.0, 1.0, k_max=4, grid=257)
    arr = np.asarray(rows)
    tgt = arr[:, header.index("target")]

    def sup_error(name):
        return np.max(np.abs(arr[:, header.index(name)] - tgt))

    assert sup_error("agd_k4") <= sup_error("gd_k4")


# sha256 of `lblab trace --opt <opt> <family flags> --k 7 --seed 1 --kappa 7`:
# every family and every kind of query, first-order (full and stochastic),
# steepest coordinate and dual coordinate
FAMILY_FLAGS = {
    "fsm": ("--family", "fsm", "--n", "3", "--d", "4"),
    "rlm": ("--family", "rlm", "--n", "6"),
    "toy": ("--family", "toy"),
    "smooth-d1": ("--family", "smooth", "--d", "1"),
    "smooth-d3": ("--family", "smooth", "--d", "3"),
}
TRACE_PINS = {
    "sgd-fsm": "dcd2898212360d9c1b89c36e9b62e0906f3da1cc23c7762a19e6179e30e8dcd6",
    "saga-fsm": "a146833a79d0997675b9d8ffa2815f3b9f54ca7bb6db9471d7135aabb5b7a792",
    "svrg-fsm": "574d44d705a5e6c5ac89970901770813e232b7d3fd306ece25355d3b95dd678f",
    "sdca_primal-fsm": "3a5b0eaeecddd9a20f3c48bd07592cbb80a88461da9f942549cae87ce42e0f76",
    "cd_cyclic-fsm": "7f1f0e401578bc7560836ac77fa1e5430029a22c494602e1c51b935f3768c6a2",
    "sdca-rlm": "e1c930f6d6be0bdf03d1f5381fd3c098992e065f7a2263a7c0e260bc76e51d47",
    "gd-toy": "22baff3b3754133328274011c8b3fc3cff46f824844e28fbe68c14e54f1f27c1",
    "agd-toy": "a14b63e51fdbbd57d4cee248bfceb270f1293e0877fab8d19ef587e70a894453",
    "hb-toy": "4703868d7a63c4b0d4b3e91261ab96bd0f49127d5c536df76d333f5ff5a8345b",
    "gd-smooth-d1": "13a6332c8429075276ef55a2c43855984b84ec70b1eda444ab194af18546abf5",
    "agd-smooth-d1": "81d1ab463b6fa93bce23f29a6df35446d04c549bcaaab60d776c060561a8713d",
    "hb-smooth-d1": "710ad20a353c61fe588bbb95c580ce017fa3d0681ffbb34255a67d8ab3052c7e",
    "gd-smooth-d3": "991c65d3904e1708cf25c396e5ca4a96c736d5e813ba09dfc9936771b91e5f0d",
    "agd-smooth-d3": "45c91af2ee757851b49b7c727737db1898bd39d1b37af963cf316f4145b55d64",
    "hb-smooth-d3": "5e8f8bb59fe1aa5d0d19ba73c204e8a92043e7b0c1b4eaadb4cfcf4ee7386f75",
}


@pytest.mark.parametrize("case", TRACE_PINS)
def test_trace_output_bytes_pinned(case):
    opt, family = case.split("-", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["trace", "--opt", opt, *FAMILY_FLAGS[family], "--k", "7",
                         "--seed", "1", "--kappa", "7"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == TRACE_PINS[case]
