import contextlib
import hashlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from lblab import cli
from lblab.bounds import maxnorm_lb
from lblab.instances import toy_instance
from lblab.optimizers import Schedule, make_optimizer, run
from lblab.oracles import FirstOrder
from lblab.trace import (DegreeViolation, fig2_data, trace_gd_toy,
                         trace_oblivious, trace_sup_error)


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


def test_trace_sup_error_dominates_lower_bound():
    L, mu = 4.0, 1.0
    sched = make_optimizer("gd", L=L, mu=mu)
    for k in range(5):
        vec = trace_oblivious(sched, "toy", k, L=L, mu=mu)
        sup = trace_sup_error(vec, "toy", np.linspace(mu, L, 513), L=L, mu=mu)
        assert sup >= maxnorm_lb(mu, L, 0.0, k) - 1e-9
    # spot check: k = 4 lower bound is 3/8 * (1/3)^4
    assert maxnorm_lb(1, 4, 0, 4) == pytest.approx(3 / 8 / 81)


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


def test_trace_refuses_non_oblivious():
    sched = make_optimizer("lbfgs", L=4.0, mu=1.0)
    with pytest.raises(ValueError):
        trace_oblivious(sched, "toy", 3, L=4.0, mu=1.0)


def test_trace_catches_degree_cheating():
    # a schedule that squares its answer doubles the degree per call and
    # must trip the budget check
    def init(engine):
        return {"w": engine.zero()}

    def stp(state, k, ask, engine):
        a = ask(state["w"], FirstOrder(-0.25, 1.0, 0))
        state["w"] = a.with_entry(0, a.entries[0] * a.entries[0])

    cheat = Schedule("cheat", True, init, stp, stochastic=False)
    with pytest.raises(DegreeViolation):
        trace_oblivious(cheat, "toy", 4, L=4.0, mu=1.0)


def test_fig2_agd_dominates_gd_at_k4():
    header, rows = fig2_data(4.0, 1.0, k_max=4, grid=257)
    arr = np.asarray(rows)
    tgt = arr[:, header.index("target")]
    gd4 = np.max(np.abs(arr[:, header.index("gd_k4")] - tgt))
    agd4 = np.max(np.abs(arr[:, header.index("agd_k4")] - tgt))
    assert agd4 <= gd4


def test_trace_sup_error_validates_grid():
    vec = trace_oblivious(make_optimizer("gd", L=4.0, mu=1.0), "toy", 2, L=4.0, mu=1.0)
    with pytest.raises(ValueError):
        trace_sup_error(vec, "toy", [])


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
