"""End-to-end acceptance gate.

Each test pins one externally stated guarantee of the package, with the
tolerance and runtime budget it was specified with.  The AGD slope test at
the bottom is known to fail: the implemented accelerated method with
constant momentum does not attain the targeted asymptotic slope on the
chain quadratic (the heavy-ball method does; see its companion test).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lblab import harness
from lblab.bounds import identity_checks, l2_weighted_exact, maxnorm_lb
from lblab.bestapprox import best_weighted_l2
from lblab.instances import (fsm_minimizer_separation, rlm_dual_minimizer,
                             rlm_separation, toy_instance)
from lblab.optimizers import make_optimizer, make_rng
from lblab.oracles import NumericEngine, answer
from lblab.polynomials import sgn_chebyshev_moment
from lblab.trace import fig2_data, trace_gd_toy, trace_oblivious


def test_gd_trace_exact_closed_form():
    t0 = time.perf_counter()
    for L in (1, 4, 10):
        for k in range(13):
            p = trace_gd_toy(k, L)
            expect = [Fraction((-1) ** i * math.comb(k, i + 1), L ** (i + 1))
                      for i in range(k)]
            while expect and expect[-1] == 0:
                expect.pop()
            assert list(p.coeffs) == expect
    assert time.perf_counter() - t0 < 1.0


def test_bound_sandwiches():
    t0 = time.perf_counter()
    rows = harness.approx_check_rows(kmax=8, grid=4097)
    for norm, k, lb, bf, ratio in rows:
        assert bf >= lb * (1 - 1e-9), (norm, k, lb, bf)
    assert time.perf_counter() - t0 < 10.0


def test_exact_l2_formula():
    for alpha in (-0.9, -0.5, -0.1):
        assert l2_weighted_exact(alpha, 0) == pytest.approx(1 / (alpha + 2), rel=1e-12)
        for k in range(9):
            solved, _ = best_weighted_l2(alpha, k)
            assert l2_weighted_exact(alpha, k) == pytest.approx(solved, rel=1e-9)
    assert l2_weighted_exact(-0.5, 1) == pytest.approx(0.10667, abs=1e-5)


def test_gd_toy_worst_case_distance_sandwich():
    # worst-case distance to the minimizer over a 33-point eta grid sits
    # between the polynomial-approximation lower bound and the GD guarantee
    L, mu, kappa = 4.0, 1.0, 4.0
    etas = np.linspace(mu, L, 33)
    sched = make_optimizer("gd", L=L, mu=mu)
    K = 100
    dists = np.zeros((len(etas), K + 1))
    for i, eta in enumerate(etas):
        inst = toy_instance(eta, mu, L)
        engine = NumericEngine(inst)
        engine.rng = make_rng(0)
        ask = lambda point, query: answer(engine, point, query)
        state = sched.init(engine)
        dists[i, 0] = abs(state["w"][0] - inst.minimizer[0])
        for k in range(K):
            sched.step(state, k, ask, engine)
            dists[i, k + 1] = abs(state["w"][0] - inst.minimizer[0])
    worst = dists.max(axis=0)
    rate = 1 - 2 / (1 + kappa)
    for k in range(K + 1):
        assert worst[k] >= maxnorm_lb(mu, L, 0.0, k) - 1e-9
        assert worst[k] <= rate ** (k / 2) / mu + 1e-9


def test_fourth_iterate_accelerated_approximates_target_better():
    t0 = time.perf_counter()
    header, rows = fig2_data(4.0, 1.0, k_max=4, grid=1025)
    arr = np.asarray(rows)
    tgt = arr[:, header.index("target")]
    gd4 = np.max(np.abs(arr[:, header.index("gd_k4")] - tgt))
    agd4 = np.max(np.abs(arr[:, header.index("agd_k4")] - tgt))
    assert agd4 <= gd4
    assert time.perf_counter() - t0 < 1.0


def test_variance_reduced_methods_respect_fsm_envelope():
    t0 = time.perf_counter()
    cfg = harness.load_config(
        None, family="fsm", n=8, d=4, L=100.0, mu=1.0, R=1.0,
        grid_points=33, iterations=200, seeds=100,
        optimizers=("sag", "saga", "svrg", "sdca_primal", "cd_random"))
    code, csv = harness.cmd_envelope(cfg)
    assert code == harness.EXIT_OK, csv[-2000:]
    assert time.perf_counter() - t0 < 120.0


def test_dual_coordinate_ascent_respects_rlm_envelope():
    t0 = time.perf_counter()
    cfg = harness.load_config(
        None, family="rlm", n=100, lam=0.01, grid_points=17,
        iterations=500, seeds=100, optimizers=("sdca",))
    code, csv = harness.cmd_envelope(cfg)
    assert code == harness.EXIT_OK, csv[-2000:]
    assert time.perf_counter() - t0 < 120.0


def test_degree_budgets_hold_exactly():
    L, mu, R = 100.0, 1.0, 1.0
    for name in ("gd", "sgd", "sag", "svrg", "cd_cyclic"):
        sched = make_optimizer(name, L=L, mu=mu, n=8)
        for seed in range(5):
            vec = trace_oblivious(sched, "fsm", 10, seed=seed, n=8, d=4,
                                  L=L, mu=mu, R=R)
            assert vec.max_total_degree() <= 10
    for name in ("gd", "agd", "hb"):
        sched = make_optimizer(name, L=1.0, mu=0.01, n=1)
        vec = trace_oblivious(sched, "smooth", 8, d=3, L=1.0, R=1.0)
        assert all(e.constant_term() == 0 for e in vec.entries)
    sched = make_optimizer("sdca", n=6)
    vec = trace_oblivious(sched, "rlm", 10, n=6, lam=0.05)
    assert vec.variable_degree_sum() <= 10


def test_minimizer_separations():
    sep = fsm_minimizer_separation(8, 100.0, 1.0)
    assert sep == pytest.approx(0.9246, abs=1e-3)
    assert sep >= 2 * 1.0 / (8 + 2)
    assert rlm_separation(0.01, 100) == 2 * math.sqrt(2) / (0.01 * 100 + 2)
    assert rlm_separation(0.01, 100) == pytest.approx(0.9428, abs=1e-4)
    lo = rlm_dual_minimizer(np.full(50, -math.pi / 2), 0.01, 100)
    hi = np.full(50, -math.pi / 2)
    hi[0] = math.pi / 2
    hi = rlm_dual_minimizer(hi, 0.01, 100)
    assert np.linalg.norm(lo - hi) == pytest.approx(rlm_separation(0.01, 100), rel=1e-12)


def test_identity_suite():
    for u in (1.1, 1.25, 2.0, 10.0, 1e6):
        assert identity_checks(u, ks=(1,))["algebraic"] <= 1e-12
    for u in (1.5, 2.0, 5.0):
        rep = identity_checks(u, ks=tuple(range(1, 7)))
        assert max(rep["sgn_integral"].values()) <= 1e-6
    for k in range(1, 11):
        for j in range(k):
            assert abs(sgn_chebyshev_moment(j, k)) <= 1e-10


@pytest.fixture(scope="module")
def chain_curves():
    t0 = time.perf_counter()
    cfg = harness.load_config(None, d=200, L=100.0, mu=1.0, iterations=400,
                              lbfgs_memory=100)
    curves = harness.fig1_curves(cfg)
    assert time.perf_counter() - t0 < 60.0
    return curves


def test_chain_momentum_methods_are_log_linear(chain_curves):
    for name in ("gd", "agd", "hb"):
        slope, r2, _ = harness.log_slope_fit(chain_curves[name], 10, 400)
        assert slope < 0
        assert r2 >= 0.99, (name, slope, r2)


def test_chain_limited_memory_method_breaks_the_slope(chain_curves):
    errs = chain_curves["lbfgs"]
    hit = np.where(errs <= 1e-10)[0]
    assert hit.size and hit[0] < 200 + 150


def test_chain_heavy_ball_attains_accelerated_slope(chain_curves):
    kappa = 100.0
    target = 2 * math.log((math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1))
    slope, r2, _ = harness.log_slope_fit(chain_curves["hb"], 10, 400)
    assert r2 >= 0.99
    assert abs(slope - target) <= 0.2 * abs(target)


# KNOWN FAILURE: constant-momentum accelerated gradient descent converges at
# roughly half the targeted asymptotic log-slope on this instance; the target
# slope is attained by the heavy-ball iteration instead (see the companion
# test above).  Kept as stated rather than loosened.
def test_chain_accelerated_gradient_attains_accelerated_slope(chain_curves):
    kappa = 100.0
    target = 2 * math.log((math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1))
    slope, _, _ = harness.log_slope_fit(chain_curves["agd"], 10, 400)
    assert abs(slope - target) <= 0.2 * abs(target)
