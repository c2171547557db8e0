import math
import os
import subprocess
import sys

import pytest

import lblab
from lblab import bounds
from lblab.bounds import (ProblemParams, chebyshev_lb_inf,
                          fsm_rate_envelope, identity_checks,
                          iteration_lb_from_rate, l1_lb, l2_weighted_exact,
                          l2_weighted_lb, maxnorm_lb, theorem_bounds)


def test_chebyshev_lb_inf_values():
    assert chebyshev_lb_inf(2.0, 0) == pytest.approx(1 / 3)
    assert chebyshev_lb_inf(2.0, 1) == pytest.approx((2 - math.sqrt(3)) / 3, rel=1e-12)
    assert chebyshev_lb_inf(1e6, 0) < 1e-11
    with pytest.raises(ValueError):
        chebyshev_lb_inf(1.0, 2)


def test_maxnorm_lb_values():
    assert maxnorm_lb(1, 4, 0, 0) == pytest.approx(3 / 8)
    assert maxnorm_lb(1, 4, 0, 1) == pytest.approx(1 / 8)
    # geometric in k with ratio 1/3 here
    for k in range(6):
        assert maxnorm_lb(1, 4, 0, k + 1) == pytest.approx(maxnorm_lb(1, 4, 0, k) / 3)
    with pytest.raises(ValueError):
        maxnorm_lb(4, 1, 0, 1)
    with pytest.raises(ValueError):
        maxnorm_lb(1, 4, -2, 1)


def test_l1_lb_values():
    # alpha = (L+mu)/2 gives r = kappa
    assert l1_lb(4, 1, 2.5, 0) == pytest.approx(1.0)
    assert l1_lb(4, 1, 2.5, 1) == pytest.approx(1 / 3)
    # direct integral of the k=0 target dominates the bound
    assert math.log(4) >= l1_lb(4, 1, 2.5, 0)
    assert l1_lb(4, 1, 1e6, 1) < 1e-5
    with pytest.raises(ValueError):
        l1_lb(4, 1, 1.0, 1)  # alpha <= (L-mu)/2


def test_l2_weighted_lb_values():
    assert l2_weighted_lb(-0.5, 0) == pytest.approx(1 / (8 * math.e ** 2))
    assert l2_weighted_lb(-0.9, 0) == pytest.approx(1 / (math.e ** 2 * 2 ** 2.2), rel=1e-12)
    assert l2_weighted_lb(-0.5, 4) == pytest.approx(1 / (math.e ** 2 * 6 ** 3), rel=1e-12)
    with pytest.raises(ValueError):
        l2_weighted_lb(0.5, 1)


def test_l2_weighted_exact_values():
    assert l2_weighted_exact(-0.5, 0) == pytest.approx(2 / 3)
    assert l2_weighted_exact(-0.5, 1) == pytest.approx(1.5 * (1 / 1.5) ** 2 / 2.5 ** 2)
    for alpha in (-0.9, -0.5, -0.1):
        for k in range(9):
            assert l2_weighted_exact(alpha, k) >= l2_weighted_lb(alpha, k)


def test_l2_exact_strictly_decreasing_in_k():
    for alpha in (-0.9, -0.5, -0.1):
        vals = [l2_weighted_exact(alpha, k) for k in range(10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fsm_rate_envelope():
    kappa = 16.0
    # n = 1 collapses to the classical single-function ratio
    single = ((math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1))
    for k in range(5):
        assert fsm_rate_envelope(kappa, 1, k, 2.0) == pytest.approx(2.0 * single ** k)
    assert fsm_rate_envelope(1.0, 4, 3, 1.0) == 0.0
    assert fsm_rate_envelope(101.0, 100, 100, 1.0) == pytest.approx(3 - 2 * math.sqrt(2), rel=1e-12)


def test_iteration_lb_from_rate():
    assert iteration_lb_from_rate(4, 1, 0, 1.0, math.e ** -2) == pytest.approx(math.sqrt(3))
    assert iteration_lb_from_rate(4, 1, 0, 0.5, 0.5) == 0.0
    one = iteration_lb_from_rate(4, 1, 0, 1.0, math.e ** -1)
    two = iteration_lb_from_rate(4, 1, 0, 1.0, math.e ** -2)
    assert two == pytest.approx(2 * one)
    # monotone in the conditioning ratio
    assert iteration_lb_from_rate(8, 1, 0, 1.0, 1e-3) > iteration_lb_from_rate(4, 1, 0, 1.0, 1e-3)


def test_theorem_bounds_smooth_round_point():
    eps = 0.5 / (math.e ** 2 * 6 ** 3)
    p = ProblemParams(L=1.0, R=1.0, alpha=-0.5, eps=eps)
    tb = theorem_bounds(p, "smooth")
    assert tb.value == pytest.approx(4.0, rel=1e-9)


def test_theorem_bounds_fsm_n_arm():
    p = ProblemParams(L=2.0, mu=1.0, n=1000, R=1.0, eps=0.5)
    assert theorem_bounds(p, "fsm").value == 1000


def test_theorem_bounds_rlm_plugin():
    # pick eps so that the log factor equals exactly 1
    n, lam = 100, 0.01
    eps = (n ** 2 * lam ** 2 / 8) * math.exp(-1) / 1  # ln(n^2 lam^2/8) + ln(1/eps) = 1
    p = ProblemParams(n=n, lam=lam, eps=eps)
    sqrt_arm = 0.125 * math.sqrt(2 * n / lam)
    assert sqrt_arm == pytest.approx(0.125 * math.sqrt(20000))
    assert theorem_bounds(p, "rlm").value == pytest.approx(max(n / 2, sqrt_arm))


def test_theorem_bounds_clamping():
    p = ProblemParams(L=4.0, mu=1.0, xstar=1.0, eps=1e6)
    tb = theorem_bounds(p, "toy")
    assert tb.value == 0.0
    assert tb.raw < 0


def test_identity_algebraic():
    # u = 5/4: both sides equal 1/2
    rep = identity_checks(1.25, ks=(1,))
    lhs = 1.25 - math.sqrt(1.25 ** 2 - 1)
    assert lhs == pytest.approx(0.5)
    assert rep["algebraic"] <= 1e-12
    for u in (1.1, 2.0, 10.0, 1e6):
        assert identity_checks(u, ks=(1,))["algebraic"] <= 1e-12


def test_identity_sgn_integral():
    for u in (1.5, 2.0, 5.0):
        rep = identity_checks(u, ks=(1, 2, 3, 4, 5, 6))
        assert max(rep["sgn_integral"].values()) <= 1e-6
    # spot value from the closed form at u=2, k=1
    z = 2 + math.sqrt(3)
    rep = identity_checks(2.0, ks=(1,))
    assert rep["sgn_integral"][1] <= 1e-6
    assert 2 * math.log((z + 1) / (z - 1)) == pytest.approx(math.log(3), abs=0.7)


def test_identity_domain():
    with pytest.raises(ValueError):
        identity_checks(1.0)


def test_smooth_delta_form_exposed():
    v = bounds.smooth_bound_delta_form(1.0, 1e-3, 3.0)
    assert v > 0
    with pytest.raises(ValueError):
        bounds.smooth_bound_delta_form(1.0, 1e-3, 5.0)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only identity_checks integrates and only bestapprox's LP solvers call
    # scipy.optimize, so importing the CLI must pay for neither; lblab itself
    # never imports mpmath, which only the tests use
    src = os.path.dirname(os.path.dirname(lblab.__file__))
    code = ("import sys, lblab.cli; print([m in sys.modules "
            "for m in ('scipy.integrate', 'scipy.optimize', 'mpmath')])")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[False, False, False]"
