import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lblab.instances import (fsm_instance, fsm_minimizer,
                             fsm_minimizer_separation, nesterov_chain,
                             rlm_dual_minimizer, rlm_instance, rlm_separation,
                             smooth_instance, stack_rows, toy_instance)

L, MU, R = 100.0, 1.0, 1.0


def test_toy_instance_basics():
    inst = toy_instance(4.0, 1.0, 10.0)
    assert inst.minimizer == pytest.approx([0.25])
    assert inst.optimal_value == pytest.approx(-0.125)
    assert inst.suboptimality(np.array([0.25])) == pytest.approx(0.0, abs=1e-15)
    assert inst.grad(np.array([0.0])) == pytest.approx([-1.0])
    with pytest.raises(ValueError):
        toy_instance(0.5, 1.0, 10.0)


def test_fsm_component_spectral_sandwich():
    rng = np.random.default_rng(0)
    etas = rng.uniform(-(L - MU) / 2, (L - MU) / 2, size=8)
    inst = fsm_instance(etas, L, MU, R, 4)
    for Q, _ in inst.components:
        ev = np.linalg.eigvalsh(Q.dense())
        assert ev[0] >= MU - 1e-9
        assert ev[-1] <= L + 1e-9


def test_fsm_minimizer_matches_linear_solve():
    rng = np.random.default_rng(1)
    for _ in range(100):
        etas = rng.uniform(-(L - MU) / 2, (L - MU) / 2, size=8)
        inst = fsm_instance(etas, L, MU, R, 4)
        w = np.linalg.solve(inst.mean_matrix(), inst.mean_q())
        assert np.linalg.norm(inst.minimizer - w) <= 1e-10


def test_fsm_minimizer_extreme_parameters():
    # all eta at the lower extreme pushes both leading coordinates to R/sqrt2
    etas = np.full(8, -(L - MU) / 2)
    w = fsm_minimizer(etas, L, MU, R, 4)
    assert w[0] == pytest.approx(R / math.sqrt(2))
    assert w[1] == pytest.approx(R / math.sqrt(2))
    assert np.all(w[2:] == 0)


def test_fsm_gradient_consistency():
    etas = np.linspace(-40, 40, 8)
    inst = fsm_instance(etas, L, MU, R, 4)
    w = np.array([0.3, -0.2, 0.1, 0.05])
    g = sum(inst.comp_grad(j, w) for j in range(8)) / 8
    assert np.allclose(g, inst.grad(w), atol=1e-14)
    assert np.allclose(inst.grad(inst.minimizer), 0, atol=1e-12)


def test_fsm_separation_values():
    sep = fsm_minimizer_separation(8, 100.0, 1.0)
    assert sep == pytest.approx(0.925234, abs=1e-6)
    assert sep >= 2 * 1.0 / (8 + 2)
    # kappa -> infinity: denominator |n - n + 2| = 2, so the limit is R
    big = fsm_minimizer_separation(8, 1e12, 1.0)
    assert big == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError):
        fsm_minimizer_separation(8, 2.0, 1.0)


def test_fsm_rejects_out_of_range_eta():
    with pytest.raises(ValueError):
        fsm_instance([60.0] * 8, L, MU, R, 4)


def test_smooth_minimizer_independent_of_eta():
    for eta in (0.1, 0.5, 1.0):
        inst = smooth_instance(eta, 2.0, 5, 1.0)
        assert inst.minimizer == pytest.approx([2.0, 0, 0, 0, 0])
        assert inst.suboptimality(inst.minimizer) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        smooth_instance(0.0, 1.0, 3, 1.0)


def test_nesterov_chain_structure():
    inst = nesterov_chain(50, L, MU)
    Q = inst.mean_matrix()
    # tridiagonal
    assert np.allclose(Q - np.triu(np.tril(Q, 1), -1), 0)
    ev = np.linalg.eigvalsh(Q)
    assert ev[0] == pytest.approx(MU, rel=1e-9)
    assert ev[-1] == pytest.approx(L, rel=1e-9)
    assert np.allclose(inst.grad(inst.minimizer), 0, atol=1e-9)


def test_rlm_block_structure():
    n, lam = 100, 0.01
    psis = np.zeros(n // 2)
    inst = rlm_instance(psis, lam, n)
    Q = inst.q_dense()
    # psi = 0 keeps the off-diagonal entries zero
    assert np.allclose(Q, np.diag(np.diag(Q)))
    assert Q[0, 0] == pytest.approx((1 + 1 / (lam * n)) / n)


def test_rlm_unit_norm_data():
    inst = rlm_instance(np.linspace(-math.pi / 2, math.pi / 2, 50), 0.01, 100)
    X = inst.data_matrix()
    assert np.allclose(np.linalg.norm(X, axis=0), 1.0)


def test_rlm_minimizer_matches_linear_solve():
    n, lam = 100, 0.01
    rng = np.random.default_rng(2)
    psis = rng.uniform(-math.pi / 2, math.pi / 2, size=n // 2)
    inst = rlm_instance(psis, lam, n)
    a = np.linalg.solve(inst.q_dense(), np.full(n, 1.0 / n))
    assert np.linalg.norm(inst.minimizer() - a) <= 1e-10
    assert np.allclose(inst.dual_grad(inst.minimizer()), 0, atol=1e-12)


def test_rlm_setup_is_computed_once():
    # the blocks and the optimal value are fixed per instance, so every
    # oracle call and suboptimality reads them instead of recomputing
    n, lam = 20, 0.05
    psis = np.random.default_rng(5).uniform(-math.pi / 2, math.pi / 2, size=n // 2)
    inst = rlm_instance(psis, lam, n)
    assert inst.blocks is inst.blocks
    assert inst.optimal_value == inst.dual_value(inst.minimizer())
    a = np.full(n, 0.1)
    assert inst.suboptimality(a) == inst.dual_value(a) - inst.optimal_value


def test_rlm_matvec_matches_dense():
    n, lam = 20, 0.05
    rng = np.random.default_rng(3)
    psis = rng.uniform(-math.pi / 2, math.pi / 2, size=n // 2)
    inst = rlm_instance(psis, lam, n)
    a = rng.normal(size=n)
    assert np.allclose(inst.q_matvec(a), inst.q_dense() @ a, atol=1e-14)


def test_rlm_weak_duality():
    # -D(alpha) lower-bounds the primal at every pair of points
    n, lam = 20, 0.05
    rng = np.random.default_rng(4)
    psis = rng.uniform(-math.pi / 2, math.pi / 2, size=n // 2)
    inst = rlm_instance(psis, lam, n)
    for _ in range(20):
        a = rng.normal(size=n)
        w = rng.normal(size=n)
        assert -inst.dual_value(a) <= inst.primal_value(w) + 1e-12


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_PSIS = (st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2])
         | st.floats(-math.pi / 2, math.pi / 2))


@st.composite
def _rlm_grids(draw):
    """1-4 RlmInstances of one even n (2-64) and one lam (log-uniform on
    [1e-4, 1e2]), whose psis take +-0.0 and +-pi/2 among other values."""
    n = 2 * draw(st.integers(1, 32))
    lam = 10.0 ** draw(st.floats(-4.0, 2.0))
    psis = st.lists(_PSIS, min_size=n // 2, max_size=n // 2)
    return [rlm_instance(draw(psis), lam, n) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_rlm_grids(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_stacked_rlm_rows_equal_their_instances(grid, seeds, point_seed):
    stacked = stack_rows(grid, seeds)
    rows = len(grid) * seeds
    assert stacked.psis.shape == (rows, grid[0].n // 2)
    alpha = np.random.default_rng(point_seed).normal(size=(rows, grid[0].n))
    minimizer, opt = stacked.minimizer(), stacked.optimal_value
    values = stacked.dual_value(alpha)
    for r in range(rows):
        inst = grid[r // seeds]
        assert _same_bits(stacked.blocks[:, r], inst.blocks), r
        assert _same_bits(minimizer[r], inst.minimizer()), r
        assert _same_bits(opt[r], inst.optimal_value), r
        assert _same_bits(values[r], inst.dual_value(alpha[r])), r


def test_rlm_separation_exact():
    assert rlm_separation(0.01, 100) == pytest.approx(2 * math.sqrt(2) / 3)
    lam, n = 0.01, 100
    lo = rlm_dual_minimizer(np.full(n // 2, -math.pi / 2), lam, n)
    flipped = np.full(n // 2, -math.pi / 2)
    flipped[0] = math.pi / 2
    hi = rlm_dual_minimizer(flipped, lam, n)
    assert np.linalg.norm(lo - hi) == pytest.approx(rlm_separation(lam, n), rel=1e-12)


def test_rlm_validation():
    with pytest.raises(ValueError):
        rlm_instance(np.zeros(2), 0.01, 5)
    with pytest.raises(ValueError):
        rlm_instance(np.zeros(2), -1.0, 4)
    with pytest.raises(ValueError):
        rlm_instance(np.zeros(3), 0.01, 4)
    with pytest.raises(ValueError):
        rlm_instance(np.full(2, 3.0), 0.01, 4)


def _value_by_plain_loop(inst, w):
    tot = 0.0
    for Q, q in inst.components:
        tot += 0.5 * float(w @ Q.matvec(w)) - float(q @ w)
    return tot / inst.n


@pytest.mark.parametrize("etas", [
    np.full(8, 12.5),                                   # all equal
    np.linspace(-(L - MU) / 2, (L - MU) / 2, 8),        # all distinct
    np.array([3.0, -7.25, 3.0, 49.5, -7.25, 3.0, 0.0, -0.0]),  # partly repeated
])
def test_fsm_value_equals_plain_loop(etas):
    inst = fsm_instance(etas, L, MU, R, 6)
    # equal etas share one term of `value`; 0.0 and -0.0 stay apart
    assert len(inst._terms[0]) == len({float(e).hex() for e in etas})
    rng = np.random.default_rng(5)
    for _ in range(25):
        w = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=inst.d)
        assert inst.value(w) == _value_by_plain_loop(inst, w)


@pytest.mark.parametrize("inst", [toy_instance(4.0, 1.0, 10.0), nesterov_chain(30, L, MU)],
                         ids=["toy", "chain"])
def test_value_equals_plain_loop(inst):
    rng = np.random.default_rng(6)
    for _ in range(25):
        w = rng.normal(size=inst.d)
        assert inst.value(w) == _value_by_plain_loop(inst, w)


def test_self_checks_survive_python_O():
    # the minimizer and separation self-checks are explicit raises, which
    # `python -O` keeps (it strips bare asserts); the minimizer check is a
    # ValueError, so the CLI reports it as a config error
    code = (
        "import numpy as np\n"
        "import lblab.instances as I\n"
        "I.fsm_minimizer = lambda etas, L, mu, R, d: np.ones(d)  # a wrong closed form\n"
        "for call, error in ((lambda: I.fsm_minimizer_separation(8, 100.0, -1.0),\n"
        "                     AssertionError),\n"
        "                    (lambda: I.fsm_instance(np.full(4, 3.0), 100.0, 1.0, 1.0, 4),\n"
        "                     ValueError)):\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        print('raised')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert out.split() == ["raised", "raised"]
