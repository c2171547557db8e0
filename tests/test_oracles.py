import math

import numpy as np
import pytest

from lblab.instances import (DenseSym, QuadraticInstance, fsm_instance,
                             rlm_instance, toy_instance)
from lblab.optimizers import BatchedDualEngine, BatchedEngine
from lblab.trace import _sym_engine
from lblab.oracles import (DualExactCD, DualGradStep, DualNumericEngine,
                           FirstOrder, NumericEngine, SteepestCD, answer)

L, MU, R = 100.0, 1.0, 1.0


def fsm_engine(seed=0, n=8, d=4):
    rng = np.random.default_rng(seed)
    etas = rng.uniform(-(L - MU) / 2, (L - MU) / 2, size=n)
    return NumericEngine(fsm_instance(etas, L, MU, R, d))


def test_first_order_raw_gradient():
    eng = fsm_engine()
    w = np.array([0.1, -0.3, 0.2, 0.0])
    out = answer(eng, w, FirstOrder(a=1.0, b=0.0, j=3))
    assert np.allclose(out, eng.instance.comp_grad(3, w))


def test_first_order_gd_step_shape():
    # a = -gamma, b = 1 is one gradient-descent step on component j
    eng = NumericEngine(toy_instance(4.0, 1.0, 10.0))
    w = np.array([2.0])
    out = answer(eng, w, FirstOrder(a=-0.1, b=1.0, j=0))
    assert out == pytest.approx([2.0 - 0.1 * (4.0 * 2.0 - 1.0)])


def test_first_order_identity_and_offset():
    eng = fsm_engine()
    w = np.array([0.5, 0.5, 0.0, 0.0])
    assert np.allclose(answer(eng, w, FirstOrder(a=0.0, b=1.0, j=0)), w)
    c = np.ones(4)
    out = answer(eng, w, FirstOrder(a=0.0, b=0.0, j=0, c=c))
    assert np.allclose(out, c)


def test_steepest_cd_zeroes_partial():
    eng = fsm_engine(seed=5)
    w = np.array([1.0, -2.0, 0.5, 0.3])
    for j in range(8):
        for i in range(4):
            out = answer(eng, w, SteepestCD(i=i, j=j))
            assert abs(eng.grad_entry(j, i, out)) <= 1e-12
            # only coordinate i moved
            mask = np.arange(4) != i
            assert np.all(out[mask] == w[mask])


def test_steepest_cd_closed_form():
    # t = -(partial_i f_j)(w) / Q_jii
    eng = fsm_engine(seed=6)
    w = np.array([0.2, 0.4, -0.1, 0.9])
    j, i = 2, 1
    out = answer(eng, w, SteepestCD(i=i, j=j))
    t = -eng.grad_entry(j, i, w) / eng.diag(j, i)
    assert out[i] == pytest.approx(w[i] + t, rel=1e-14)


def test_dual_grad_step_zero_t_is_identity():
    inst = rlm_instance(np.linspace(-1.0, 1.0, 4), 0.05, 8)
    eng = DualNumericEngine(inst)
    a = np.full(8, 0.3)
    out = answer(eng, a, DualGradStep(t=0.0, j=5))
    assert np.allclose(out, a)


def test_dual_exact_cd_zeroes_partial():
    inst = rlm_instance(np.linspace(-1.0, 1.0, 4), 0.05, 8)
    eng = DualNumericEngine(inst)
    rng = np.random.default_rng(7)
    a = rng.normal(size=8)
    for j in range(8):
        out = answer(eng, a, DualExactCD(j=j))
        assert abs(inst.dual_grad(out)[j]) <= 1e-14


def test_dual_exact_cd_from_zero_diagonal_case():
    # psi = 0 decouples the pairs: from 0 the step lands at (1/n)/Q_jj
    n, lam = 8, 0.05
    inst = rlm_instance(np.zeros(n // 2), lam, n)
    eng = DualNumericEngine(inst)
    out = answer(eng, np.zeros(n), DualExactCD(j=2))
    expect = (1.0 / n) / ((1 + 1 / (lam * n)) / n)
    assert out[2] == pytest.approx(expect, rel=1e-14)
    assert np.all(out[np.arange(n) != 2] == 0)


def test_call_log_accounting():
    eng = fsm_engine()
    w = np.zeros(4)
    for j in (0, 0, 3):
        w = answer(eng, w, FirstOrder(a=-0.001, b=1.0, j=j))
    w = answer(eng, w, SteepestCD(i=0, j=1))
    assert eng.log.total == 4
    assert eng.log.variant_counts == {"FirstOrder": 3, "SteepestCD": 1}


def test_answer_counts_one_call_per_query_on_every_engine():
    fsm_inst = fsm_instance(np.array([3.0, -2.0]), L, MU, R, 4)
    dual = rlm_instance(np.array([0.4, -0.7]), 0.05, 4)
    batched = BatchedEngine([fsm_inst], 3, 1)
    sym = _sym_engine("fsm", n=2, d=4, L=L, mu=MU, R=R)
    rows = np.array([0, 3, 1])
    cases = [
        (NumericEngine(fsm_inst), np.zeros(4), FirstOrder(1.0, 0.0, 1)),
        (DualNumericEngine(dual), np.zeros(4), DualExactCD(2)),
        (sym, sym.zero(), FirstOrder(-0.01, 1.0, 0)),
        (batched, np.zeros((3, 4)), SteepestCD(rows, rows % 2)),
        (BatchedDualEngine([dual], 3, 1), np.zeros((3, 4)), DualGradStep(0.5, rows)),
    ]
    for engine, point, query in cases:
        assert engine.log.total == 0
        for calls in (1, 2):
            answer(engine, point, query)
            log, name = engine.log, type(engine).__name__
            assert log.total == sum(log.variant_counts.values()) == calls, name
            assert log.variant_counts == {type(query).__name__: calls}, name
    # the batched mean gradient is n first-order calls answered at once
    batched.mean_grad(np.zeros((3, 4)), None)
    assert batched.log.total == sum(batched.log.variant_counts.values()) == 2 + fsm_inst.n
    assert batched.log.variant_counts == {"SteepestCD": 2, "FirstOrder": fsm_inst.n}


def test_unknown_query_rejected():
    eng = fsm_engine()
    with pytest.raises(TypeError):
        answer(eng, np.zeros(4), object())


def dense_instance(Qs):
    """Components (1/2) w'Q_i w - q_i'w; the recorded minimizer only fixes d."""
    d = Qs[0].shape[0]
    comps = tuple((DenseSym(Q), np.linspace(-1.0, 1.0, d) * (i + 1)) for i, Q in enumerate(Qs))
    return QuadraticInstance(comps, MU, L, np.zeros(d), 0.0)


def test_batched_engines_answer_like_scalar_engines():
    # oracles.answer serves every engine: row s of a batched answer is the
    # scalar engine's answer at row s's point and indices, bit for bit
    seeds, n, d = 6, 5, 4
    rng = np.random.default_rng(3)
    fsm_inst = fsm_engine(seed=4, n=n, d=d).instance
    Ms = rng.normal(size=(n, d, d))
    dense = dense_instance([M @ M.T + np.eye(d) for M in Ms])
    W = rng.normal(size=(seeds, d))
    jv = rng.integers(n, size=seeds)
    iv = np.array([0, 1, 2, 3, 1, 0])
    c = rng.normal(size=d)

    def check(engine, scalar, W, batched_query, row_query):
        out = answer(engine, W, batched_query)
        for s in range(seeds):
            assert np.array_equal(out[s], answer(scalar, W[s], row_query(s))), (batched_query, s)

    for inst in (fsm_inst, dense):
        batched, scalar = BatchedEngine([inst], seeds, 1), NumericEngine(inst)
        check(batched, scalar, W, FirstOrder(-0.3, 0.7, jv, c),
              lambda s: FirstOrder(-0.3, 0.7, int(jv[s]), c))
        check(batched, scalar, W, FirstOrder(1.0, 0.0, jv),
              lambda s: FirstOrder(1.0, 0.0, int(jv[s])))
        check(batched, scalar, W, SteepestCD(iv, jv),
              lambda s: SteepestCD(int(iv[s]), int(jv[s])))

    nd = 8
    dual = rlm_instance(np.linspace(-1.2, 0.9, nd // 2), 0.05, nd)
    batched, scalar = BatchedDualEngine([dual], seeds, 1), DualNumericEngine(dual)
    A = rng.normal(size=(seeds, nd))
    jd = rng.integers(nd, size=seeds)
    check(batched, scalar, A, DualExactCD(jd), lambda s: DualExactCD(int(jd[s])))
    check(batched, scalar, A, DualGradStep(0.3, jd), lambda s: DualGradStep(0.3, int(jd[s])))


def test_zero_diagonal_raises_on_every_engine():
    Q = np.array([[2.0, 0.5], [0.5, 0.0]])
    inst = dense_instance([Q, Q])
    with pytest.raises(ZeroDivisionError):
        answer(NumericEngine(inst), np.ones(2), SteepestCD(1, 0))
    batched = BatchedEngine([inst], 3, 1)
    W = np.ones((3, 2))
    out = answer(batched, W, SteepestCD(np.array([0, 0, 0]), np.array([0, 1, 0])))
    assert np.all(out[:, 1] == 1.0)
    with pytest.raises(ZeroDivisionError):
        answer(batched, W, SteepestCD(np.array([0, 1, 0]), np.array([0, 1, 0])))
