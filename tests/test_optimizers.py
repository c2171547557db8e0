import math

import numpy as np
import pytest

from lblab.instances import (fsm_instance, nesterov_chain, rlm_instance,
                             toy_instance)
from lblab.optimizers import (DETERMINISTIC_NAMES, OPTIMIZER_NAMES,
                              BatchedEngine, Schedule, audit_oblivious,
                              batched_curves, expected_error_curve,
                              make_optimizer, make_rng, run)
from lblab.oracles import FirstOrder

L, MU, R = 100.0, 1.0, 1.0


def fsm(seed=0, n=8, d=4):
    rng = np.random.default_rng(seed)
    etas = rng.uniform(-(L - MU) / 2, (L - MU) / 2, size=n)
    return fsm_instance(etas, L, MU, R, d)


def test_gd_toy_contraction_guarantee():
    # one GD step with gamma = 1/L contracts distance by (1 - eta/L), so
    # suboptimality contracts by (1 - eta/L)^2 per step, worst case eta = mu
    Lt, mu = 4.0, 1.0
    sched = make_optimizer("gd", L=Lt, mu=mu)
    for eta in np.linspace(mu, Lt, 9):
        inst = toy_instance(eta, mu, Lt)
        rec = run(sched, inst, 50)
        rate = (1 - eta / Lt) ** 2
        bound = rec.errors[0] * np.maximum(rate, 1e-300) ** np.arange(51)
        assert np.all(rec.errors <= bound + 1e-15)


def test_deterministic_schedules_ignore_seed():
    inst = fsm()
    for name in ("gd", "agd", "hb", "cd_cyclic"):
        sched = make_optimizer(name, L=L, mu=MU, n=8)
        assert not sched.stochastic
        a = run(sched, inst, 40, seed=0).errors
        b = run(sched, inst, 40, seed=123).errors
        assert np.array_equal(a, b)


def test_stochastic_runs_are_reproducible():
    inst = fsm()
    for name in ("sgd", "sag", "saga", "svrg", "sdca_primal", "cd_random"):
        sched = make_optimizer(name, L=L, mu=MU, n=8)
        a = run(sched, inst, 60, seed=7).errors
        b = run(sched, inst, 60, seed=7).errors
        assert np.array_equal(a, b)
        c = run(sched, inst, 60, seed=8).errors
        assert not np.array_equal(a, c)


def test_zero_iterations_record():
    rec = run(make_optimizer("gd", L=L, mu=MU, n=8), fsm(), 0)
    assert len(rec.errors) == 1
    assert rec.calls == 0


def test_errors_indexed_by_oracle_calls():
    # gd on n components spends n calls per step: the error stays flat
    # within a step and drops only at multiples of n
    inst = fsm()
    rec = run(make_optimizer("gd", L=L, mu=MU, n=8), inst, 24)
    errs = rec.errors
    for c in range(25):
        if c % 8 != 0:
            assert errs[c] == errs[c - 1]
    assert errs[8] < errs[0]
    assert rec.log.total == 24


def test_incompatible_oracle_family_rejected():
    dual = rlm_instance(np.zeros(4), 0.05, 8)
    with pytest.raises(ValueError):
        run(make_optimizer("gd", L=L, mu=MU, n=8), dual, 10)
    with pytest.raises(ValueError):
        run(make_optimizer("sdca", n=8), fsm(), 10)


def test_audit_accepts_oblivious_schedules():
    inst = fsm()
    dual = rlm_instance(np.zeros(4), 0.05, 8)
    for name in OPTIMIZER_NAMES:
        if name == "lbfgs":
            continue
        sched = make_optimizer(name, L=L, mu=MU, n=8)
        target = dual if name == "sdca" else inst
        assert audit_oblivious(sched, target, 40), name


def test_audit_rejects_adaptive_schedule():
    # the component queried second depends on the sign of the first answer,
    # so a zeroed oracle changes the query stream
    n = 8

    def init(engine):
        return {"w": engine.zero()}

    def stp(state, k, ask, engine):
        g = ask(state["w"], FirstOrder(1.0, 0.0, 0))
        j = 1 if g[0] < 0 else n - 1
        g2 = ask(state["w"], FirstOrder(1.0, 0.0, j))
        state["w"] = state["w"] - (g + g2) * 1e-3

    adaptive = Schedule("adaptive", True, init, stp, stochastic=False)
    assert not audit_oblivious(adaptive, fsm(), 20)


def test_lbfgs_is_declared_non_oblivious():
    sched = make_optimizer("lbfgs", L=L, mu=MU, n=1)
    assert not sched.oblivious


def test_batched_curves_match_scalar_runs():
    # the batched engine runs the schedules' own closures, so batched and
    # scalar runs agree under every parameterization, not only the defaults
    for n in (8, 6):
        inst = fsm(n=n)
        dual = rlm_instance(np.linspace(-1.2, 1.2, n // 2), 0.05, n)
        for name in ("sgd", "sag", "saga", "svrg", "sdca_primal", "cd_random", "sdca"):
            variants = [{}, {"step": 1 / 500}] + ([{"epoch": 5}] if name == "svrg" else [])
            for kw in variants:
                sched = make_optimizer(name, L=L, mu=MU, n=n, **kw)
                target = dual if name == "sdca" else inst
                curves = batched_curves(sched, target, 50, 4)
                for s in range(4):
                    ref = run(sched, target, 50, seed=s).errors
                    assert np.allclose(curves[s], ref, rtol=1e-9, atol=1e-15), (name, n, kw)


def test_without_replacement_draws_permutation_blocks():
    n, iterations, seeds = 6, 40, 5
    engine = BatchedEngine(fsm(n=n), seeds, iterations, replacement=False)
    draws = np.array([engine.draw("n")[0] for _ in range(iterations)])
    for start in range(0, iterations, n):
        block = draws[start:start + n]
        assert all(len(set(block[:, s])) == len(block) for s in range(seeds))
        if len(block) == n:
            assert np.array_equal(np.sort(block, axis=0),
                                  np.repeat(np.arange(n)[:, None], seeds, axis=1))
    assert np.array_equal(draws[:n, 2], make_rng(2).permutation(n))
    with pytest.raises(ValueError):
        batched_curves(make_optimizer("cd_random"), fsm(n=n), 10, 2, replacement=False)


def test_coordinate_descent_reads_dimension_from_engine():
    toy = toy_instance(2.0, 1.0, 4.0)
    for name in ("cd_cyclic", "cd_random"):
        rec = run(make_optimizer(name), toy, 6)
        assert abs(rec.errors[1]) <= 1e-15  # one exact step solves the scalar problem
    # one coordinate and one component: every seed repeats the scalar run
    cd_random = make_optimizer("cd_random")
    curves = batched_curves(cd_random, toy, 6, 3)
    assert np.allclose(curves, run(cd_random, toy, 6).errors, rtol=1e-9, atol=1e-15)
    with pytest.raises(ValueError):  # deterministic schedules stay scalar
        batched_curves(make_optimizer("cd_cyclic"), toy, 6, 3)


def test_sdca_decays_in_expectation():
    dual = rlm_instance(np.full(50, -math.pi / 2), 0.01, 100)
    curves = batched_curves(make_optimizer("sdca", n=100), dual, 400, 30)
    mean = curves.mean(axis=0)
    assert mean[-1] < 0.5 * mean[0]


def test_philox_streams_differ_by_seed():
    a = make_rng(0).integers(8, size=16)
    b = make_rng(1).integers(8, size=16)
    assert not np.array_equal(a, b)
    assert np.array_equal(make_rng(0).integers(8, size=16), a)


def test_lbfgs_beats_momentum_on_chain():
    d = 200
    inst = nesterov_chain(d, L, MU)
    lb = run(make_optimizer("lbfgs", L=L, mu=MU, n=1, memory=100), inst, 300)
    agd = run(make_optimizer("agd", L=L, mu=MU, n=1), inst, 300)
    assert lb.errors.min() <= 1e-10
    first_lb = int(np.argmax(lb.errors <= 1e-10))
    first_agd = int(np.argmax(agd.errors <= 1e-10)) if np.any(agd.errors <= 1e-10) else 301
    assert first_lb < first_agd


def test_expected_error_curve_shapes():
    sched = make_optimizer("sgd", L=L, mu=MU, n=8)
    grid = np.linspace(-(L - MU) / 2, (L - MU) / 2, 5)
    curve = expected_error_curve(sched, lambda e: fsm_instance(np.full(8, e), L, MU, R, 4),
                                 grid, 30, seeds=10)
    assert curve.worst_mean.shape == (31,)
    assert np.all(curve.lower_confidence() <= curve.worst_mean)
    assert curve.seeds == 10
    det = make_optimizer("gd", L=L, mu=MU, n=8)
    dcurve = expected_error_curve(det, lambda e: fsm_instance(np.full(8, e), L, MU, R, 4),
                                  grid, 30, seeds=10)
    assert dcurve.seeds == 1
    assert np.all(dcurve.stderr == 0)


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError):
        make_optimizer("adam", L=L, mu=MU)


def test_deterministic_names_consistent():
    for name in DETERMINISTIC_NAMES:
        assert name in OPTIMIZER_NAMES
