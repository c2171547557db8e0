import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lblab.instances import (Block2Diag, DenseSym, QuadraticInstance, fsm_instance,
                             nesterov_chain, rlm_instance, stack_rows, toy_instance)
from lblab.optimizers import (DETERMINISTIC_NAMES, OPTIMIZER_NAMES,
                              BatchedDualEngine, BatchedEngine, Schedule, _drive,
                              audit_oblivious, batched_curves,
                              expected_error_curve, make_optimizer, make_rng,
                              run)
from lblab.oracles import FirstOrder, NumericEngine, answer
from lblab.trace import trace_oblivious

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
        sched = make_optimizer(name, L=L, mu=MU)
        assert not sched.stochastic
        a = run(sched, inst, 40, seed=0).errors
        b = run(sched, inst, 40, seed=123).errors
        assert np.array_equal(a, b)


def test_stochastic_runs_are_reproducible():
    inst = fsm()
    for name in ("sgd", "sag", "saga", "svrg", "sdca_primal", "cd_random"):
        sched = make_optimizer(name, L=L, mu=MU)
        a = run(sched, inst, 60, seed=7).errors
        b = run(sched, inst, 60, seed=7).errors
        assert np.array_equal(a, b)
        c = run(sched, inst, 60, seed=8).errors
        assert not np.array_equal(a, c)


def test_sdca_primal_default_step_reads_n_from_the_engine():
    # min(1/(4L), 1/(mu n)) at L = 2, mu = 1 is 1/16 on 16 components
    etas = np.linspace(-0.5, 0.5, 16)
    inst = fsm_instance(etas, 2.0, 1.0, R, 4)
    default = run(make_optimizer("sdca_primal", L=2.0, mu=1.0), inst, 40, seed=3).errors
    stepped = run(make_optimizer("sdca_primal", L=2.0, mu=1.0, step=1 / 16), inst, 40,
                  seed=3).errors
    assert np.array_equal(default, stepped)
    eighth = run(make_optimizer("sdca_primal", L=2.0, mu=1.0, step=1 / 8), inst, 40,
                 seed=3).errors
    assert not np.array_equal(default, eighth)


def test_zero_iterations_record():
    rec = run(make_optimizer("gd", L=L, mu=MU), fsm(), 0)
    assert len(rec.errors) == 1


def test_errors_indexed_by_oracle_calls():
    # gd on n components spends n calls per step: the error stays flat
    # within a step and drops only at multiples of n
    inst = fsm()
    rec = run(make_optimizer("gd", L=L, mu=MU), inst, 24)
    errs = rec.errors
    for c in range(25):
        if c % 8 != 0:
            assert errs[c] == errs[c - 1]
    assert errs[8] < errs[0]
    assert rec.log.total == 24
    assert rec.log.variant_counts == {"FirstOrder": 24}


def test_incompatible_oracle_family_rejected():
    dual = rlm_instance(np.zeros(4), 0.05, 8)
    with pytest.raises(ValueError):
        run(make_optimizer("gd", L=L, mu=MU), dual, 10)
    with pytest.raises(ValueError):
        run(make_optimizer("sdca"), fsm(), 10)


# run, audit_oblivious, batched_curves, expected_error_curve and
# trace_oblivious, each on one fsm instance (or its family name)
ENTRY_POINTS = {
    "run": lambda sched, k: run(sched, fsm(n=4), k),
    "audit_oblivious": lambda sched, k: audit_oblivious(sched, fsm(n=4), k),
    "batched_curves": lambda sched, k: batched_curves(sched, [fsm(n=4)], k, 2),
    "expected_error_curve":
        lambda sched, k: expected_error_curve(sched, [fsm(n=4)], [0.0], k, seeds=2),
    "trace_oblivious":
        lambda sched, k: trace_oblivious(sched, "fsm", k, n=4, d=4, L=L, mu=MU, R=R),
}
# fault -> (schedule, oracle calls, the one message `_drive` raises)
CONTRACT_FAULTS = {
    "wrong oracle family": ("sdca", 10, "sdca does not run on the primal oracle family"),
    "negative count": ("sag", -5, "iterations must be >= 0, got -5"),
    "L-BFGS off the scalar engines":
        ("lbfgs", 10, "lbfgs reads its answers; it runs on the scalar engines only"),
}
# run, audit_oblivious and expected_error_curve hand L-BFGS the scalar
# engine, so it is a fault only where the entry point batches or traces
CONTRACT_CASES = [(entry, fault) for entry in ENTRY_POINTS for fault in CONTRACT_FAULTS
                  if fault != "L-BFGS off the scalar engines"
                  or entry in ("batched_curves", "trace_oblivious")]


@pytest.mark.parametrize("entry, fault", CONTRACT_CASES)
def test_every_entry_point_refuses_each_contract_fault_with_one_message(entry, fault):
    name, k, message = CONTRACT_FAULTS[fault]
    with pytest.raises(ValueError) as err:
        ENTRY_POINTS[entry](make_optimizer(name, L=L, mu=MU), k)
    assert str(err.value) == message


def test_audit_accepts_oblivious_schedules():
    inst = fsm()
    dual = rlm_instance(np.zeros(4), 0.05, 8)
    for name in OPTIMIZER_NAMES:
        if name == "lbfgs":
            continue
        sched = make_optimizer(name, L=L, mu=MU)
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


def test_step_without_oracle_call_raises():
    # every step of every schedule calls the oracle, so one that does not
    # is a schedule error
    def init(engine):
        return {"w": engine.zero()}

    def stp(state, k, ask, engine):
        if k < 3:
            state["w"] = state["w"] - ask(state["w"], FirstOrder(1.0, 0.0, 0)) * 1e-3

    idle = Schedule("idle", True, init, stp, stochastic=False)
    with pytest.raises(RuntimeError, match="idle step 3 made no oracle call"):
        run(idle, fsm(), 10)
    assert len(run(idle, fsm(), 3).errors) == 4


def test_lbfgs_is_declared_non_oblivious():
    sched = make_optimizer("lbfgs", L=L, mu=MU)
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
                sched = make_optimizer(name, L=L, mu=MU, **kw)
                target = dual if name == "sdca" else inst
                curves = batched_curves(sched, [target], 50, 4)
                for s in range(4):
                    ref = run(sched, target, 50, seed=s).errors
                    assert np.allclose(curves[s], ref, rtol=1e-9, atol=1e-15), (name, n, kw)


def test_without_replacement_draws_permutation_blocks():
    n, iterations, seeds = 6, 40, 5
    engine = BatchedEngine([fsm(n=n)], seeds, iterations, replacement=False)
    draws = np.array([engine.draw("n")[0] for _ in range(iterations)])
    for start in range(0, iterations, n):
        block = draws[start:start + n]
        assert all(len(set(block[:, s])) == len(block) for s in range(seeds))
        if len(block) == n:
            assert np.array_equal(np.sort(block, axis=0),
                                  np.repeat(np.arange(n)[:, None], seeds, axis=1))
    assert np.array_equal(draws[:n, 2], make_rng(2).permutation(n))
    with pytest.raises(ValueError):
        batched_curves(make_optimizer("cd_random"), [fsm(n=n)], 10, 2, replacement=False)


def test_coordinate_descent_reads_dimension_from_engine():
    toy = toy_instance(2.0, 1.0, 4.0)
    for name in ("cd_cyclic", "cd_random"):
        rec = run(make_optimizer(name), toy, 6)
        assert abs(rec.errors[1]) <= 1e-15  # one exact step solves the scalar problem
    # one coordinate and one component: every seed repeats the scalar run
    cd_random = make_optimizer("cd_random")
    curves = batched_curves(cd_random, [toy], 6, 3)
    assert np.allclose(curves, run(cd_random, toy, 6).errors, rtol=1e-9, atol=1e-15)
    # a deterministic schedule's batch repeats the scalar run in every row
    cd_cyclic = make_optimizer("cd_cyclic")
    curves = batched_curves(cd_cyclic, [toy], 6, 3)
    assert all(_same_bits(row, run(cd_cyclic, toy, 6).errors) for row in curves)


def test_sdca_decays_in_expectation():
    dual = rlm_instance(np.full(50, -math.pi / 2), 0.01, 100)
    curves = batched_curves(make_optimizer("sdca"), [dual], 400, 30)
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
    lb = run(make_optimizer("lbfgs", L=L, mu=MU, memory=100), inst, 300)
    agd = run(make_optimizer("agd", L=L, mu=MU), inst, 300)
    assert lb.errors.min() <= 1e-10
    first_lb = int(np.argmax(lb.errors <= 1e-10))
    first_agd = int(np.argmax(agd.errors <= 1e-10)) if np.any(agd.errors <= 1e-10) else 301
    assert first_lb < first_agd


def _reference_lbfgs(memory):
    """The L-BFGS closure as a plain two-loop: s.y recomputed for every pair
    on every step, and a stalled step recomputed in full."""
    def init(engine):
        return {"w": engine.zero(), "g": None, "S": [], "Y": []}
    def stp(state, k, ask, engine):
        w = state["w"]
        if state["g"] is None:
            state["g"] = engine.mean_grad(w, ask)
            return
        g = state["g"]
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(state["S"]), reversed(state["Y"])):
            a = float(s @ q) / float(s @ y)
            alphas.append(a)
            q = q - a * y
        if state["S"]:
            s, y = state["S"][-1], state["Y"][-1]
            q = q * (float(s @ y) / float(y @ y))
        for (s, y), a in zip(zip(state["S"], state["Y"]), reversed(alphas)):
            b = float(y @ q) / float(s @ y)
            q = q + (a - b) * s
        pdir = -q
        gp = engine.mean_grad(w + pdir, ask)
        qd = gp - g
        curv = float(pdir @ qd)
        if curv <= 0:
            return
        t = -float(g @ pdir) / curv
        state["w"] = w + t * pdir
        state["g"] = g + t * qd
        state["S"].append(t * pdir)
        state["Y"].append(t * qd)
        if len(state["S"]) > memory:
            state["S"].pop(0)
            state["Y"].pop(0)
    return Schedule("lbfgs", False, init, stp, stochastic=False)


@pytest.mark.parametrize("memory", [1, 5, 100])
@pytest.mark.parametrize("d", [2, 10, 50, 200])
def test_lbfgs_equals_plain_two_loop(d, memory):
    inst = nesterov_chain(d, L, MU)
    fast = make_optimizer("lbfgs", L=L, mu=MU, memory=memory)
    stalled_at = []
    def watched(state, k, ask, engine):
        fast.step(state, k, ask, engine)
        if state["stalled"] is not None and not stalled_at:
            stalled_at.append(k)
    calls = 801  # fig1 --d 200: one init call and two per iteration over 400
    got = run(Schedule("lbfgs", False, fast.init, watched, stochastic=False), inst, calls)
    want = run(_reference_lbfgs(memory), inst, calls)
    assert np.array_equal(got.errors, want.errors)
    assert got.log.variant_counts == want.log.variant_counts
    # the stall comes before step 400, so most later steps repeat it
    assert stalled_at and stalled_at[0] < calls // 2


def test_expected_error_curve_shapes():
    grid = np.linspace(-(L - MU) / 2, (L - MU) / 2, 5)
    factory = lambda e: fsm_instance(np.full(8, e), L, MU, R, 4)
    insts = [factory(e) for e in grid]
    with pytest.raises(ValueError, match="4 instances for 5 grid points"):
        expected_error_curve(make_optimizer("gd", L=L, mu=MU), insts[:4], grid, 30)
    for name in ("sgd", "svrg", "cd_random"):
        sched = make_optimizer(name, L=L, mu=MU, epoch=5)
        curve = expected_error_curve(sched, insts, grid, 30, seeds=10)
        assert curve.worst_mean.shape == (31,)
        assert np.all(curve.lower_confidence() <= curve.worst_mean)
        # the grid batch reduces each grid point's ten seeds as a batch of
        # that point alone would, then takes the worst mean over the grid
        per_point = [batched_curves(sched, [factory(e)], 30, 10) for e in grid]
        means = np.array([c.mean(axis=0) for c in per_point])
        errs = np.array([c.std(axis=0, ddof=1) / math.sqrt(10) for c in per_point])
        worst, cols = np.argmax(means, axis=0), np.arange(31)
        assert np.array_equal(curve.worst_mean, means[worst, cols])
        assert np.array_equal(curve.stderr, errs[worst, cols])
        assert np.array_equal(curve.worst_param, grid[worst])
    # a deterministic schedule's curve is the worst of its scalar runs, bit
    # for bit, and so is L-BFGS's, which runs grid point by grid point
    for name in DETERMINISTIC_NAMES:
        det = make_optimizer(name, L=L, mu=MU)
        dcurve = expected_error_curve(det, insts, grid, 30, seeds=10)
        runs = np.array([run(det, factory(e), 30).errors for e in grid])
        worst, cols = np.argmax(runs, axis=0), np.arange(31)
        assert _same_bits(dcurve.worst_mean, runs[worst, cols]), name
        assert np.array_equal(dcurve.worst_param, grid[worst])
        assert np.all(dcurve.stderr == 0)


def _dense_grid(n, d, rng):
    """Instances of n DenseSym components in d dimensions, one per scale."""
    def dense(scale):
        comps = []
        for _ in range(n):
            M = rng.normal(size=(d, d))
            comps.append((DenseSym(scale * (M @ M.T + np.eye(d))), rng.normal(size=d)))
        return QuadraticInstance(tuple(comps), MU, L, np.zeros(d), 0.0)
    return [dense(scale) for scale in (0.5, 1.0)]


def _grid_cases(n):
    """(schedule, instance grid, replacement) for every stochastic schedule on
    its family at n components, under default and non-default steps, plus
    sag on the toy family and three schedules on dense d > 1 components."""
    fsm_grid = [fsm(seed=g, n=n) for g in range(3)]
    rlm_grid = [rlm_instance(np.full(n // 2, psi), 0.05, n) for psi in (-1.5, 0.2, 1.1)]
    cases = []
    for name in ("sgd", "sag", "saga", "svrg", "sdca_primal", "cd_random", "sdca"):
        variants = [{}, {"step": 1 / 500}] + ([{"epoch": 3}] if name == "svrg" else [])
        for kw in variants:
            sched = make_optimizer(name, L=L, mu=MU, **kw)
            grid = rlm_grid if name == "sdca" else fsm_grid
            for replacement in (True, False) if name != "cd_random" else (True,):
                cases.append((sched, grid, replacement))
    toy_grid = [toy_instance(eta, MU, L) for eta in (MU, 7.0, L)]
    sag = make_optimizer("sag", L=L, mu=MU)
    cases += [(sag, toy_grid, True), (sag, toy_grid, False)]
    dense_grid = _dense_grid(n, 4, np.random.default_rng(n))
    cases += [(make_optimizer(name, L=L, mu=MU), dense_grid, True)
              for name in ("sag", "svrg", "cd_random")]
    return cases


def test_grid_batch_rows_equal_single_instance_runs():
    # row g*seeds + s of a grid batch is instance g's run at seed s, bit for
    # bit, whatever else the batch holds
    iterations, seeds = 40, 4
    for n in (6, 8):
        for sched, grid, replacement in _grid_cases(n):
            blocks = batched_curves(sched, grid, iterations, seeds, replacement)
            blocks = blocks.reshape(len(grid), seeds, iterations + 1)
            for g, inst in enumerate(grid):
                alone = batched_curves(sched, [inst], iterations, seeds, replacement)
                assert np.array_equal(blocks[g], alone), (sched.name, n, g, replacement)
            fewer = batched_curves(sched, grid[1:], iterations, 2, replacement)
            assert np.array_equal(fewer.reshape(len(grid) - 1, 2, -1), blocks[1:, :2])


def _exact_grids():
    """(label, instance grid) pairs for the stacked runs: fsm grids whose
    components have distinct etas (signed zeros, repeats shared by every
    grid point or by some) over several n, d and kappa, toy grids and a
    dense grid."""
    grids = []
    for n, d, kappa in ((6, 4, 100.0), (5, 7, 37.0), (3, 2, 4.5), (1, 30, 1000.0)):
        Lg = kappa * MU
        half = (Lg - MU) / 2
        rng = np.random.default_rng(n * d)
        grid = []
        for g in range(4):
            etas = rng.uniform(-half, half, size=n)
            if n >= 3:
                etas[:3] = (0.0, -0.0, 0.0)  # component 2 repeats component 0
            if n >= 5:
                etas[3] = etas[4] if g % 2 else half  # repeated at half the points
            grid.append(fsm_instance(etas, Lg, MU, R, d))
        grids.append((f"fsm n={n} d={d} kappa={kappa}", grid))
        grids.append((f"fsm n={n} d={d} kappa={kappa} one eta",
                       [fsm_instance(np.full(n, e), Lg, MU, R, d)
                        for e in np.linspace(-half, half, 5)]))
        grids.append((f"toy kappa={kappa}",
                      [toy_instance(e, MU, Lg) for e in np.linspace(MU, Lg, 6)]))
    grids.append(("dense d=4", _dense_grid(4, 4, np.random.default_rng(11))))
    return grids


def test_exact_grid_rows_equal_run_bit_for_bit():
    # every row of the stacked run is `run` on its instance, bit for bit,
    # with the same oracle call count, at one seed per grid point or more
    iterations = 60
    for label, grid in _exact_grids():
        for name in ("gd", "agd", "hb", "cd_cyclic"):
            inst0 = grid[0]
            sched = make_optimizer(name, L=inst0.L, mu=inst0.mu)
            for seeds in (1, 2):
                engine = NumericEngine(stack_rows(grid, seeds))
                _, curves = _drive(sched, engine, lambda W, q: answer(engine, W, q),
                                   engine.instance.suboptimality, iterations)
                assert _same_bits(curves, batched_curves(sched, grid, iterations, seeds))
                for g, inst in enumerate(grid):
                    ref = run(sched, inst, iterations)
                    assert engine.log.total == ref.log.total, (label, name)
                    for s in range(seeds):
                        assert _same_bits(curves[g * seeds + s], ref.errors), (label, name, g)


def test_exact_engine_shares_terms_of_bit_identical_components():
    grid = [fsm_instance([0.0, -0.0, 0.0, e, e], L, MU, R, 4) for e in (3.0, -3.0)]
    assert stack_rows(grid, 1)._terms[1] == (0, 1, 0, 2, 2)
    grid.append(fsm_instance([0.0, -0.0, 0.0, 1.0, 2.0], L, MU, R, 4))
    assert stack_rows(grid, 1)._terms[1] == (0, 1, 0, 2, 3)


@st.composite
def _random_grids(draw):
    """An fsm grid (n 1-6, d 2-6, kappa log-uniform on [1.5, 1e4], 1-4
    points) whose etas repeat a few values, +-0.0 among them, or a toy grid,
    which takes the dense stacked form."""
    kappa = 10.0 ** draw(st.floats(math.log10(1.5), 4.0))
    Lg, points = kappa * MU, draw(st.integers(1, 4))
    if draw(st.booleans()):
        return [toy_instance(draw(st.floats(MU, Lg)), MU, Lg) for _ in range(points)]
    n, d, half = draw(st.integers(1, 6)), draw(st.integers(2, 6)), (Lg - MU) / 2
    values = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-half, half),
                           min_size=1, max_size=3))
    pick = st.lists(st.sampled_from(values), min_size=n, max_size=n)
    return [fsm_instance(draw(pick), Lg, MU, R, d) for _ in range(points)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_random_grids(), st.integers(1, 2))
def test_deterministic_grid_rows_equal_run_for_random_parameters(grid, seeds):
    iterations = 30
    for name in ("gd", "agd", "hb", "cd_cyclic"):
        sched = make_optimizer(name, L=grid[0].L, mu=MU)
        curves = batched_curves(sched, grid, iterations, seeds)
        for g, inst in enumerate(grid):
            ref = run(sched, inst, iterations).errors
            for s in range(seeds):
                assert _same_bits(curves[g * seeds + s], ref), (name, g, s)


def test_batched_curves_refuse_what_the_exact_engine_cannot_run():
    # L-BFGS reads its answers; block components of unlike h would take the
    # dense kernels, whose rounding is gemv's rather than Block2Diag's
    with pytest.raises(ValueError):
        batched_curves(make_optimizer("lbfgs", L=L, mu=MU), [fsm()], 10, 1)
    unlike = [fsm_instance(np.full(4, 3.0), Lg, MU, R, 4) for Lg in (L, L / 2)]
    with pytest.raises(ValueError):
        batched_curves(make_optimizer("gd", L=L, mu=MU), unlike, 10, 1)


def test_grid_batch_of_unlike_blocks_is_refused():
    # fsm instances of different L have different diagonal blocks, so they
    # do not share the block kernel's h; `stack_rows` refuses them for the
    # Monte-Carlo schedules as for the deterministic ones
    grid = [fsm_instance(np.full(4, 3.0), Lg, MU, R, 4) for Lg in (L, L / 2)]
    sched = make_optimizer("saga", L=L, mu=MU)
    with pytest.raises(ValueError):
        batched_curves(sched, grid, 10, 1)
    with pytest.raises(ValueError):
        BatchedEngine(grid, 2, 10)
    assert BatchedEngine(grid[:1], 2, 10).block
    # each instance alone takes the block kernels
    for inst in grid:
        blocks = batched_curves(sched, [inst], 30, 2)
        for s in range(2):
            ref = run(sched, inst, 30, seed=s).errors
            assert np.allclose(blocks[s], ref, rtol=1e-9, atol=1e-15)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _einsum_suboptimality(engine, W):
    """The batched suboptimality as the three-operand einsum computes it."""
    Wg = W.reshape(engine.grid, engine.seeds, engine.d)
    val = (0.5 * np.einsum("gsi,gij,gsj->gs", Wg, engine.A, Wg)
           - (Wg @ engine.qbar[:, :, None])[..., 0])
    return val.ravel() - engine.opt


def test_suboptimality_equals_three_operand_einsum_bit_for_bit():
    """The batched suboptimality adds only the entries of the mean matrices
    that are nonzero at some grid point; equality with the einsum is
    promised at every finite point."""
    fsm_grid = [fsm_instance(np.full(8, eta), L, MU, R, 4)
                for eta in np.linspace(-(L - MU) / 2, (L - MU) / 2, 9)]
    assert any(inst.mean_matrix()[0, 1] == 0 for inst in fsm_grid)  # the eta = 0 point
    cancel = np.array([3.0, -3.0, 0.1, -0.1])  # mean off-diagonal exactly 0
    grids = {
        "fsm": fsm_grid,
        "dense": _dense_grid(6, 4, np.random.default_rng(2)),
        "cancels everywhere": [fsm_instance(s * cancel, L, MU, R, 3) for s in (1.0, 2.0)],
        "cancels at one point": [fsm_instance(cancel + shift, L, MU, R, 3)
                                 for shift in (0.0, 0.5)],
        # no diagonal term, so at a signed-zero point every term can be -0
        "zero diagonal": [QuadraticInstance(((DenseSym(np.array([[0.0, s], [s, 0.0]])),
                                              np.zeros(2)),), MU, L, np.zeros(2), 0.0)
                          for s in (1.0, -2.0)],
    }
    assert all(inst.mean_matrix()[0, 1] == 0 for inst in grids["cancels everywhere"])
    rng = np.random.default_rng(7)
    seeds = 5
    for label, grid in grids.items():
        engine = BatchedEngine(grid, seeds, 10)
        rows, d = len(engine.rows), engine.d
        signs = np.where(rng.random((rows, d)) < 0.5, -1.0, 1.0)
        points = [engine.zero(), -engine.zero(), signs * 0.0]  # call 0 and signed zeros
        for _ in range(20):  # finite points of mixed magnitudes and signs
            points.append(rng.normal(size=(rows, d))
                          * 10.0 ** rng.integers(-12, 12, size=(rows, d)))
        tiny = np.where(rng.random((rows, d)) < 0.5, 0.0, rng.normal(size=(rows, d)) * 1e-160)
        points.append(tiny)  # products that underflow to +-0
        for W in points:
            assert _same_bits(engine.suboptimality(W), _einsum_suboptimality(engine, W)), label


def test_batched_lookups_equal_two_index_forms():
    # every flat-offset lookup reads (and writes) what x[rows, j] does, on a
    # grid of G > 1 instances, for the block and the dense kernels
    rng = np.random.default_rng(3)
    seeds, iterations = 4, 12
    fsm_grid = [fsm(seed=g, n=6) for g in range(3)]
    dense_grid = _dense_grid(6, 4, np.random.default_rng(5))
    for grid in (fsm_grid, dense_grid):
        engine = BatchedEngine(grid, seeds, iterations)
        assert engine.block == (grid is fsm_grid)
        rows, n, d = engine.rows, engine.n, engine.d
        jv, iv = rng.integers(n, size=len(rows)), rng.integers(d, size=len(rows))
        W = rng.normal(size=(len(rows), d))
        table = engine.table()
        assert table.shape == (len(rows), n, d) and table.flags.c_contiguous
        table[:] = rng.normal(size=table.shape)
        assert _same_bits(engine.gather(table, jv), table[rows, jv])
        value, want = rng.normal(size=(len(rows), d)), table.copy()
        want[rows, jv] = value
        engine.scatter(table, jv, value)
        # the write lands in the table itself: a reshape that copied (of a
        # table that was not C-contiguous) would drop it without an error
        assert _same_bits(table, want)
        t, want = rng.normal(size=len(rows)), W.copy()
        want[rows, iv] += t
        assert _same_bits(engine.add_to_entry(W, iv, t), want)
        # component lookups, against the per-instance tables indexed by
        # (grid point of the row, component)
        g = rows // seeds
        comps = [inst.components for inst in grid]
        Qs = np.stack([[Q.dense() for Q, _ in c] for c in comps])
        qs = np.stack([[q for _, q in c] for c in comps])
        if engine.block:
            e = np.stack([[Q.e for Q, _ in c] for c in comps])[g]
            Q0 = comps[0][0][0]
            want = Block2Diag(d, Q0.h, e[rows, jv], Q0.tail).matvec(W) - comps[0][0][1]
            assert _same_bits(engine.comp_grad(jv, W), want)
            assert _same_bits(engine.grad_entry(jv, iv, W), want[rows, iv])
        else:
            want = (Qs[g, jv] @ W[:, :, None])[:, :, 0] - qs[g, jv]
            assert _same_bits(engine.comp_grad(jv, W), want)
            want = (Qs[g, jv, iv][:, None, :] @ W[:, :, None])[:, 0, 0] - qs[g, jv, iv]
            assert _same_bits(engine.grad_entry(jv, iv, W), want)
        assert _same_bits(np.asarray(engine.diag(jv, iv), dtype=float), Qs[g, jv, iv, iv])
    # draws: row g*seeds + s reads seed s's stream, with and without replacement
    for replacement, kinds in ((True, ("d", "n")), (True, ("n",)), (False, ("n",))):
        engine = BatchedEngine(fsm_grid, seeds, iterations, replacement)
        if replacement:
            bounds = [engine.n if kind == "n" else engine.d for kind in kinds]
            per_seed = [make_rng(s).integers(bounds, size=(iterations, len(kinds)))
                        for s in range(seeds)]
        else:
            rngs = [make_rng(s) for s in range(seeds)]  # two permutations each
            per_seed = [np.concatenate([rng.permutation(engine.n), rng.permutation(engine.n)])
                        [:, None] for rng in rngs]
        streams = np.stack(per_seed, axis=2)
        for k in range(iterations):
            assert np.array_equal(engine.draw(*kinds), streams[k][:, engine.rows % seeds])
    # the dual engine's entries of points and of its per-row pair entries
    rlm_grid = [rlm_instance(np.full(4, psi), 0.05, 8) for psi in (-1.2, 0.3, 0.9)]
    engine = BatchedDualEngine(rlm_grid, seeds, iterations)
    rows = engine.rows
    alpha = rng.normal(size=(len(rows), engine.n))
    for x in (alpha, engine.blocks[1]):
        i = rng.integers(x.shape[1], size=len(rows))
        assert _same_bits(engine._at(x, i), x[rows, i])
    jv = rng.integers(engine.n, size=len(rows))
    t, want = rng.normal(size=len(rows)), alpha.copy()
    want[rows, jv] += t
    assert _same_bits(engine.add_to_entry(alpha, jv, t), want)


def test_batch_rejects_unlike_shapes():
    with pytest.raises(ValueError):
        BatchedEngine([fsm(n=6), fsm(n=8)], 2, 10)
    with pytest.raises(ValueError):
        BatchedEngine([], 2, 10)
    with pytest.raises(ValueError):
        BatchedDualEngine([rlm_instance(np.zeros(2), lam, 4) for lam in (0.1, 0.2)], 2, 10)
    with pytest.raises(ValueError):
        BatchedDualEngine([rlm_instance(np.zeros(n // 2), 0.1, n) for n in (4, 6)], 2, 10)
    with pytest.raises(ValueError):  # n = d = 4 on both, but not one kind of instance
        BatchedDualEngine([rlm_instance(np.zeros(2), 0.1, 4), fsm(n=4)], 2, 10)


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError):
        make_optimizer("adam", L=L, mu=MU)


def test_deterministic_names_consistent():
    # the benchmark's work counts read the tuple, the engines read the flag
    for name in DETERMINISTIC_NAMES:
        assert name in OPTIMIZER_NAMES
    for name in OPTIMIZER_NAMES:
        stochastic = make_optimizer(name, L=L, mu=MU).stochastic
        assert stochastic == (name not in DETERMINISTIC_NAMES), name
