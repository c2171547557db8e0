"""Optimizers expressed as oracle-query schedules.

A Schedule's parameter choices are functions of (step index, index stream)
only; it sees oracle answers exclusively through the `ask` callback, whose
return values feed the iterate arithmetic but never the parameter choices.
That is what "oblivious" means here, and `audit_oblivious` re-runs a
schedule against a zeroed oracle to confirm the query stream is unchanged.

L-BFGS is the one deliberate exception (declared non-oblivious): its
two-loop direction and exact line search read the answers.

Each schedule is defined once, as the step closures `make_optimizer`
returns.  They reach index draws, component tables and the mean gradient
only through engine operations, and every engine answers their queries
through `oracles.answer`, so the same closures run on the scalar engines
(`run`), the symbolic engines (`trace.trace_oblivious`) and the batched
engines below (`batched_curves`), whose points hold one row per (grid
point, seed) pair.  Each engine owns its index stream and counts its
oracle calls.  `run`, `batched_curves`, `audit_oblivious` and
`trace_oblivious` share one loop, `_drive`, that measures the tracked point
per oracle call (call 0 = initialization): suboptimality, the x-axis the
lower-bound envelopes are stated in, or the tracer's degree budget.  `expected_error_curve` runs a
stochastic schedule once over its whole parameter grid and averages each
grid point's curves over seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .instances import Block2Diag, RlmInstance
from .oracles import (CallLog, DualExactCD, DualNumericEngine, FirstOrder,
                      NumericEngine, PairOracle, SteepestCD, answer)

OPTIMIZER_NAMES = ("gd", "agd", "hb", "sgd", "sag", "saga", "svrg", "sdca",
                   "sdca_primal", "cd_cyclic", "cd_random", "lbfgs")
DUAL_NAMES = ("sdca",)
DETERMINISTIC_NAMES = ("gd", "agd", "hb", "cd_cyclic", "lbfgs")


@dataclass
class Schedule:
    """`init(engine)` returns a fresh state dict whose "w" is the tracked
    point; `step(state, k, ask, engine)` advances it by step k in place."""

    name: str
    oblivious: bool
    init: object
    step: object
    stochastic: bool = True


@dataclass
class RunRecord:
    name: str
    seed: int
    errors: np.ndarray  # errors[c] = suboptimality after c oracle calls
    log: CallLog

    @property
    def calls(self) -> int:
        return len(self.errors) - 1


def make_optimizer(name: str, L=None, mu=None, step=None, epoch=None,
                   memory=100) -> Schedule:
    """Build a named Schedule.

    Steps default to the standard constants: gd/agd 1/L, hb Polyak's
    4/(sqrt L + sqrt mu)^2, sag 1/(16L), saga 1/(3L), svrg 1/(10L) with
    epoch length 2n, sgd 1/(2L), sdca_primal min(1/(4L), 1/(mu n)).  The
    counts n and d are read from the engine the schedule runs on.
    """
    if name not in OPTIMIZER_NAMES:
        raise ValueError(f"unknown optimizer {name!r}")
    if name not in ("sdca", "cd_cyclic", "cd_random") and L is None:
        raise ValueError(f"{name} requires L")
    kappa = (L / mu) if (L is not None and mu is not None) else None

    if name == "gd":
        gamma = step if step is not None else 1.0 / L
        def init(engine):
            return {"w": engine.zero()}
        def stp(state, k, ask, engine):
            state["w"] = engine.mean_grad(state["w"], ask, -gamma, 1.0)
        return Schedule(name, True, init, stp, stochastic=False)

    if name == "agd":
        if kappa is None:
            raise ValueError("agd requires L and mu")
        gamma = step if step is not None else 1.0 / L
        beta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
        def init(engine):
            z = engine.zero()
            return {"w": z, "w_prev": z}
        def stp(state, k, ask, engine):
            w, wp = state["w"], state["w_prev"]
            y = w * (1 + beta) - wp * beta
            state["w_prev"] = w
            state["w"] = engine.mean_grad(y, ask, -gamma, 1.0)
        return Schedule(name, True, init, stp, stochastic=False)

    if name == "hb":
        if kappa is None:
            raise ValueError("hb requires L and mu")
        alpha = step if step is not None else 4.0 / (math.sqrt(L) + math.sqrt(mu)) ** 2
        beta = ((math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)) ** 2
        def init(engine):
            z = engine.zero()
            return {"w": z, "w_prev": z}
        def stp(state, k, ask, engine):
            w, wp = state["w"], state["w_prev"]
            state["w_prev"] = w
            state["w"] = engine.mean_grad(w, ask, -alpha, 1.0 + beta) - wp * beta
        return Schedule(name, True, init, stp, stochastic=False)

    if name == "sgd":
        gamma = step if step is not None else 1.0 / (2 * L)
        def init(engine):
            return {"w": engine.zero()}
        def stp(state, k, ask, engine):
            (j,) = engine.draw("n")
            state["w"] = ask(state["w"], FirstOrder(-gamma, 1.0, j))
        return Schedule(name, True, init, stp)

    if name == "sag":
        gamma = step if step is not None else 1.0 / (16 * L)
        def init(engine):
            return {"w": engine.zero(), "table": engine.table(), "gsum": engine.zero()}
        def stp(state, k, ask, engine):
            (j,) = engine.draw("n")
            g = ask(state["w"], FirstOrder(1.0, 0.0, j))
            state["gsum"] = state["gsum"] + (g - engine.gather(state["table"], j))
            engine.scatter(state["table"], j, g)
            state["w"] = state["w"] - state["gsum"] * (gamma / engine.n)
        return Schedule(name, True, init, stp)

    if name == "saga":
        gamma = step if step is not None else 1.0 / (3 * L)
        def init(engine):
            return {"w": engine.zero(), "table": engine.table(), "gsum": engine.zero()}
        def stp(state, k, ask, engine):
            (j,) = engine.draw("n")
            g = ask(state["w"], FirstOrder(1.0, 0.0, j))
            old = engine.gather(state["table"], j)
            upd = g - old + state["gsum"] / engine.n
            state["gsum"] = state["gsum"] + (g - old)
            engine.scatter(state["table"], j, g)
            state["w"] = state["w"] - upd * gamma
        return Schedule(name, True, init, stp)

    if name == "svrg":
        gamma = step if step is not None else 1.0 / (10 * L)
        def init(engine):
            z = engine.zero()
            st = {"w": z, "snapshot": z, "snap_grad": z, "inner": 0,
                  "m": epoch if epoch is not None else 2 * engine.n}
            st["need_snapshot"] = True
            return st
        def stp(state, k, ask, engine):
            if state["need_snapshot"]:
                state["snapshot"] = state["w"]
                state["snap_grad"] = engine.mean_grad(state["snapshot"], ask)
                state["inner"] = 0
                state["need_snapshot"] = False
                return
            (j,) = engine.draw("n")
            g = ask(state["w"], FirstOrder(1.0, 0.0, j))
            gt = ask(state["snapshot"], FirstOrder(1.0, 0.0, j))
            state["w"] = state["w"] - (g - gt + state["snap_grad"]) * gamma
            state["inner"] += 1
            if state["inner"] >= state["m"]:
                state["need_snapshot"] = True
        return Schedule(name, True, init, stp)

    if name == "sdca":
        def init(engine):
            return {"w": engine.zero()}
        def stp(state, k, ask, engine):
            (j,) = engine.draw("n")
            state["w"] = ask(state["w"], DualExactCD(j))
        return Schedule(name, True, init, stp)

    if name == "sdca_primal":
        # dual-free SDCA: pseudo-dual vectors a_j with w = sum a_j/(mu n)
        if mu is None or L is None:
            raise ValueError("sdca_primal requires L and mu")
        def init(engine):
            return {"w": engine.zero(), "table": engine.table()}
        def stp(state, k, ask, engine):
            eta = step if step is not None else min(1.0 / (4 * L), 1.0 / (mu * engine.n))
            (j,) = engine.draw("n")
            g = ask(state["w"], FirstOrder(1.0, 0.0, j))
            old = engine.gather(state["table"], j)
            v = g + old
            engine.scatter(state["table"], j, old - v * (eta * mu * engine.n))
            state["w"] = state["w"] - v * eta
        return Schedule(name, True, init, stp)

    if name in ("cd_cyclic", "cd_random"):
        cyclic = name == "cd_cyclic"
        def init(engine):
            return {"w": engine.zero()}
        def stp(state, k, ask, engine):
            if cyclic:
                i = (k // engine.n) % engine.d
                j = k % engine.n
            else:
                i, j = engine.draw("d", "n")
            state["w"] = ask(state["w"], SteepestCD(i, j))
        return Schedule(name, True, init, stp, stochastic=not cyclic)

    if name == "lbfgs":
        def init(engine):
            return {"w": engine.zero(), "g": None, "pairs": [], "stalled": None}
        def stp(state, k, ask, engine):
            """Two-loop direction, then an exact line search along it.

            Each stored pair (s, y) keeps s.y, computed once when the pair is
            appended; the loops divide by that same float, so the direction
            is bit-identical to recomputing it.  A step whose curvature is
            not positive returns without changing the state, so every later
            step would repeat it exactly: those steps ask only the same
            probe point again, which keeps the oracle calls unchanged.
            """
            w = state["w"]
            if state["g"] is None:
                state["g"] = engine.mean_grad(w, ask)
                return
            if state["stalled"] is not None:
                engine.mean_grad(state["stalled"], ask)
                return
            g, pairs = state["g"], state["pairs"]
            q = g.copy()
            alphas = []
            for s, y, sy in reversed(pairs):
                a = float(s @ q) / sy
                alphas.append(a)
                q = q - a * y
            if pairs:
                s, y, sy = pairs[-1]
                q = q * (sy / float(y @ y))
            for (s, y, sy), a in zip(pairs, reversed(alphas)):
                b = float(y @ q) / sy
                q = q + (a - b) * s
            pdir = -q
            probe = w + pdir
            gp = engine.mean_grad(probe, ask)
            qd = gp - g  # = (mean Hessian) @ pdir, exact for quadratics
            curv = float(pdir @ qd)
            if curv <= 0:
                state["stalled"] = probe
                return
            t = -float(g @ pdir) / curv
            state["w"] = w + t * pdir
            state["g"] = g + t * qd
            s, y = t * pdir, t * qd
            pairs.append((s, y, float(s @ y)))
            if len(pairs) > memory:
                pairs.pop(0)
        return Schedule(name, False, init, stp, stochastic=False)

    raise AssertionError("unreachable")


def _make_engine(instance, seed):
    kind = DualNumericEngine if isinstance(instance, RlmInstance) else NumericEngine
    engine = kind(instance)
    engine.rng = make_rng(seed)
    return engine


def check_family(schedule: Schedule, dual: bool):
    """Raise ValueError unless the schedule asks the dual coordinate oracles
    exactly when the instance family is the dual one."""
    if dual != (schedule.name in DUAL_NAMES):
        kind = "dual" if dual else "primal"
        raise ValueError(f"{schedule.name} does not run on the {kind} oracle family")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based stream: independent across (run, seed) pairs."""
    return np.random.Generator(np.random.Philox(key=seed))


def _drive(schedule: Schedule, engine, ask, measure, errors):
    """Step `schedule` on `engine` until `errors` holds one measure per
    oracle call, and return the final state.

    `errors` has shape (iterations+1,) or (rows, iterations+1);
    `engine.calls` counts the oracle calls made so far and `measure` maps
    the tracked point to one error (or one per row).  The point is measured
    after every step that called the oracle, including the one that passes
    `iterations`.  Multi-call steps (full gradients, snapshots) update the
    tracked point only when the step completes; intermediate call indices
    repeat the previous error.  Every step of every schedule calls the
    oracle (L-BFGS's stalled and probe steps too), so a step that makes no
    call is a schedule error and raises RuntimeError.
    """
    cols = errors.T  # one row per call index
    iterations = len(cols) - 1
    state = schedule.init(engine)
    err = measure(state["w"])
    cols[0] = err
    filled = k = 0
    while filled < iterations:
        before = engine.calls
        schedule.step(state, k, ask, engine)
        after = engine.calls
        if after == before:
            raise RuntimeError(f"{schedule.name} step {k} made no oracle call")
        k += 1
        new_err = measure(state["w"])
        hi = min(after, iterations)
        cols[filled + 1:hi] = err  # point unchanged until the step completed
        if hi > filled:
            cols[hi] = new_err if after <= iterations else err
        err = new_err
        filled = hi
    return state


def _check_run(schedule: Schedule, instance, iterations: int):
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    check_family(schedule, isinstance(instance, RlmInstance))


def run(schedule: Schedule, instance, iterations: int, seed: int = 0) -> RunRecord:
    """Execute `iterations` oracle calls and record suboptimality per call;
    a multi-call step repeats the previous error until it completes."""
    _check_run(schedule, instance, iterations)
    engine = _make_engine(instance, seed)
    log = CallLog()
    errors = np.empty(iterations + 1)
    _drive(schedule, engine, partial(answer, engine, log=log), instance.suboptimality, errors)
    return RunRecord(schedule.name, seed, errors, log)


def audit_oblivious(schedule: Schedule, instance, iterations: int, seed: int = 0) -> bool:
    """Re-run with a zeroed oracle and compare query streams.

    An oblivious schedule emits the same queries whatever the answers are;
    a schedule whose parameters read the answers will diverge (or fail).
    """
    _check_run(schedule, instance, iterations)

    def queries(zeroed):
        engine = _make_engine(instance, seed)
        asked = []

        def ask(point, query):
            asked.append(query)
            out = answer(engine, point, query)  # a zeroed run still checks shapes
            return engine.zero() if zeroed else out

        _drive(schedule, engine, ask, lambda w: 0.0, np.empty(iterations + 1))
        return asked[:iterations]

    real = queries(False)
    try:
        return queries(True) == real
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Batched engines: the schedules' own closures over a batch of (grid point,
# seed) runs


class _Batched:
    """The engine protocol over a batch of runs, answered by `oracles.answer`
    as on one run.  The batch holds `seeds` seeds on each of G instances (the
    points of a parameter grid).  Points are (G*seeds, d) arrays whose row
    g*seeds + s is the run `run(..., seed=s)` makes on instance g, and a
    component or coordinate index is a vector with one entry per row.

    Seed s draws its indices from `make_rng(s)`, exactly as `run(...,
    seed=s)` does, but all at once: the first `draw` builds every seed's
    stream for the kinds it is asked for, which a schedule asks for at every
    step, and `iterations` draws suffice because each step that draws also
    calls the oracle.  Every grid point then reads the same draw for seed s.
    Without replacement, the components come in consecutive random
    permutations of range(n).  `calls` counts oracle calls per row.
    """

    def __init__(self, instances, dim, seeds, iterations, replacement):
        shapes = {(inst.n, dim(inst)) for inst in instances}
        if len(shapes) != 1:
            raise ValueError("a batch needs one or more instances of one shape")
        ((self.n, self.d),) = shapes
        self.grid, self.seeds = len(instances), seeds
        self.opt = np.array([inst.optimal_value for inst in instances])
        self.rows = np.arange(self.grid * seeds)
        self.calls = 0
        self._iterations, self._replacement = iterations, replacement
        self._streams = None
        self._seed_of_row = self.rows % seeds
        self._next = 0

    def _build_streams(self, kinds):
        rngs = [make_rng(s) for s in range(self.seeds)]
        if self._replacement:
            bounds = np.array([self.n if kind == "n" else self.d for kind in kinds])
            per_seed = [rng.integers(bounds, size=(self._iterations, len(kinds)))
                        for rng in rngs]
        elif kinds == ("n",):
            blocks = -(-self._iterations // self.n)
            per_seed = [np.concatenate([rng.permutation(self.n) for _ in range(blocks)])
                        [:self._iterations, None] for rng in rngs]
        else:
            raise ValueError("sampling without replacement draws components only")
        return np.stack(per_seed, axis=2)  # (draw, kind, seed)

    def draw(self, *kinds):
        if self._streams is None:
            self._streams = self._build_streams(kinds)
        out = self._streams[self._next][:, self._seed_of_row]
        self._next += 1
        return out

    def per_row(self, per_instance):
        """Row g*seeds + s of the result is per_instance[g]."""
        return np.repeat(per_instance, self.seeds, axis=0)

    def less_opt(self, values):
        """Per-row values minus the row's optimal value."""
        return (values.reshape(self.grid, self.seeds) - self.opt[:, None]).ravel()

    def zero(self):
        return np.zeros((len(self.rows), self.d))

    def table(self):
        return np.zeros((len(self.rows), self.n, self.d))

    def gather(self, table, j):
        return table[self.rows, j]

    def scatter(self, table, j, value):
        table[self.rows, j] = value

    def add_to_entry(self, W, iv, t):
        out = W.copy()
        out[self.rows, iv] += t
        return out


class BatchedEngine(_Batched):
    """QuadraticInstances over a seed batch each."""

    def __init__(self, instances, seeds, iterations, replacement=True):
        super().__init__(instances, lambda inst: inst.d, seeds, iterations, replacement)
        Q0, q0 = instances[0].components[0]
        self.block = all(isinstance(Q, Block2Diag) and (Q.h, Q.tail) == (Q0.h, Q0.tail)
                         and np.array_equal(q, q0)
                         for inst in instances for Q, q in inst.components)
        if self.block:  # only the off-diagonal entry e differs between components
            self.h, self.tail, self.q = Q0.h, Q0.tail, q0
            self.e = self.per_row([[Q.e for Q, _ in inst.components] for inst in instances])
        else:
            self.Qs = np.stack([[Q.dense() for Q, _ in inst.components] for inst in instances])
            self.qs = np.stack([[q for _, q in inst.components] for inst in instances])
            self._grid_of_row = self.rows // seeds
        self.A = np.stack([inst.mean_matrix() for inst in instances])
        self.qbar = np.stack([inst.mean_q() for inst in instances])

    def _by_grid(self, W):
        return W.reshape(self.grid, self.seeds, self.d)

    def comp_grad(self, jv, W):
        if self.block:
            return Block2Diag(self.d, self.h, self.e[self.rows, jv], self.tail).matvec(W) - self.q
        # matmul runs the scalar engine's BLAS kernels (gemv here, dot in
        # grad_entry) row by row, so each row rounds as the scalar run does
        g = self._grid_of_row
        return (self.Qs[g, jv] @ W[:, :, None])[:, :, 0] - self.qs[g, jv]

    def diag(self, jv, iv):
        if self.block:
            return np.where(iv < 2, self.h, self.tail)
        return self.Qs[self._grid_of_row, jv, iv, iv]

    def grad_entry(self, jv, iv, W):
        if self.block:
            return self.comp_grad(jv, W)[self.rows, iv]
        g = self._grid_of_row
        return (self.Qs[g, jv, iv][:, None, :] @ W[:, :, None])[:, 0, 0] - self.qs[g, jv, iv]

    def mean_grad(self, W, ask):
        # one gemm per grid point, as a run over that point's seeds alone
        self.calls += self.n
        G = self._by_grid(W) @ self.A.transpose(0, 2, 1) - self.qbar[:, None, :]
        return G.reshape(W.shape)

    def suboptimality(self, W):
        Wg = self._by_grid(W)
        val = (0.5 * np.einsum("gsi,gij,gsj->gs", Wg, self.A, Wg)
               - (Wg @ self.qbar[:, :, None])[..., 0])
        return self.less_opt(val)


class BatchedDualEngine(PairOracle, _Batched):
    """RlmInstances over a seed batch each; points are dual vectors, and
    `off` holds one row of pair entries per run."""

    def __init__(self, instances, seeds, iterations, replacement=True):
        super().__init__(instances, lambda inst: inst.n, seeds, iterations, replacement)
        if len({inst.lam for inst in instances}) != 1:
            raise ValueError("a batch needs instances of one lam")
        dg = instances[0].blocks[0]  # depends on lam and n only
        self.blocks = (dg, self.per_row([inst.blocks[1] for inst in instances]))
        self.lin = 1.0 / self.n

    def _at(self, x, i):
        return x[self.rows, i]

    def suboptimality(self, A):
        G = RlmInstance.pair_matvec(*self.blocks, A)
        return self.less_opt(0.5 * np.einsum("si,si->s", A, G) - A.sum(axis=1) / self.n)


def batched_curves(schedule: Schedule, instances, iterations: int, seeds: int,
                   replacement: bool = True) -> np.ndarray:
    """(len(instances)*seeds, iterations+1) suboptimality curves: the
    schedule's own step closures run once over a batched engine, row
    g*seeds + s being the run `run(..., seed=s)` makes on instances[g].

    With `replacement=False` every component draw comes from consecutive
    random permutations of the components instead.
    """
    if not schedule.stochastic:
        raise ValueError(f"{schedule.name} is deterministic; it runs on the scalar engine")
    instances = list(instances)
    dual = any(isinstance(inst, RlmInstance) for inst in instances)
    check_family(schedule, dual)
    kind = BatchedDualEngine if dual else BatchedEngine
    engine = kind(instances, seeds, iterations, replacement)
    errors = np.empty((len(engine.rows), iterations + 1))
    _drive(schedule, engine, partial(answer, engine), engine.suboptimality, errors)
    return errors


@dataclass
class WorstCaseCurve:
    k: np.ndarray
    worst_mean: np.ndarray
    stderr: np.ndarray
    worst_param: np.ndarray

    def lower_confidence(self, nsigma: float = 3.0) -> np.ndarray:
        return self.worst_mean - nsigma * self.stderr


def expected_error_curve(schedule: Schedule, instance_factory, grid, iterations: int,
                         seeds: int = 100) -> WorstCaseCurve:
    """Monte-Carlo mean suboptimality per oracle call for each grid parameter,
    then the max over the grid per call index.

    instance_factory maps a grid parameter to an instance.  A stochastic
    schedule runs once over the whole grid on a batched engine; a
    deterministic one collapses to a single seed per grid point.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty parameter grid")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    insts = [instance_factory(param) for param in grid]
    means = np.empty((len(grid), iterations + 1))
    errs = np.zeros((len(grid), iterations + 1))
    if schedule.stochastic:
        curves = batched_curves(schedule, insts, iterations, seeds)
        # per grid point, the (seeds, iterations+1) reductions of a run over
        # that point alone
        for gi, block in enumerate(curves.reshape(len(grid), seeds, iterations + 1)):
            means[gi] = block.mean(axis=0)
            if seeds > 1:
                errs[gi] = block.std(axis=0, ddof=1) / math.sqrt(seeds)
    else:
        for gi, inst in enumerate(insts):
            means[gi] = run(schedule, inst, iterations, seed=0).errors
    worst_idx = np.argmax(means, axis=0)
    cols = np.arange(iterations + 1)
    return WorstCaseCurve(
        k=cols,
        worst_mean=means[worst_idx, cols],
        stderr=errs[worst_idx, cols],
        worst_param=np.asarray(grid, dtype=object)[worst_idx],
    )
