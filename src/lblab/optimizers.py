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
point, seed) pair.  Each engine owns its index stream, and its `log`
counts its oracle calls by query kind and in total.  `run`,
`batched_curves`, `audit_oblivious` and `trace_oblivious` share one loop,
`_drive`, that measures the tracked point per oracle call (call 0 =
initialization): suboptimality, the x-axis the lower-bound envelopes are
stated in, or the tracer's degree budget.  It alone checks each schedule
against its engine: count, oracle family, and L-BFGS on scalar engines.

There are two batched quadratic engines.  `BatchedEngine` serves the
stochastic schedules with Monte-Carlo kernels: a gemm mean gradient and a
suboptimality from each grid point's mean matrix, whose bits differ from
`run`'s in the last places.  `ExactBatchedEngine` serves the deterministic
ones (gd, agd, hb, cd_cyclic) with the scalar engine's own arithmetic, so
each of its rows equals `run` on its instance bit for bit.
`expected_error_curve` takes a parameter grid with its instances already
built, so that the schedules of one command share a single grid build.  It
runs every oblivious schedule once over the whole grid, averaging a
stochastic one's curves over seeds; only the non-oblivious L-BFGS runs grid
point by grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .instances import Block2Diag, RlmInstance
from .oracles import (CallLog, DualExactCD, DualNumericEngine, FirstOrder,
                      NumericEngine, PairOracle, SingleRunEngine, SteepestCD, answer)

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


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based stream: independent across (run, seed) pairs."""
    return np.random.Generator(np.random.Philox(key=seed))


def _drive(schedule: Schedule, engine, ask, measure, iterations: int):
    """Step `schedule` on `engine` for `iterations` oracle calls; return the
    final state and errors, errors[..., c] the measure after c calls.

    The run contract is checked here, once, before any state or buffer is
    built.  A negative `iterations`, a schedule asking the dual oracles
    (`DUAL_NAMES`) on an engine that is not a `PairOracle` or the other way
    round, and a non-oblivious schedule (L-BFGS) off the scalar
    `NumericEngine` and `DualNumericEngine` each raise ValueError with one
    message.

    `measure` maps the tracked point to one error (or one per batch row),
    after every step that called the oracle, including the one that passes
    `iterations`.  Multi-call steps (full gradients, snapshots) update the
    tracked point only when the step completes; intermediate call indices
    repeat the previous error.  Every step of every schedule calls the
    oracle (L-BFGS's stalled and probe steps too), so a step that makes no
    call is a schedule error and raises RuntimeError.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    dual = isinstance(engine, PairOracle)
    if dual != (schedule.name in DUAL_NAMES):
        kind = "dual" if dual else "primal"
        raise ValueError(f"{schedule.name} does not run on the {kind} oracle family")
    if not (schedule.oblivious or isinstance(engine, (NumericEngine, DualNumericEngine))):
        raise ValueError(f"{schedule.name} reads its answers; it runs on the scalar engines only")
    state = schedule.init(engine)
    err = measure(state["w"])
    errors = np.empty(np.shape(err) + (iterations + 1,), object if err is None else float)
    cols = errors.T  # one row per call index
    cols[0] = err
    filled = k = 0
    while filled < iterations:
        before = engine.log.total
        schedule.step(state, k, ask, engine)
        after = engine.log.total
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
    return state, errors


def run(schedule: Schedule, instance, iterations: int, seed: int = 0) -> RunRecord:
    """Execute `iterations` oracle calls and record suboptimality per call;
    a multi-call step repeats the previous error until it completes.  The
    record's `log` is the engine's."""
    engine = _make_engine(instance, seed)
    _, errors = _drive(schedule, engine, partial(answer, engine), instance.suboptimality,
                       iterations)
    return RunRecord(schedule.name, seed, errors, engine.log)


def audit_oblivious(schedule: Schedule, instance, iterations: int, seed: int = 0) -> bool:
    """Re-run with a zeroed oracle and compare query streams.

    An oblivious schedule emits the same queries whatever the answers are;
    a schedule whose parameters read the answers will diverge (or fail).
    """

    def queries(zeroed):
        engine = _make_engine(instance, seed)
        asked = []

        def ask(point, query):
            asked.append(query)
            out = answer(engine, point, query)  # a zeroed run still checks shapes
            return engine.zero() if zeroed else out

        _drive(schedule, engine, ask, lambda w: 0.0, iterations)
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
    calls the oracle.  Every grid point then reads the same draw for seed s,
    so a draw is one seed row tiled G times.  Without replacement, the
    components come in consecutive random permutations of range(n).
    `log` counts oracle calls per row.

    Per-row lookups read flat offsets.  Entry (row, j) of a C-contiguous
    array of shape (rows, m, ...) is entry row*m + j of its (rows*m, ...)
    reshape, so `take` at `rows * m + j` reads what the index pair
    (rows, j) reads, and writing through the reshape (a view, since every
    table is made C-contiguous here) writes the table.

    Summation order is part of the contract.  Every kernel works row by row
    and adds each row's terms in an order that does not depend on the other
    rows, so a row's floats do not depend on what else the batch holds; and
    `BatchedEngine.suboptimality` adds in the order of the three-operand
    einsum it replaced, so its bits are that einsum's.
    """

    def __init__(self, instances, dim, seeds, iterations, replacement):
        shapes = {(inst.n, dim(inst)) for inst in instances}
        if len(shapes) != 1:
            raise ValueError("a batch needs one or more instances of one shape")
        ((self.n, self.d),) = shapes
        self.grid, self.seeds = len(instances), seeds
        self.opt = np.array([inst.optimal_value for inst in instances])
        self.rows = np.arange(self.grid * seeds)
        self.log = CallLog()
        self._iterations, self._replacement = iterations, replacement
        self._streams = None
        self._next = 0
        self._row_n = self.rows * self.n  # row offsets into (rows, n, ...) arrays
        self._row_d = self.rows * self.d  # and into (rows, d) points

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
        out = np.tile(self._streams[self._next], self.grid)
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
        return table.reshape(-1, self.d).take(self._row_n + j, axis=0)

    def scatter(self, table, j, value):
        table.reshape(-1, self.d)[self._row_n + j] = value

    def add_to_entry(self, W, iv, t):
        out = W.copy()
        out.reshape(-1)[self._row_d + iv] += t
        return out


class _BatchedQuadratic(_Batched):
    """The component oracle of QuadraticInstances over a seed batch each.

    Every component is one entry per row: in the block form (shared h, tail
    and q, as in the fsm family) its off-diagonal entry `e`, and otherwise
    its dense (Q, q), component j of grid point g being entry g*n + j of
    `Qs` and `qs`.  Each row rounds as the scalar engine does: the block
    form runs `Block2Diag.matvec` row by row, and the dense form's matmuls
    run the scalar engine's BLAS kernels (gemv for Q w, dot for a row of Q
    times w) row by row.
    """

    def __init__(self, instances, seeds, iterations, replacement=True):
        super().__init__(instances, lambda inst: inst.d, seeds, iterations, replacement)
        Q0, q0 = instances[0].components[0]
        self.block = all(isinstance(Q, Block2Diag) and (Q.h, Q.tail) == (Q0.h, Q0.tail)
                         and np.array_equal(q, q0)
                         for inst in instances for Q, q in inst.components)
        if self.block:  # only the off-diagonal entry e differs between components
            # q is tiled to one row per run: subtracting a (d,) vector runs
            # numpy's inner loop once per row
            self.h, self.tail, self.q = Q0.h, Q0.tail, np.tile(q0, (len(self.rows), 1))
            self.e = self.per_row([[Q.e for Q, _ in inst.components] for inst in instances])
        else:  # component j of grid point g is entry g*n + j
            self.Qs = np.stack([Q.dense() for inst in instances for Q, _ in inst.components])
            self.qs = np.stack([q for inst in instances for _, q in inst.components])
            self._comp_of_row = self.rows // seeds * self.n

    def _comp_matvec(self, jv, W):
        """Q_j w per row, for component jv of the row."""
        if self.block:
            return Block2Diag(self.d, self.h, self.e.take(self._row_n + jv), self.tail).matvec(W)
        return (self.Qs.take(self._comp_of_row + jv, axis=0) @ W[:, :, None])[:, :, 0]

    def _comp_q(self, jv):
        return self.q if self.block else self.qs.take(self._comp_of_row + jv, axis=0)

    def comp_grad(self, jv, W):
        return self._comp_matvec(jv, W) - self._comp_q(jv)

    def diag(self, jv, iv):
        if self.block:
            return np.where(iv < 2, self.h, self.tail)
        return self.Qs.take((self._comp_of_row + jv) * self.d ** 2 + iv * (self.d + 1))

    def grad_entry(self, jv, iv, W):
        if self.block:
            return self.comp_grad(jv, W).take(self._row_d + iv)
        c = (self._comp_of_row + jv) * self.d + iv
        return ((self.Qs.reshape(-1, self.d).take(c, axis=0)[:, None, :] @ W[:, :, None])[:, 0, 0]
                - self.qs.take(c))


class BatchedEngine(_BatchedQuadratic):
    """QuadraticInstances over a seed batch each, with the Monte-Carlo
    kernels: the mean gradient as one gemm per grid point, and the
    suboptimality from each grid point's mean matrix."""

    def __init__(self, instances, seeds, iterations, replacement=True):
        super().__init__(instances, seeds, iterations, replacement)
        self.A = np.stack([inst.mean_matrix() for inst in instances])
        self.qbar = np.stack([inst.mean_q() for inst in instances])
        # the (i, j) entries of A nonzero at some grid point, in (i, j) order,
        # with A_ij per row
        self._quad_terms = [(i, j, self.per_row(self.A[:, i, j]))
                            for i, j in np.argwhere(self.A.any(axis=0))]

    def _by_grid(self, W):
        return W.reshape(self.grid, self.seeds, self.d)

    def mean_grad(self, W, ask):
        # one gemm per grid point, as a run over that point's seeds alone
        self.log.note("FirstOrder", self.n)
        G = self._by_grid(W) @ self.A.transpose(0, 2, 1) - self.qbar[:, None, :]
        return G.reshape(W.shape)

    def suboptimality(self, W):
        """Per-row f(w) - f*, the quadratic form added as the reference
        `np.einsum("gsi,gij,gsj->gs", Wg, A, Wg)` adds it: the terms
        (W_i A_ij) W_j in (i, j) order into +0.  Entries of A that are zero
        at every grid point are skipped: at a finite point their terms are
        +-0, and adding +-0 to a sum that starts at +0 (and so is never -0)
        leaves it unchanged.  So the bits equal the einsum's at every finite
        point."""
        quad = np.zeros(len(W))
        for i, j, a in self._quad_terms:
            quad += (W[:, i] * a) * W[:, j]
        lin = (self._by_grid(W) @ self.qbar[:, :, None]).ravel()
        return self.less_opt(0.5 * quad - lin)


def _row_dots(X, Y):
    """Per-row x @ y.  The stacked matmul calls BLAS dot once per row, the
    kernel that `x @ y` calls on two vectors, so each row has its bits."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


class ExactBatchedEngine(_BatchedQuadratic):
    """QuadraticInstances over a seed batch each, with the scalar engine's
    arithmetic: every row's floats are those of `run` on its instance.

    `mean_grad` is `SingleRunEngine.mean_grad`, n first-order answers added
    in component order, and `suboptimality` is `QuadraticInstance.value`
    row by row.  The deterministic schedules run their whole grid on it.
    Block components must share h, tail and q: the dense form multiplies
    a `Block2Diag` as gemv does, not as its own `matvec`.
    """

    mean_grad = SingleRunEngine.mean_grad

    def __init__(self, instances, seeds, iterations, replacement=True):
        super().__init__(instances, seeds, iterations, replacement)
        if not self.block and any(isinstance(Q, Block2Diag)
                                  for inst in instances for Q, _ in inst.components):
            raise ValueError("an exact batch of Block2Diag components needs one h, tail and q")
        # component j's term slot: that of the first component whose entries
        # are bit-identical to j's in every row, as `QuadraticInstance._terms`
        # shares one term between components that are the same objects
        first, self._slot = {}, []
        for j in range(self.n):
            if self.block:
                key = self.e[:, j].tobytes()
            else:
                c = self._comp_of_row + j
                key = (self.Qs[c].tobytes(), self.qs[c].tobytes())
            self._slot.append(first.setdefault(key, j))

    def suboptimality(self, W):
        """Per-row `QuadraticInstance.suboptimality`: per component
        0.5*(w @ Q_j w) - q_j @ w, the n terms added in component order into
        +0, divided by n, less the optimal value."""
        terms, tot = {}, np.zeros(len(W))
        for j in self._slot:
            if j not in terms:
                terms[j] = (0.5 * _row_dots(W, self._comp_matvec(j, W))
                            - _row_dots(self._comp_q(j), W))
            tot += terms[j]
        return self.less_opt(tot / self.n)


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
        return x.take(self.rows * x.shape[1] + i)

    def suboptimality(self, A):
        G = RlmInstance.pair_matvec(*self.blocks, A)
        return self.less_opt(0.5 * np.einsum("si,si->s", A, G) - A.sum(axis=1) / self.n)


def batched_curves(schedule: Schedule, instances, iterations: int, seeds: int,
                   replacement: bool = True) -> np.ndarray:
    """(len(instances)*seeds, iterations+1) suboptimality curves: the
    schedule's own step closures run once over a batched engine, row
    g*seeds + s being the run `run(..., seed=s)` makes on instances[g].

    Every oblivious schedule runs here.  A deterministic one runs on
    `ExactBatchedEngine`, so each row equals that run bit for bit; the
    stochastic ones run on the Monte-Carlo kernels of `BatchedEngine` (or
    on `BatchedDualEngine`).  L-BFGS reads its answers as floats, so it
    runs on the scalar engine alone.  With `replacement=False` every
    component draw comes from consecutive random permutations of the
    components instead.
    """
    instances = list(instances)
    if any(isinstance(inst, RlmInstance) for inst in instances):
        kind = BatchedDualEngine
    else:
        kind = BatchedEngine if schedule.stochastic else ExactBatchedEngine
    engine = kind(instances, seeds, iterations, replacement)
    return _drive(schedule, engine, partial(answer, engine), engine.suboptimality, iterations)[1]


@dataclass
class WorstCaseCurve:
    k: np.ndarray
    worst_mean: np.ndarray
    stderr: np.ndarray
    worst_param: np.ndarray

    def lower_confidence(self) -> np.ndarray:
        return self.worst_mean - 3.0 * self.stderr


def expected_error_curve(schedule: Schedule, instances, grid, iterations: int,
                         seeds: int = 100) -> WorstCaseCurve:
    """Monte-Carlo mean suboptimality per oracle call for each grid parameter,
    then the max over the grid per call index.

    instances[g] is the instance built at grid[g]; the caller builds them
    once, and several schedules may share them.  An oblivious
    schedule runs once over the whole grid on a batched engine, a
    deterministic one with a single seed per grid point (its curves are
    `run`'s, bit for bit); only the non-oblivious L-BFGS runs grid point
    by grid point on the scalar engine.  A one-seed mean is its row, bit
    for bit but for a -0 (f(w) - f* is -0 only where f* is +0), which turns +0.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty parameter grid")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    insts = list(instances)
    if len(insts) != len(grid):
        raise ValueError(f"{len(insts)} instances for {len(grid)} grid points")
    if schedule.oblivious:
        seeds = seeds if schedule.stochastic else 1
        curves = batched_curves(schedule, insts, iterations, seeds)
    else:  # L-BFGS, one scalar run per grid point
        seeds, curves = 1, [run(schedule, inst, iterations, seed=0).errors for inst in insts]
    means = np.empty((len(grid), iterations + 1))
    errs = np.zeros((len(grid), iterations + 1))
    # per grid point, the (seeds, iterations+1) reductions of a run over
    # that point alone
    for gi, block in enumerate(np.reshape(curves, (len(grid), seeds, iterations + 1))):
        means[gi] = block.mean(axis=0)
        if seeds > 1:
            errs[gi] = block.std(axis=0, ddof=1) / math.sqrt(seeds)
    worst_idx = np.argmax(means, axis=0)
    cols = np.arange(iterations + 1)
    return WorstCaseCurve(
        k=cols,
        worst_mean=means[worst_idx, cols],
        stderr=errs[worst_idx, cols],
        worst_param=np.asarray(grid, dtype=object)[worst_idx],
    )
