"""Oracle query shapes, call accounting, and the answer procedures.

Three oracle families are supported:

- generalized first-order: returns A (grad f_j at w) + B w + C;
- steepest coordinate descent: exact line minimum of component j along e_i;
- dual coordinate oracles: a gradient step or exact minimization along one
  dual coordinate.

`answer` is the only code that answers a query, and it counts each call
once, by query kind, in the `CallLog` every engine holds as `engine.log`;
the Monte-Carlo batched quadratic engine's `mean_grad`, a gemm that skips
it, adds its n first-order calls itself.  Its procedures are written against a tiny
engine protocol (`comp_grad`, `diag`, `grad_entry`, `add_to_entry`), and
the arithmetic behind the first three is written once per structure:
`ComponentOracle` for finite sums of (Q, q) components, whose matrix
structures live in `instances`, and `PairOracle` for the dual family's 2x2
pair blocks.  The float engines here (on one instance, or on a grid that
`instances.stack_rows` stacked into one), the polynomial engines in `trace`
(the same structures with exact entries, on PolyVector points) and the
batched dual engine in `optimizers` all inherit them; only the
Monte-Carlo quadratic engine there keeps its own per-row kernels.  Points over
a stack or a batch hold one row per (grid point, seed) pair, and entry i
of a point is `w.T[i]`; a batch's component and coordinate indices hold
one entry per row.  Schedules reach index draws, component tables and
the mean gradient through the engine as well, and each engine owns its
index stream: `SingleRunEngine.rng` is set by whoever drives the run.  A
and B in first-order queries are scalars (times identity); every optimizer
in scope uses only that shape, and a dense escape hatch exists in tests via
explicit matvecs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FirstOrder:
    a: float  # scalar multiple of the identity applied to the gradient
    b: float  # scalar multiple of the identity applied to the point
    j: int    # component index
    c: Optional[object] = None  # optional offset vector


@dataclass(frozen=True)
class SteepestCD:
    i: int  # coordinate
    j: int  # component


@dataclass(frozen=True)
class DualGradStep:
    t: float
    j: int  # dual coordinate


@dataclass(frozen=True)
class DualExactCD:
    j: int  # dual coordinate


class CallLog:
    """Oracle calls counted per query kind (its class name), and in total."""

    def __init__(self):
        self.variant_counts = {}
        self.total = 0

    def note(self, kind, count=1):
        self.variant_counts[kind] = self.variant_counts.get(kind, 0) + count
        self.total += count


class SingleRunEngine:
    """Schedule-facing engine operations for engines that carry one run's
    point: a float vector here, a PolyVector in `trace`.

    `origin` is the zero point, of length `d`, and `n` the component
    count; whoever drives the run sets `rng`, the stream `draw` reads.
    `log` counts the oracle calls `answer` has made on this engine.
    """

    rng = None

    def __init__(self, n, origin):
        self.n, self.d, self._origin = n, origin.shape[-1], origin
        self.log = CallLog()

    def zero(self):
        return self._origin.copy()

    def draw(self, *kinds):
        """One index per kind, in order: "n" a component, "d" a coordinate."""
        return tuple(int(self.rng.integers(self.n if kind == "n" else self.d))
                     for kind in kinds)

    def table(self):
        """One stored point per component, all zero."""
        return [self.zero() for _ in range(self.n)]

    def gather(self, table, j):
        return table[j]

    def scatter(self, table, j, value):
        table[j] = value

    def add_to_entry(self, w, i, t):
        out = w.copy()
        out.T[i] += t
        return out

    def mean_grad(self, w, ask, a=1.0, b=0.0):
        """b*w + a*(mean gradient at w), asked as n first-order calls."""
        acc = None
        for j in range(self.n):
            ans = ask(w, FirstOrder(a / self.n, b / self.n, j))
            acc = ans if acc is None else acc + ans
        return acc


class ComponentOracle:
    """The answer arithmetic of a finite sum of quadratic components.

    `components[j]` is a (Q, q) pair: a matrix structure from `instances`
    and a vector, and component j's gradient at w is Q w - q.  The numeric
    engine reads them from its instance; the tracer builds the same
    structures with polynomial entries.
    """

    def comp_grad(self, j, w):
        Q, q = self.components[j]
        return Q.matvec(w) - q

    def diag(self, j, i):
        return self.components[j][0].diag(i)

    def grad_entry(self, j, i, w):
        Q, q = self.components[j]
        return Q.row_dot(i, w) - q.T[i]


class PairOracle:
    """The answer arithmetic of the dual family's coordinate pairs.

    The objective is (1/2) a'Q a - lin 1'a, with Q block diagonal: 2x2
    blocks [[diag_p, off_p], [off_p, diag_p]] on coordinates (2p, 2p+1),
    and `blocks` is (diag, off).  `_at(x, i)` reads entry i of a point or
    of `off`; engines whose points hold one row per run read it per row.
    """

    def _at(self, x, i):
        return x[i]

    def grad_entry(self, j, alpha):
        diag, off = self.blocks
        pair = j // 2
        other = 2 * pair + 1 - j % 2
        return (diag[pair] * self._at(alpha, j)
                + self._at(off, pair) * self._at(alpha, other) - self.lin)

    def diag(self, j):
        return self.blocks[0][j // 2]


class NumericEngine(ComponentOracle, SingleRunEngine):
    """Engine over a QuadraticInstance; over one from `stack_rows`, its
    points hold one row per stacked instance."""

    def __init__(self, instance):
        super().__init__(instance.n, np.zeros(instance.minimizer.shape))
        self.instance, self.components = instance, instance.components


class DualNumericEngine(PairOracle, SingleRunEngine):
    """Engine over an RlmInstance; points are dual vectors."""

    def __init__(self, instance):
        super().__init__(instance.n, np.zeros(instance.n))
        self.blocks, self.lin = instance.blocks, 1.0 / instance.n


def _answer_first_order(engine, w, q: FirstOrder):
    # identity terms are skipped: g + 0*w would turn -0.0 into 0.0
    out = engine.comp_grad(q.j, w)
    if q.a != 1:
        out = out * q.a
    if q.b != 0:
        out = out + w * q.b
    if q.c is not None:
        out = out + q.c
    return out


def _coordinate_step(engine, point, i, g, d):
    # t = -(g / d) is the exact line minimum along e_i: slope g, curvature d
    if not (d.all() if isinstance(d, np.ndarray) else d):  # arrays on per-row engines
        raise ZeroDivisionError("zero diagonal entry in a coordinate step")
    return engine.add_to_entry(point, i, -(g / d))


def _answer_steepest_cd(engine, w, q: SteepestCD):
    return _coordinate_step(engine, w, q.i, engine.grad_entry(q.j, q.i, w),
                            engine.diag(q.j, q.i))


def _answer_dual(engine, alpha, q):
    if isinstance(q, DualGradStep):
        return engine.add_to_entry(alpha, q.j, engine.grad_entry(q.j, alpha) * q.t)
    return _coordinate_step(engine, alpha, q.j, engine.grad_entry(q.j, alpha),
                            engine.diag(q.j))


def answer(engine, point, query):
    if isinstance(query, FirstOrder):
        out = _answer_first_order(engine, point, query)
    elif isinstance(query, SteepestCD):
        out = _answer_steepest_cd(engine, point, query)
    elif isinstance(query, (DualGradStep, DualExactCD)):
        out = _answer_dual(engine, point, query)
    else:
        raise TypeError(f"unknown query {query!r}")
    engine.log.note(type(query).__name__)
    return out
