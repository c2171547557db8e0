"""Oracle query shapes, call accounting, and the answer procedures.

Three oracle families are supported:

- generalized first-order: returns A (grad f_j at w) + B w + C;
- steepest coordinate descent: exact line minimum of component j along e_i;
- dual coordinate oracles: a gradient step or exact minimization along one
  dual coordinate.

`answer` is the only code that answers a query.  Its procedures are written
against a tiny engine protocol (`comp_grad`, `diag`, `grad_entry`,
`add_to_entry`), so the same code answers on float vectors (the engines
here), on polynomial-valued iterates (`trace`) and on the batched engines in
`optimizers`, whose points hold one row per (grid point, seed) pair and
whose component and coordinate indices hold one entry per row.  Schedules reach index draws,
component tables and the mean gradient through the engine as well, and each
engine owns its index stream: `SingleRunEngine.rng` is set by whoever
drives the run.  A and B in first-order queries are scalars (times
identity); every optimizer in scope uses only that shape, and a dense
escape hatch exists in tests via explicit matvecs.
"""

from __future__ import annotations

from collections import Counter
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
    """Per-variant counters and per-component touch counts.

    The incremental-oracle property (each answer reads one component) holds
    by construction; the log makes it auditable.
    """

    def __init__(self):
        self.variant_counts = Counter()
        self.component_touches = Counter()
        self.queries = []
        self.record_queries = False

    @property
    def total(self) -> int:
        return sum(self.variant_counts.values())

    def note(self, query, component: int):
        self.variant_counts[type(query).__name__] += 1
        self.component_touches[component] += 1
        if self.record_queries:
            self.queries.append(query)

    def to_csv(self) -> str:
        lines = ["variant,count"]
        for name in sorted(self.variant_counts):
            lines.append(f"{name},{self.variant_counts[name]}")
        lines.append("component,touches")
        for comp in sorted(self.component_touches):
            lines.append(f"{comp},{self.component_touches[comp]}")
        return "\n".join(lines) + "\n"


class SingleRunEngine:
    """Schedule-facing engine operations for engines that carry one run's
    point (numeric vectors here, polynomial vectors in `trace`).

    Subclasses provide `n`, `zero()` and, for coordinate draws, `d`; the
    run's driver sets `rng`, the stream `draw` reads.
    """

    rng = None

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

    def mean_grad(self, w, ask, a=1.0, b=0.0):
        """b*w + a*(mean gradient at w), asked as n first-order calls."""
        acc = None
        for j in range(self.n):
            ans = ask(w, FirstOrder(a / self.n, b / self.n, j))
            acc = ans if acc is None else acc + ans
        return acc


class _FloatEngine(SingleRunEngine):
    """One run's point as a numpy float vector of length d."""

    def __init__(self, instance, d):
        self.instance, self.n, self.d = instance, instance.n, d

    def zero(self):
        return np.zeros(self.d)

    def add_to_entry(self, w, i, t):
        out = w.copy()
        out[i] += t
        return out


class NumericEngine(_FloatEngine):
    """Engine over a QuadraticInstance."""

    def __init__(self, instance):
        super().__init__(instance, instance.d)

    def comp_grad(self, j, w):
        return self.instance.comp_grad(j, w)

    def diag(self, j, i):
        return self.instance.components[j][0].diag(i)

    def grad_entry(self, j, i, w):
        Q, q = self.instance.components[j]
        return Q.row_dot(i, w) - q[i]


class DualNumericEngine(_FloatEngine):
    """Engine over an RlmInstance; points are dual vectors."""

    def __init__(self, instance):
        super().__init__(instance, instance.n)

    def grad_entry(self, j, alpha):
        diag, off = self.instance.blocks
        pair, pos = divmod(j, 2)
        other = alpha[2 * pair + 1 - pos]
        return diag[pair] * alpha[j] + off[pair] * other - 1.0 / self.instance.n

    def diag(self, j):
        return self.instance.blocks[0][j // 2]


def answer_first_order(engine, w, q: FirstOrder, log: CallLog = None):
    # identity terms are skipped: g + 0*w would turn -0.0 into 0.0
    out = engine.comp_grad(q.j, w)
    if q.a != 1:
        out = out * q.a
    if q.b != 0:
        out = out + w * q.b
    if q.c is not None:
        out = out + q.c
    if log is not None:
        log.note(q, q.j)
    return out


def _coordinate_step(engine, point, i, g, d):
    # t = -(g / d) is the exact line minimum along e_i: slope g, curvature d
    if not (d.all() if isinstance(d, np.ndarray) else d):  # arrays on batched engines
        raise ZeroDivisionError("zero diagonal entry in a coordinate step")
    return engine.add_to_entry(point, i, -(g / d))


def answer_steepest_cd(engine, w, q: SteepestCD, log: CallLog = None):
    out = _coordinate_step(engine, w, q.i, engine.grad_entry(q.j, q.i, w),
                           engine.diag(q.j, q.i))
    if log is not None:
        log.note(q, q.j)
    return out


def answer_dual_rlm(engine, alpha, q, log: CallLog = None):
    # the dual coordinate index doubles as the component touched
    if isinstance(q, DualGradStep):
        out = engine.add_to_entry(alpha, q.j, engine.grad_entry(q.j, alpha) * q.t)
    elif isinstance(q, DualExactCD):
        out = _coordinate_step(engine, alpha, q.j, engine.grad_entry(q.j, alpha),
                               engine.diag(q.j))
    else:
        raise TypeError(f"not a dual query: {q!r}")
    if log is not None:
        log.note(q, q.j)
    return out


def answer(engine, point, query, log: CallLog = None):
    if isinstance(query, FirstOrder):
        return answer_first_order(engine, point, query, log)
    if isinstance(query, SteepestCD):
        return answer_steepest_cd(engine, point, query, log)
    if isinstance(query, (DualGradStep, DualExactCD)):
        return answer_dual_rlm(engine, point, query, log)
    raise TypeError(f"unknown query {query!r}")
