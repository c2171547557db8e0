"""Oracle query shapes, call accounting, and the answer procedures.

Three oracle families are supported:

- generalized first-order: returns A (grad f_j at w) + B w + C;
- steepest coordinate descent: exact line minimum of component j along e_i;
- dual coordinate oracles: a gradient step or exact minimization along one
  dual coordinate.

The answer procedures are written against a tiny engine protocol
(component gradient, diagonal entry, basis update) so the same code runs on
float vectors and on polynomial-valued iterates.  Schedules reach index
draws, component tables and the mean gradient through the engine as well
(`SingleRunEngine` here; the batched engines in `optimizers` answer the
same operations for a whole seed batch).  A and B in first-order
queries are scalars (times identity); every optimizer in scope uses only
that shape, and a dense escape hatch exists in tests via explicit matvecs.
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
    """Engine operations besides `answer` for engines that carry one run's
    point (numeric vectors here, polynomial vectors in `trace`).

    Subclasses provide `n`, `zero()` and, for coordinate draws, `d`.
    """

    def draw(self, rng, *kinds):
        """One index per kind, in order: "n" a component, "d" a coordinate."""
        return tuple(int(rng.integers(self.n if kind == "n" else self.d)) for kind in kinds)

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


class NumericEngine(SingleRunEngine):
    """Engine over a QuadraticInstance with numpy float vectors."""

    def __init__(self, instance):
        self.instance = instance
        self.n, self.d = instance.n, instance.d

    def zero(self):
        return np.zeros(self.d)

    def comp_grad(self, j, w):
        return self.instance.comp_grad(j, w)

    def diag(self, j, i):
        return self.instance.components[j][0].diag(i)

    def grad_entry(self, j, i, w):
        Q, q = self.instance.components[j]
        return Q.row_dot(i, w) - q[i]

    def add_to_entry(self, w, i, t):
        out = w.copy()
        out[i] += t
        return out


class DualNumericEngine(SingleRunEngine):
    """Engine over an RlmInstance; points are dual vectors."""

    def __init__(self, instance):
        self.instance = instance
        self.n = instance.n

    def zero(self):
        return np.zeros(self.n)

    def grad_entry(self, j, alpha):
        diag, off = self.instance.blocks
        pair, pos = divmod(j, 2)
        other = alpha[2 * pair + 1 - pos]
        return diag[pair] * alpha[j] + off[pair] * other - 1.0 / self.instance.n

    def diag(self, j):
        return self.instance.blocks[0][j // 2]

    def add_to_entry(self, alpha, j, t):
        out = alpha.copy()
        out[j] += t
        return out


def answer_first_order(engine, w, q: FirstOrder, log: CallLog = None):
    g = engine.comp_grad(q.j, w)
    out = g * q.a + w * q.b
    if q.c is not None:
        out = out + q.c
    if log is not None:
        log.note(q, q.j)
    return out


def answer_steepest_cd(engine, w, q: SteepestCD, log: CallLog = None):
    dii = engine.diag(q.j, q.i)
    if dii == 0:
        raise ZeroDivisionError("zero diagonal entry in steepest coordinate step")
    t = engine.grad_entry(q.j, q.i, w) * (-1 / dii)
    if log is not None:
        log.note(q, q.j)
    return engine.add_to_entry(w, q.i, t)


def answer_dual_rlm(engine, alpha, q, log: CallLog = None):
    # the dual coordinate index doubles as the component touched
    if isinstance(q, DualGradStep):
        t = engine.grad_entry(q.j, alpha) * q.t
    elif isinstance(q, DualExactCD):
        t = engine.grad_entry(q.j, alpha) * (-1 / engine.diag(q.j))
    else:
        raise TypeError(f"not a dual query: {q!r}")
    if log is not None:
        log.note(q, q.j)
    return engine.add_to_entry(alpha, q.j, t)


def answer(engine, point, query, log: CallLog = None):
    if isinstance(query, FirstOrder):
        return answer_first_order(engine, point, query, log)
    if isinstance(query, SteepestCD):
        return answer_steepest_cd(engine, point, query, log)
    if isinstance(query, (DualGradStep, DualExactCD)):
        return answer_dual_rlm(engine, point, query, log)
    raise TypeError(f"unknown query {query!r}")
