"""In-memory span tracer that wraps lblab's layers from outside the package.

``install`` replaces the public functions of each layer module (and every
other module's reference to them, which covers ``from .x import f``) with
wrappers that record a span: name, start, end, parent span and run id.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
metrics named in BENCHMARK.json.  Layers are named by module.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter, thread_time

LAYERS = ("cli", "harness", "optimizers", "oracles", "instances", "polynomials",
          "trace", "bestapprox", "bounds")
POLY_OPS = ("add", "sub", "mul", "scale", "neg")
BATCHED = ("sag", "saga", "svrg", "sdca_primal", "cd_random", "sdca")
SCALAR_RUNS = ("gd", "agd", "hb", "cd_cyclic", "lbfgs")
QUERIES = ("FirstOrder", "SteepestCD", "DualExactCD")
BUILDERS = ("fsm_instance", "rlm_instance", "nesterov_chain", "toy_instance",
            "smooth_instance")
# Only `oracles.answer` calls these; wrapping them would nest a second span
# inside every oracle call.
SKIP = {"oracles": {"answer_first_order", "answer_steepest_cd", "answer_dual_rlm"}}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, run id, self seconds)
        self.counts = Counter()
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._foreign = defaultdict(list)  # parent id -> child intervals from other threads
        self.cpu = {}  # span id -> thread CPU seconds, for spans wrapped with cpu=True

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1][0] if stack else -1

    def count(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def call(self, name, fn, args=(), kwargs=None, parent=-1, cpu=False):
        """Run fn inside a span.  ``parent`` applies only on a thread with
        no open span (a pool task); its interval is then subtracted from the
        parent's self time when the parent ends.  ``cpu`` also records the
        thread's CPU time, which threads sharing the interpreter lock do not
        inflate as they do wall time."""
        stack = self._stack()
        foreign = not stack and parent >= 0
        if stack:
            parent = stack[-1][0]
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        c0 = thread_time() if cpu else 0.0
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            if cpu:
                self.cpu[frame[0]] = thread_time() - c0
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            covered = frame[1]
            if foreign:
                with self._lock:
                    self._foreign[parent].append((t0, t1))
            elif self._foreign:
                with self._lock:
                    children = self._foreign.pop(frame[0], None)
                if children:
                    covered += _union(children, t0, t1)
            self.spans.append((frame[0], name, t0, t1, parent, self.run_id, dur - covered))

    def wrap(self, fn, name, after=None, cpu=False):
        """``name`` is a span name or a function of the call's arguments;
        ``after(tracer, result, args, kwargs)`` records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = tracer.call(label, fn, args, kwargs, cpu=cpu)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced


def _union(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _terms(poly):
    return len(poly.terms) if hasattr(poly, "terms") else sum(1 for c in poly.coeffs if c)


def _pool_class(tracer):
    class TracedPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            with tracer._lock:
                tracer.counts["harness.workers"] = max(tracer.counts["harness.workers"],
                                                       self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            parent, submitted = tracer.current(), perf_counter()

            def task():
                tracer.count("harness.pool_queue_wait_s", perf_counter() - submitted)
                return tracer.call("harness.pool_task", fn, args, kwargs, parent=parent)

            return super().submit(task)

    return TracedPool


def install(tracer: Tracer):
    """Wrap every layer's public functions, the MultiPoly/UniPoly arithmetic,
    the LP solver as bestapprox calls it, and the envelope thread pool."""
    import lblab
    from lblab import (bestapprox, bounds, harness, instances, optimizers, oracles,
                       polynomials, trace)

    modules = [lblab, bestapprox, bounds, harness, instances, optimizers, oracles,
               polynomials, trace]
    numeric_engines = (oracles.NumericEngine, oracles.DualNumericEngine)

    def replace(orig, wrapped):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def answer_name(engine, point, query, *args, **kwargs):
        kind = "numeric" if isinstance(engine, numeric_engines) else "symbolic"
        return f"oracles.answer.{kind}.{type(query).__name__}"

    def after_batched(t, result, args, kwargs):
        t.count("optimizers.batched_calls",
                _arg(args, kwargs, 2, "iterations") * _arg(args, kwargs, 3, "seeds"))

    def after_run(t, result, args, kwargs):
        t.count("optimizers.run_calls", result.log.total)

    def after_lp(t, result, args, kwargs):
        t.count("bestapprox.lp_nit", result.nit)
        t.count("bestapprox.lp_vars", len(args[0]))
        t.count("bestapprox.lp_success", bool(result.success))

    def after_len(key):
        return lambda t, result, args, kwargs: t.count(key, len(result))

    special = {
        (oracles, "answer"): (answer_name, None),
        (optimizers, "batched_curves"):
            (lambda s, *a, **k: f"optimizers.batched.{s.name}", after_batched),
        (optimizers, "run"): (lambda s, *a, **k: f"optimizers.run.{s.name}", after_run),
        (bestapprox, "best_l1"): ("bestapprox.l1", None),
        (bestapprox, "best_uniform"): ("bestapprox.uniform", None),
        (bestapprox, "best_weighted_l2"): ("bestapprox.l2", None),
        (polynomials, "poly_to_json"): ("polynomials.to_json", after_len("polynomials.json_bytes")),
        (harness, "write_csv"): ("harness.write_csv", after_len("harness.csv_bytes")),
    }
    for mod in modules[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        for key, fn in list(vars(mod).items()):
            if (key.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or key in SKIP.get(layer, ())):
                continue
            name, after = special.get((mod, key), (f"{layer}.{key}", None))
            if key in BUILDERS:
                name = f"instances.build.{key}"
            replace(fn, tracer.wrap(fn, name, after, cpu=key == "batched_curves"))

    bestapprox.linprog = tracer.wrap(bestapprox.linprog, "bestapprox.lp", after_lp)
    harness.ThreadPoolExecutor = _pool_class(tracer)

    def after_op(t, result, args, kwargs):
        t.count("polynomials.terms_out", _terms(result))

    for cls in (polynomials.MultiPoly, polynomials.UniPoly):
        for attr, op in (("__add__", "add"), ("__sub__", "sub"), ("__mul__", "mul"),
                         ("__rmul__", "mul"), ("__neg__", "neg"), ("scale", "scale")):
            setattr(cls, attr, tracer.wrap(getattr(cls, attr), f"polynomials.{op}", after_op))


def _per_call(durations, scale):
    """p50 and the highest percentile with at least ten samples beyond it."""
    n = len(durations)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    ds = sorted(durations)
    if n <= 10:
        return statistics.median(ds) * scale, ds[-1] * scale, 100.0, n
    return statistics.median(ds) * scale, ds[n - 11] * scale, 100.0 * (n - 10) / n, n


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)
    layer_of = {sid: name.split(".", 1)[0] for sid, name, *_ in tracer.spans}

    def dur(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ())) / passes

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def prefixed(prefix):
        return [s for name, group in by_name.items() if name.startswith(prefix) for s in group]

    def outer_time(layer):
        """Time in the layer, counting nested spans of the same layer once."""
        return sum(s[3] - s[2] for s in prefixed(layer + ".")
                   if layer_of.get(s[4]) != layer) / passes

    counts = {k: v / passes for k, v in tracer.counts.items()}
    m = {}
    for command in ("envelope", "sampling-compare", "fig1", "trace", "fig2",
                    "approx-check", "verify-all"):
        m[f"cli.{command}_s"] = dur(f"cli.{command}")

    envelope = dur("harness.envelope_curves")
    busy = dur("harness.pool_task")
    m["harness.envelope_curves_s"] = envelope
    m["harness.pool_busy_s"] = busy
    m["harness.pool_overlap"] = busy / envelope if envelope else 0.0
    m["harness.pool_queue_wait_s"] = counts.get("harness.pool_queue_wait_s", 0.0)
    m["harness.workers"] = tracer.counts.get("harness.workers", 0)
    m["harness.write_csv_s"] = dur("harness.write_csv")
    m["harness.csv_bytes"] = counts.get("harness.csv_bytes", 0)

    for name in BATCHED:
        m[f"optimizers.batched_s.{name}"] = dur(f"optimizers.batched.{name}")
        m[f"optimizers.batched_cpu_s.{name}"] = sum(
            tracer.cpu[s[0]] for s in by_name.get(f"optimizers.batched.{name}", ())) / passes
    batched_s = sum(m[f"optimizers.batched_s.{name}"] for name in BATCHED)
    batched_calls = counts.get("optimizers.batched_calls", 0)
    m["optimizers.batched_calls"] = batched_calls
    m["optimizers.ns_per_sim_call"] = 1e9 * batched_s / batched_calls if batched_calls else 0.0
    for name in SCALAR_RUNS:
        m[f"optimizers.run_s.{name}"] = dur(f"optimizers.run.{name}")
    m["optimizers.run_calls"] = counts.get("optimizers.run_calls", 0)
    m["optimizers.expected_error_curve_s"] = dur("optimizers.expected_error_curve")

    for query in QUERIES:
        m[f"oracles.answer_calls.{query}"] = (
            calls(f"oracles.answer.numeric.{query}") + calls(f"oracles.answer.symbolic.{query}"))
    for kind in ("numeric", "symbolic"):
        spans = prefixed(f"oracles.answer.{kind}.")
        m[f"oracles.answer_s.{kind}"] = sum(s[3] - s[2] for s in spans) / passes
        p50, tail, pct, n = _per_call([s[3] - s[2] for s in spans], 1e6)
        m[f"oracles.answer_us.{kind}.p50"] = p50
        m[f"oracles.answer_us.{kind}.tail"] = tail
        m[f"oracles.answer_us.{kind}.tail_pct"] = pct
        m[f"oracles.answer_us.{kind}.n"] = n

    builds = prefixed("instances.build.")
    m["instances.build_calls"] = len(builds) / passes
    m["instances.build_s"] = sum(s[3] - s[2] for s in builds) / passes

    op_self = 0.0
    for op in POLY_OPS:
        spans = by_name.get(f"polynomials.{op}", ())
        m[f"polynomials.op_calls.{op}"] = len(spans) / passes
        op_self += sum(s[6] for s in spans) / passes
    terms = counts.get("polynomials.terms_out", 0)
    m["polynomials.op_self_s"] = op_self
    m["polynomials.terms_out"] = terms
    m["polynomials.ns_per_term"] = 1e9 * op_self / terms if terms else 0.0
    m["polynomials.to_json_s"] = dur("polynomials.to_json")
    m["polynomials.json_bytes"] = counts.get("polynomials.json_bytes", 0)

    m["trace.trace_oblivious_s"] = dur("trace.trace_oblivious")
    m["trace.trace_oblivious_self_s"] = sum(
        s[6] for s in by_name.get("trace.trace_oblivious", ())) / passes
    m["trace.calls"] = calls("trace.trace_oblivious")
    m["trace.fig2_s"] = dur("trace.fig2_data")

    for norm in ("l1", "uniform", "l2"):
        m[f"bestapprox.{norm}_calls"] = calls(f"bestapprox.{norm}")
        m[f"bestapprox.{norm}_s"] = dur(f"bestapprox.{norm}")
    lps = by_name.get("bestapprox.lp", ())
    m["bestapprox.lp_s"] = dur("bestapprox.lp")
    m["bestapprox.lp_nit"] = counts.get("bestapprox.lp_nit", 0)
    m["bestapprox.lp_vars"] = tracer.counts.get("bestapprox.lp_vars", 0) / len(lps) if lps else 0.0
    m["bestapprox.lp_success_ratio"] = (
        tracer.counts.get("bestapprox.lp_success", 0) / len(lps) if lps else 0.0)
    p50, tail, pct, n = _per_call([s[3] - s[2] for s in lps], 1e3)
    m["bestapprox.lp_ms.p50"] = p50
    m["bestapprox.lp_ms.tail"] = tail
    m["bestapprox.lp_ms.tail_pct"] = pct
    m["bestapprox.lp_ms.n"] = n

    m["bounds.calls"] = len(prefixed("bounds.")) / passes
    m["bounds.s"] = outer_time("bounds")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s[6] for s in prefixed(layer + ".")) / passes
    m["tracing.spans"] = len(tracer.spans) / passes
    return m
