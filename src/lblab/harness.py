"""Experiment configuration, CSV/SVG emission, and the command bodies behind
the CLI subcommands.

Each `cmd_*` body returns (exit code, text), and the CLI writes the text.
CSV is the canonical artifact and always begins with a comment line carrying
the config hash; SVG plots are a dependency-free convenience.  Exit codes:
0 success, 1 a failed verify-all check, 2 envelope violation, 3 config error.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
import warnings
from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bestapprox, bounds, instances, optimizers, polynomials, trace

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    family: str = "fsm"
    optimizers: tuple = ("sag", "saga", "svrg", "sdca_primal", "cd_random")
    L: float = 100.0
    mu: float = 1.0
    n: int = 8
    d: int = 4
    R: float = 1.0
    lam: float = 0.01
    grid_points: int = 33
    iterations: int = 200
    seeds: int = 100
    approx_grid: int = 4097
    lbfgs_memory: int = 100

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    def hash(self) -> str:
        # two retired fields stay in the text at their old values, so every hash holds
        fields = {**asdict(self), "outdir": "out", "envelope_prefactor": "appendix"}
        text = ",".join(f"{k}={v}" for k, v in sorted(fields.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_config(path=None, kappa=None, **overrides) -> ExperimentConfig:
    """Defaults, then the config file, then `overrides`; a given `kappa`
    sets L = kappa * mu last.  L, mu, R and lam must be finite."""
    cfg = ExperimentConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as e:  # a line outside any [section], say
            raise ConfigError(f"bad config file: {' '.join(str(e).split())}") from e
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            for key, val in parser.items(section):
                _apply(cfg, key, val, where=f"{path}[{section}]")
    for key, val in overrides.items():
        if val is not None:
            _apply(cfg, key, val, where="command line")
    if kappa is not None:
        cfg.L = kappa * cfg.mu
    for key in ("L", "mu", "R", "lam"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(cfg, key)!r}")
    if not cfg.L > cfg.mu > 0:
        raise ConfigError(f"need L > mu > 0 (kappa > 1), got L={cfg.L!r}, mu={cfg.mu!r}")
    for key in ("n", "d", "grid_points", "seeds"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    if cfg.iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {cfg.iterations}")
    return cfg


def _apply(cfg, key, val, where=""):
    if not hasattr(cfg, key):
        raise ConfigError(f"unknown config key {key!r} ({where})")
    cur = getattr(cfg, key)
    try:
        if isinstance(cur, tuple):
            val = tuple(v.strip() for v in str(val).split(",")) if isinstance(val, str) else tuple(val)
        elif isinstance(cur, int):
            val = int(val)
        elif isinstance(cur, float):
            val = float(val)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {val!r} ({where})") from e
    setattr(cfg, key, val)


def worker_count() -> int:
    """1: the envelope runs its schedules one after another in the calling
    thread.  Only the environment block of `perfbench/run.py` reads this;
    ROADMAP item 1's benchmark change deletes it, together with that block's
    `lblab_threads` field, `TracedPool` and the `harness.pool_*` metrics."""
    return 1


def write_csv(header_cols, rows, cfg_hash, units=""):
    buf = io.StringIO()
    buf.write(f"# config_hash={cfg_hash} units={units}\n")
    buf.write(",".join(header_cols) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_svg(path, curves, title="", logy=True):
    """Write a minimal 640x420 polyline plot to `path` and return its text;
    curves is {label: (x, y)}."""
    width, height, pad = 640, 420, 50
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in curves.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in curves.values()])
    if logy:
        ys = ys[ys > 0]
    ymin, ymax = float(ys.min()), float(ys.max())
    xmin, xmax = float(xs.min()), float(xs.max())
    if logy:
        ymin, ymax = math.log10(ymin), math.log10(ymax)
    span_x = (xmax - xmin) or 1.0
    span_y = (ymax - ymin) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<text x="{width//2}" y="20" text-anchor="middle">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{width-2*pad}" height="{height-2*pad}" '
             'fill="none" stroke="#000"/>']
    for ci, (label, (x, y)) in enumerate(sorted(curves.items())):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if logy:
            keep = y > 0
            x, y = x[keep], np.log10(y[keep])
        px = pad + (x - xmin) / span_x * (width - 2 * pad)
        py = height - pad - (y - ymin) / span_y * (height - 2 * pad)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        col = colors[ci % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{col}" points="{pts}"/>')
        parts.append(f'<text x="{width-pad+4}" y="{pad+16*ci+12}" fill="{col}" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    text = "\n".join(parts)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------------
# command bodies


def approx_check_rows(kmax: int, grid: int):
    """norm,k,analytic_lb,bruteforce,ratio rows for the three norms, printed
    inf, l1, l2.  The L1 LPs run first: their certificate fails first as kmax
    grows, so a kmax they refuse costs no minimax LP and no Gram solve."""
    mu, L = 1.0, 4.0
    c = (L + mu) / 2
    half = (L - mu) / 2
    l1 = []
    for k in range(kmax + 1):
        lb = bounds.l1_lb(L, mu, c, k)
        bf, _ = bestapprox.best_l1(lambda e: 1.0 / (e + c), (-half, half), k - 1,
                                   max(grid, 8193))
        l1.append(["l1", k, lb, bf, bf / lb])
    rows = []
    for k in range(kmax + 1):
        lb = bounds.maxnorm_lb(mu, L, 0.0, k)
        bf, _ = bestapprox.best_uniform(lambda e: 1.0 / e, (mu, L), k, grid)
        rows.append(["inf", k, lb, bf, bf / lb])
    rows += l1
    for alpha in (-0.9, -0.5, -0.1):
        for k, bf in enumerate(bestapprox.weighted_l2_errors(alpha, kmax)):
            lb = bounds.l2_weighted_lb(alpha, k)
            rows.append([f"l2[{alpha}]", k, lb, bf, bf / lb])
    return rows


def fsm_scalar_grid(cfg: ExperimentConfig) -> np.ndarray:
    half = (cfg.L - cfg.mu) / 2
    return np.linspace(-half, half, cfg.grid_points)


class Family(NamedTuple):
    grid: Callable      # cfg -> parameters of the worst-case search
    instance: Callable  # (cfg, parameter) -> instance
    envelope: Optional[Callable] = None  # (cfg, oracle calls) -> lower-bound envelope


FAMILIES = {
    "fsm": Family(
        fsm_scalar_grid,
        lambda cfg, eta: instances.fsm_instance(np.full(cfg.n, eta), cfg.L, cfg.mu, cfg.R, cfg.d),
        lambda cfg, k: bounds.fsm_rate_envelope(
            cfg.kappa, cfg.n, k, bounds.fsm_envelope_prefactor(cfg.mu, cfg.L, cfg.n, cfg.R))),
    "toy": Family(
        lambda cfg: np.linspace(cfg.mu, cfg.L, cfg.grid_points),
        lambda cfg, eta: instances.toy_instance(eta, cfg.mu, cfg.L)),
    "rlm": Family(
        lambda cfg: np.linspace(-math.pi / 2, math.pi / 2, cfg.grid_points),
        lambda cfg, psi: instances.rlm_instance(np.full(cfg.n // 2, psi), cfg.lam, cfg.n),
        lambda cfg, k: bounds.rlm_rate_envelope(cfg.lam, cfg.n, k)),
}

# `bounds` formulas: name -> (setting flags read, (cfg, k) -> bound at degree k).
FORMULAS = {
    "chebyshev_inf": ((), lambda cfg, k: bounds.chebyshev_lb_inf(2.0, k)),
    "maxnorm": (("--kappa",), lambda cfg, k: bounds.maxnorm_lb(cfg.mu, cfg.L, 0.0, k)),
    "l1": (("--kappa",), lambda cfg, k: bounds.l1_lb(cfg.L, cfg.mu, (cfg.L + cfg.mu) / 2, k)),
    "l2": ((), lambda cfg, k: bounds.l2_weighted_lb(-0.5, k)),
    "fsm_envelope": (("--n", "--kappa"), FAMILIES["fsm"].envelope),
}


def cmd_bounds(cfg: ExperimentConfig, formula: str, kmax: int):
    rows = [[k, float(FORMULAS[formula][1](cfg, k))] for k in range(kmax + 1)]
    return EXIT_OK, write_csv(["k", "bound"], rows, cfg.hash(), units=formula)


def cmd_approx_check(cfg: ExperimentConfig, kmax: int):
    rows = approx_check_rows(kmax, cfg.approx_grid)
    return EXIT_OK, write_csv(["norm", "k", "analytic_lb", "bruteforce", "ratio"], rows,
                              cfg.hash(), units="approximation error")


def _schedule(cfg: ExperimentConfig, name: str):
    """The named schedule; the loop that runs it checks it against its engine."""
    return optimizers.make_optimizer(name, L=cfg.L, mu=cfg.mu, memory=cfg.lbfgs_memory)


def _grid_instances(cfg: ExperimentConfig):
    """cfg.family's parameter grid and one instance per grid point, all built
    here: a bad setting fails before any run, and every schedule shares them.
    A schedule of the other oracle family fails when its run starts (exit 3)."""
    if cfg.family not in FAMILIES:
        raise ConfigError(f"family {cfg.family!r} has no instance grid")
    family = FAMILIES[cfg.family]
    grid = family.grid(cfg)
    return grid, [family.instance(cfg, param) for param in grid]


def envelope_curves(cfg: ExperimentConfig):
    """Worst-case Monte-Carlo curves and the analytic envelope per optimizer,
    the schedules run one after another."""
    if cfg.family not in FAMILIES or FAMILIES[cfg.family].envelope is None:
        raise ConfigError(f"no envelope family {cfg.family!r}")
    grid, insts = _grid_instances(cfg)
    schedules = [_schedule(cfg, name) for name in cfg.optimizers]
    env = FAMILIES[cfg.family].envelope(cfg, np.arange(cfg.iterations + 1))
    results = {sched.name: optimizers.expected_error_curve(sched, insts, grid,
                                                           cfg.iterations, cfg.seeds)
               for sched in schedules}
    return results, env


def cmd_envelope(cfg: ExperimentConfig):
    """Exits 2 on a violation: (mean - 3 stderr) < envelope at some call."""
    results, env = envelope_curves(cfg)
    rows = []
    violated = False
    for name in sorted(results):
        curve = results[name]
        lo = curve.lower_confidence()
        for k in range(cfg.iterations + 1):
            margin = lo[k] - env[k]
            if margin < 0:
                violated = True
            rows.append([name, k, curve.worst_mean[k], float(env[k]), float(margin)])
    csv = write_csv(["optimizer", "k", "empirical_worst", "envelope", "margin"],
                    rows, cfg.hash(), units="suboptimality per oracle call")
    return (EXIT_VIOLATION if violated else EXIT_OK), csv


def fig1_curves(cfg: ExperimentConfig):
    inst = instances.nesterov_chain(cfg.d, cfg.L, cfg.mu)
    out = {name: optimizers.run(_schedule(cfg, name), inst, cfg.iterations).errors
           for name in ("gd", "agd", "hb")}
    # L-BFGS: one init call + two mean-gradient evaluations per iteration
    errs = optimizers.run(_schedule(cfg, "lbfgs"), inst, 2 * cfg.iterations + 1).errors
    out["lbfgs"] = np.concatenate([errs[:1], errs[1::2]])[: cfg.iterations + 1]
    return out


def log_slope_fit(errs: np.ndarray, lo: int, hi: int):
    """Least-squares slope of ln(err) on iterations [lo, hi], truncated where
    the error has hit the numerical floor, 1e-13 * err[0].

    Returns (slope, r_squared, actual_hi)."""
    floor = errs[0] * 1e-13
    usable = np.where(errs > floor)[0]
    hi = min(hi, usable.max()) if usable.size else lo
    ks = np.arange(lo, hi + 1)
    if len(ks) < 3:
        return 0.0, 0.0, hi
    ys = np.log(errs[lo:hi + 1])
    A = np.vstack([ks, np.ones_like(ks)]).T
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2, hi


def cmd_fig1(cfg: ExperimentConfig, svg=None):
    """The CSV, and the same curves plotted to the file `svg` if given;
    curves that overflow float arithmetic (at a huge kappa) are refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warnings raise
        try:
            curves = fig1_curves(cfg)
        except (RuntimeWarning, ZeroDivisionError):  # the latter, a zero L-BFGS curvature
            curves = None
    if curves is None or not all(np.isfinite(v).all() for v in curves.values()):
        raise ConfigError(f"fig1's curves overflow float arithmetic at kappa={cfg.kappa!r}")
    ks = np.arange(cfg.iterations + 1)
    rows = [[int(k)] + [float(curves[n][k]) for n in ("gd", "agd", "hb", "lbfgs")]
            for k in ks]
    if svg is not None:
        write_svg(svg, {n: (ks, v) for n, v in curves.items()},
                  title=f"chain quadratic d={cfg.d} kappa={cfg.kappa:g}")
    return EXIT_OK, write_csv(["k", "gd", "agd", "hb", "lbfgs"], rows, cfg.hash(),
                              units="suboptimality per iteration")


def cmd_fig2(cfg: ExperimentConfig, svg=None):
    """The CSV, and each iterate's error plotted to the file `svg` if given."""
    header, rows = trace.fig2_data(cfg.L, cfg.mu)
    if svg is not None:
        etas = [r[0] for r in rows]
        curves = {name: (etas, [abs(r[i] - r[-1]) for r in rows])
                  for i, name in enumerate(header[1:-1], start=1)}
        write_svg(svg, curves, title="iterate error vs target", logy=False)
    return EXIT_OK, write_csv(header, rows, cfg.hash(), units="iterate value")


def cmd_run(cfg: ExperimentConfig, opt: str):
    grid, insts = _grid_instances(cfg)
    sched = _schedule(cfg, opt)
    curve = optimizers.expected_error_curve(sched, insts, grid, cfg.iterations, cfg.seeds)
    rows = [[int(k), float(curve.worst_mean[k]), float(curve.stderr[k]),
             float(curve.worst_param[k])] for k in curve.k]
    return EXIT_OK, write_csv(["k", "err_mean", "err_stderr", "worst_eta"], rows,
                              cfg.hash(), units="suboptimality per oracle call")


def cmd_trace(cfg: ExperimentConfig, opt: str, k: int, seed: int = 0):
    sched = _schedule(cfg, opt)
    vec = trace.trace_oblivious(sched, cfg.family, k, seed=seed, n=cfg.n, d=cfg.d,
                                L=cfg.L, mu=cfg.mu, R=cfg.R, lam=cfg.lam)
    lines = [polynomials.poly_to_json(e) for e in vec.entries]
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_sampling_compare(cfg: ExperimentConfig):
    """With- vs without-replacement component sampling for SAG on the fsm
    family; reported, not asserted."""
    if cfg.family != "fsm":
        raise ConfigError(f"sampling-compare runs on the fsm family only, got {cfg.family!r}")
    eta = (cfg.L - cfg.mu) / 2
    inst = FAMILIES["fsm"].instance(cfg, -eta)
    sched = _schedule(cfg, "sag")
    with_rep = optimizers.batched_curves(sched, [inst], cfg.iterations, cfg.seeds).mean(axis=0)
    without = optimizers.batched_curves(sched, [inst], cfg.iterations, cfg.seeds,
                                        replacement=False).mean(axis=0)
    rows = [[k, float(with_rep[k]), float(without[k])] for k in range(cfg.iterations + 1)]
    return EXIT_OK, write_csv(["k", "with_replacement", "without_replacement"], rows,
                              cfg.hash(), units="suboptimality per oracle call")



# ---------------------------------------------------------------------------
# verify-all


def verify_all(quick=True):
    """Run the cross-module invariant suite; returns a list of
    (module, check name, ok, detail) plus per-module counts."""
    import time as _time

    # the checks' lazy imports, loaded first so that no check's time includes one
    import scipy.integrate, scipy.optimize  # noqa: F401, E401
    checks = []

    def add(module, name, fn):
        t0 = _time.perf_counter()
        try:
            fn()
            ok, detail = True, ""
        except Exception as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        checks.append((module, name, ok, detail, _time.perf_counter() - t0))

    def ring_axioms():
        rng = np.random.default_rng(0)
        from fractions import Fraction
        for _ in range(10):
            ps = [polynomials.MultiPoly(2, {tuple(rng.integers(0, 3, 2)): Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
                                            for _ in range(3)}) for _ in range(3)]
            a, b, c = ps
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def cheb_matches_sine():
        for k in range(13):
            p = polynomials.chebyshev_U(k)
            for eta in np.linspace(-0.99, 0.99, 50):
                ref = math.sin((k + 1) * math.acos(eta)) / math.sqrt(1 - eta * eta)
                assert abs(float(p(eta)) - ref) <= 1e-10

    def sgn_orthogonality():
        for k in range(1, 11):
            for j in range(k):
                assert abs(polynomials.sgn_chebyshev_moment(j, k)) <= 1e-10

    def identities():
        for u in (1.1, 1.25, 2.0, 10.0, 1e6):
            rep = bounds.identity_checks(u, ks=(1, 2, 3))
            assert rep["algebraic"] <= 1e-12
        for u in (1.5, 2.0, 5.0):
            rep = bounds.identity_checks(u, ks=(1, 2, 3, 4, 5, 6))
            assert max(rep["sgn_integral"].values()) <= 1e-6

    def inf_sandwich():
        kmax = 4 if quick else 8
        for k in range(kmax + 1):
            lb = bounds.maxnorm_lb(1.0, 4.0, 0.0, k)
            bf, _ = bestapprox.best_uniform(lambda e: 1.0 / e, (1.0, 4.0), k, 2049)
            assert bf >= lb * (1 - 1e-9), f"k={k}: brute force {bf} < bound {lb}"

    def l2_exact_matches():
        for alpha in (-0.9, -0.5, -0.1):
            for k, solved in enumerate(bestapprox.weighted_l2_errors(alpha, 8)):
                closed = bounds.l2_weighted_exact(alpha, k)
                assert abs(closed - solved) <= 1e-9 * max(1.0, closed)

    def spectral_sandwich():
        for eta in np.linspace(-49.5, 49.5, 7):
            inst = instances.fsm_instance(np.full(4, eta), 100.0, 1.0, 1.0, 4)
            for Q, _ in inst.components:
                ev = Q.eigvals()
                assert ev[0] >= 1.0 - 1e-9 and ev[-1] <= 100.0 + 1e-9

    def minimizer_formulas():
        rng = np.random.default_rng(1)
        for _ in range(20):
            etas = rng.uniform(-49.5, 49.5, 4)
            inst = instances.fsm_instance(etas, 100.0, 1.0, 1.0, 4)
            closed = instances.fsm_minimizer(etas, 100.0, 1.0, 1.0, 4)
            assert np.linalg.norm(inst.minimizer - closed) <= 1e-8
        sep = instances.fsm_minimizer_separation(8, 100.0, 1.0)
        assert sep >= 0.2

    def degree_lemma():
        for name in ("gd", "sgd", "cd_cyclic"):
            sched = optimizers.make_optimizer(name, L=100.0, mu=1.0)
            trace.trace_oblivious(sched, "fsm", 8, seed=0, n=3, d=4,
                                  L=100.0, mu=1.0, R=1.0)

    def gd_guarantee():
        # |w_k - 1/eta| <= rate^(k/2)/eta, squared: the error contracts by rate per step
        mu, L = 1.0, 4.0
        rate = 1 - 2 / (1 + L / mu)
        gd = optimizers.make_optimizer("gd", L=L)
        for eta in np.linspace(mu, L, 9):
            errs = optimizers.run(gd, instances.toy_instance(eta, mu, L), 50).errors
            assert np.all(errs <= rate ** np.arange(51) * errs[0] + 1e-15)

    add("polynomials", "ring axioms", ring_axioms)
    add("polynomials", "chebyshev recurrence vs sine form", cheb_matches_sine)
    add("polynomials", "sgn(U_k) orthogonality", sgn_orthogonality)
    add("bounds", "technical identities", identities)
    add("bounds+bestapprox", "uniform-norm sandwich", inf_sandwich)
    add("bounds+bestapprox", "weighted-L2 closed form", l2_exact_matches)
    add("instances", "per-component spectral sandwich", spectral_sandwich)
    add("instances", "minimizer formulas and separation", minimizer_formulas)
    add("trace", "degree budget", degree_lemma)
    add("optimizers", "scalar GD guarantee", gd_guarantee)
    return checks


def verify_report(checks) -> str:
    lines = []
    counts = {}
    for module, name, ok, detail, secs in checks:
        counts.setdefault(module, [0, 0])
        counts[module][0 if ok else 1] += 1
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {module:22s} {name:38s} {secs:6.2f}s  {detail}")
    lines.append("")
    for module in sorted(counts):
        p, f = counts[module]
        lines.append(f"{module}: {p} passed, {f} failed")
    return "\n".join(lines) + "\n"


def cmd_verify_all(full: bool = False):
    """The invariant suite's report; exits 1 if any check fails."""
    checks = verify_all(quick=not full)
    return (EXIT_OK if all(c[2] for c in checks) else 1), verify_report(checks)
