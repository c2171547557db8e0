"""Command-line front-end.

Subcommands: bounds, approx-check, trace, fig2, fig1, run, envelope,
sampling-compare, verify-all.  The worker cap is taken from LBLAB_THREADS.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, trace
from .harness import EXIT_CONFIG, EXIT_OK, ConfigError


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or value as a ConfigError, so it takes the same
    exit-3 path as every other bad input."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--family", choices=sorted(set(harness.FAMILIES) | set(trace.FAMILIES)))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--kappa", type=float, help="condition number; sets L = kappa * mu")
    p.add_argument("--iters", type=int, dest="iterations")
    p.add_argument("--seeds", type=int)
    p.add_argument("--eta-grid", type=int, dest="grid_points")


def _config(args):
    overrides = {k: getattr(args, k, None)
                 for k in ("family", "n", "d", "iterations", "seeds", "grid_points", "kappa")}
    return harness.load_config(args.config, **overrides)


def main(argv=None) -> int:
    parser = _Parser(prog="lblab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="tabulate an analytic lower bound as k,bound")
    _add_common(p)
    p.add_argument("--formula", default="maxnorm", choices=harness.FORMULAS)
    p.add_argument("--kmax", type=int, default=20)

    p = sub.add_parser("approx-check", help="analytic bounds vs brute-force optima")
    _add_common(p)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--grid", type=int, help="sample points (default: the config's approx_grid)")

    p = sub.add_parser("trace", help="symbolic iterate polynomials (JSON lines)")
    _add_common(p)
    p.add_argument("--opt", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig2", help="GD/AGD iterates vs 1/eta table")
    _add_common(p)
    p.add_argument("--svg", help="optional SVG path")

    p = sub.add_parser("fig1", help="chain-quadratic benchmark curves")
    _add_common(p)
    p.add_argument("--svg", help="optional SVG path")

    p = sub.add_parser("run", help="worst-case Monte-Carlo curve for one optimizer")
    _add_common(p)
    p.add_argument("--opt", required=True)

    p = sub.add_parser("envelope", help="lower-bound envelope audit (exit 2 on violation)")
    _add_common(p)

    p = sub.add_parser("sampling-compare", help="with vs without replacement sampling")
    _add_common(p)

    p = sub.add_parser("verify-all", help="full invariant suite")
    p.add_argument("--full", action="store_true", help="no quick-mode shortcuts")

    try:
        args = parser.parse_args(argv)
        if args.command == "verify-all":
            checks = harness.verify_all(quick=not args.full)
            sys.stdout.write(harness.verify_report(checks))
            return EXIT_OK if all(c[2] for c in checks) else 1

        cfg = _config(args)
        if getattr(args, "kmax", 0) < 0:
            raise ConfigError(f"kmax must be >= 0, got {args.kmax}")
        if args.command == "bounds":
            rows = harness.bounds_table(args.formula, cfg, args.kmax)
            out = harness.write_csv(args.out, ["k", "bound"], rows, cfg.hash(),
                                    units=args.formula)
        elif args.command == "approx-check":
            grid = cfg.approx_grid if args.grid is None else args.grid
            rows = harness.approx_check_rows(args.kmax, grid)
            out = harness.write_csv(args.out, ["norm", "k", "analytic_lb", "bruteforce", "ratio"],
                                    rows, cfg.hash(), units="approximation error")
        elif args.command == "trace":
            out = harness.cmd_trace(cfg, args.opt, args.k, args.seed, args.out)
        elif args.command == "fig2":
            out = harness.cmd_fig2(cfg, args.out, args.svg)
        elif args.command == "fig1":
            if args.iterations is None:
                cfg.iterations = 400
            out = harness.cmd_fig1(cfg, args.out, args.svg)
        elif args.command == "run":
            out = harness.cmd_run(cfg, args.opt, args.out)
        elif args.command == "envelope":
            code, out = harness.cmd_envelope(cfg, args.out)
            if args.out is None:
                sys.stdout.write(out)
            return code
        elif args.command == "sampling-compare":
            out = harness.cmd_sampling_compare(cfg, args.out)
        else:
            raise AssertionError("unreachable")
        if args.out is None:
            sys.stdout.write(out)
        return EXIT_OK
    except ValueError as e:  # ConfigError, and bad values the library rejects
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
