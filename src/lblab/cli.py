"""Command-line front-end.

Subcommands: bounds, approx-check, trace, fig2, fig1, run, envelope,
sampling-compare, verify-all.  Each one's body is a `harness.cmd_*`
function that returns (exit code, text); `main` writes that text in one
place, to `--out` if given (verify-all has no `--out`) and to stdout
otherwise, so `--out` writes exactly the bytes the command would print.
Each subcommand takes only the setting flags its body reads (`bounds`, only
those its formula reads); a config file may still set any field.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness, trace
from .harness import EXIT_CONFIG, ConfigError


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or value as a ConfigError, so it takes the same
    exit-3 path as every other bad input."""

    def error(self, message):
        raise ConfigError(message)


# The setting flags: each sets the config field named by its dest.
_FLAGS = {
    "--family": dict(choices=sorted(set(harness.FAMILIES) | set(trace.FAMILIES))),
    "--n": dict(type=int),
    "--d": dict(type=int),
    "--kappa": dict(type=float, help="condition number; sets L = kappa * mu"),
    "--iters": dict(type=int, dest="iterations"),
    "--seeds": dict(type=int),
    "--eta-grid": dict(type=int, dest="grid_points"),
}


def _add_common(p, *flags):
    """--config, --out and the named setting flags: those the body reads."""
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="output path (default: stdout)")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def _config(args):
    """The config file, then every parsed arg that names a setting."""
    names = {f.name for f in dataclasses.fields(harness.ExperimentConfig)} | {"kappa"}
    return harness.load_config(getattr(args, "config", None),
                               **{k: v for k, v in vars(args).items() if k in names})


def _bounds(cfg, args):
    """`bounds`, refusing a setting flag its formula does not read."""
    reads = harness.FORMULAS[args.formula][0]
    for flag in ("--n", "--kappa"):
        if getattr(args, flag[2:]) is not None and flag not in reads:
            raise ConfigError(f"bounds --formula {args.formula} does not read {flag}")
    return harness.cmd_bounds(cfg, args.formula, args.kmax)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lblab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="tabulate an analytic lower bound as k,bound")
    _add_common(p, "--n", "--kappa")
    p.add_argument("--formula", default="maxnorm", choices=harness.FORMULAS)
    p.add_argument("--kmax", type=int, default=20)
    p.set_defaults(body=_bounds)

    p = sub.add_parser("approx-check", help="analytic bounds vs brute-force optima")
    _add_common(p)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--grid", type=int, dest="approx_grid",
                   help="sample points (default: the config's approx_grid)")
    p.set_defaults(body=lambda cfg, a: harness.cmd_approx_check(cfg, a.kmax))

    p = sub.add_parser("trace", help="symbolic iterate polynomials (JSON lines)")
    _add_common(p, "--family", "--n", "--d", "--kappa")
    p.add_argument("--opt", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(body=lambda cfg, a: harness.cmd_trace(cfg, a.opt, a.k, a.seed))

    p = sub.add_parser("fig2", help="GD/AGD iterates vs 1/eta table")
    _add_common(p, "--kappa")
    p.add_argument("--svg", help="optional SVG path")
    p.set_defaults(body=lambda cfg, a: harness.cmd_fig2(cfg, a.svg))

    p = sub.add_parser("fig1", help="chain-quadratic benchmark curves")
    _add_common(p, "--d", "--kappa", "--iters")
    p.add_argument("--svg", help="optional SVG path")
    p.set_defaults(body=lambda cfg, a: harness.cmd_fig1(cfg, a.svg), iterations=400)

    p = sub.add_parser("run", help="worst-case Monte-Carlo curve for one optimizer")
    _add_common(p, *_FLAGS)
    p.add_argument("--opt", required=True)
    p.set_defaults(body=lambda cfg, a: harness.cmd_run(cfg, a.opt))

    p = sub.add_parser("envelope", help="lower-bound envelope audit (exit 2 on violation)")
    _add_common(p, *_FLAGS)
    p.set_defaults(body=lambda cfg, a: harness.cmd_envelope(cfg))

    p = sub.add_parser("sampling-compare", help="with vs without replacement sampling")
    _add_common(p, "--n", "--d", "--kappa", "--iters", "--seeds")
    p.set_defaults(body=lambda cfg, a: harness.cmd_sampling_compare(cfg))

    p = sub.add_parser("verify-all", help="full invariant suite")
    p.add_argument("--full", action="store_true", help="no quick-mode shortcuts")
    p.set_defaults(body=lambda cfg, a: harness.cmd_verify_all(a.full))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config(args)
        if getattr(args, "kmax", 0) < 0:
            raise ConfigError(f"kmax must be >= 0, got {args.kmax}")
        code, text = args.body(cfg, args)
        out = getattr(args, "out", None)
        if out is not None:
            os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
            with open(out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as e:  # ConfigError, rejected values, unwritable output
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    if out is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
