#!/usr/bin/env python3
"""lblab benchmark: one workload, in one process, through ``lblab.cli.main``.

    python3 perfbench/run.py --workload montecarlo --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports lblab from ``src/`` beside this
directory and nowhere else.  Workloads: montecarlo, scalar, symbolic,
sandwich (see workloads.py and BENCHMARK.json).

With ``--trace 0`` it times passes over the workload's command list with
tracing off and reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced pass, then traced passes, and reports the per-layer metrics and
the tracing overhead.  Every command's output is checked on every pass.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_IMPORTS = 5
# Cumulative import times reported by the traced run (python -X importtime).
# scipy.integrate loads lazily, so its heavy submodules are named instead.
SETUP_MODULES = ("lblab.cli", "lblab", "lblab.harness", "lblab.bounds", "lblab.bestapprox",
                 "lblab.instances", "lblab.optimizers", "lblab.oracles", "lblab.polynomials",
                 "lblab.trace", "numpy", "scipy.optimize", "scipy.sparse", "scipy.special",
                 "scipy.integrate._quadrature", "scipy.integrate._bvp", "mpmath")
IMPORT_CODE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "t0 = time.perf_counter()\n"
    "import lblab.cli\n"
    "t1 = time.perf_counter()\n"
    f"assert lblab.cli.__file__.startswith({str(SRC)!r}), lblab.cli.__file__\n"
    "print(t1 - t0)\n"
)


def fresh_import(*flags) -> subprocess.CompletedProcess:
    """`import lblab.cli` in a fresh interpreter."""
    return subprocess.run([sys.executable, *flags, "-c", IMPORT_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)


def import_times() -> dict:
    """Cumulative seconds per module from `python -X importtime`."""
    cumulative = {}
    for line in fresh_import("-X", "importtime").stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {f"setup.import_s.{mod}": cumulative.get(mod, 0.0) for mod in SETUP_MODULES}


class Runner:
    """Runs passes over one workload and checks every output."""

    def __init__(self, workload, refs, cli):
        self.workload, self.refs, self.cli = workload, refs, cli
        self.attempted = 0
        self.failures = []
        self.config_hashes = {}
        self.tracer = None

    def command(self, cmd):
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.cli.main(list(cmd.argv))
                else:
                    self.tracer.run_id += 1
                    code = self.tracer.call(f"cli.{cmd.argv[0]}", self.cli.main, (list(cmd.argv),))
        except SystemExit as e:
            code = e.code
        except Exception:
            code, error = None, traceback.format_exc()
        return perf_counter() - t0, code, out.getvalue(), error or err.getvalue()

    def one_pass(self):
        """(seconds, units of work) of one pass over the command list."""
        wall = work = 0
        for cmd in self.workload.commands:
            secs, code, out, err = self.command(cmd)
            wall += secs
            self.attempted += 1
            reason = checks.check(self.workload.name, cmd, code, out, self.refs)
            if reason is None:
                work += cmd.work(out)
            else:
                self.failures.append(f"{cmd.key}: {reason}")
                sys.stderr.write(f"perfbench: {cmd.key} failed: {reason}\n{err}")
            first = out.split("\n", 1)[0]
            if first.startswith("# config_hash="):
                self.config_hashes[cmd.key] = first.split()[1].split("=")[1]
        return wall, work

    def passes(self, seconds, started):
        """Passes until the next one would end after ``seconds`` from
        ``started``; at least one."""
        walls, works = [], []
        while True:
            wall, work = self.one_pass()
            walls.append(wall)
            works.append(work)
            if perf_counter() - started + wall > seconds:
                return walls, works


def environment(runner) -> dict:
    import mpmath
    import numpy
    import scipy
    from lblab import harness

    return {"nproc": os.cpu_count(), "lblab_threads": harness.worker_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "config_hash": runner.config_hashes}


def declared(kind) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(runner, values: dict, kind: str):
    units = declared(kind)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    for name, value in values.items():
        print(f"{name:44s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lblab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no lblab sources in {SRC}\n")
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    setup = [] if args.trace else [float(fresh_import().stdout) for _ in range(SETUP_IMPORTS)]
    layer_setup = import_times() if args.trace else {}
    sys.path.insert(0, str(SRC))
    import lblab.cli as cli

    runner = Runner(workloads.build(args.workload, args.seed), checks.load_references(), cli)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    started = perf_counter()
    if not args.trace:
        walls, works = runner.passes(args.seconds, started)
        wall = statistics.median(walls)
        throughput = statistics.median(w / t for w, t in zip(works, walls))
        share = len(runner.failures) / runner.attempted
        print(f"env {json.dumps(environment(runner))}")
        print(f"passes {len(walls)}: wall_s {' '.join(f'{w:.4f}' for w in walls)}")
        print(f"{'ops_failed_share':44s} {share:16.6g} ratio")
        print(f"{runner.workload.work_name:44s} {throughput:16.6g} 1/s")
        report(runner, {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_share": 1.0 - share,
            "work_per_s": throughput,
        }, "end_to_end")
        return 0

    untraced, _ = runner.one_pass()
    env = environment(runner)  # before install, so that it records no span
    runner.tracer = tracing.Tracer()
    tracing.install(runner.tracer)
    walls, _ = runner.passes(args.seconds, started)
    traced = statistics.median(walls)
    print(f"env {json.dumps(env)}")
    print(f"passes: untraced {untraced:.4f} s, traced {' '.join(f'{w:.4f}' for w in walls)}")
    values = tracing.layer_metrics(runner.tracer, len(walls))
    values.update(layer_setup)
    values.update({"tracing.untraced_wall_s": untraced, "tracing.traced_wall_s": traced,
                   "tracing.overhead_s": traced - untraced})
    report(runner, values, "per_layer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
