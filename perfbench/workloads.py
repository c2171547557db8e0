"""The benchmark's workloads: command lists for ``lblab.cli.main`` and the
analytic work each command does.

Every workload is a closed loop: one caller runs its commands one after the
other, in one process, and the next command starts when the previous one
has returned.  One pass of the list is the unit ``wall_s`` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIGS = Path(__file__).resolve().parent / "configs"

# The seed whose outputs are pinned by SHA-256 in references.json.
DEFAULT_SEED = 0

# `trace --opt sag --family fsm --n 8 --k 18` emits 2.7 MB to 8.9 MB of JSON
# (2.9 s to 8.0 s) depending on its index-stream seed, over seeds 0..5.  A
# seeded sag trace would make wall_s measure the seed rather than the code, so
# that trace keeps the default seed; the two cheap traces take the workload
# seed, whose effect on their size is a few percent.
SAG_TRACE_SEED = DEFAULT_SEED

# approx-check solves one L1 LP per degree above zero; each takes 4-5 s.
# --kmax 2 runs two of them and keeps one pass under 10 s.
APPROX_KMAX = 2


@dataclass(frozen=True)
class Command:
    """One call of ``lblab.cli.main``.

    ``check`` names the output check in ``checks.py``: ``sha256`` compares
    stdout with the reference bytes, ``trace`` checks a seeded trace's
    seed-independent invariants, ``approx`` compares approx-check rows and
    ``verify`` parses the verify-all report.  ``work`` maps stdout to the
    units of work the command did (see ``Workload.work_name``).
    """

    key: str
    argv: tuple
    check: str = "sha256"
    budget: int = 0  # degree budget (oracle calls) of a trace command
    work: Callable[[str], int] = lambda out: 0


@dataclass(frozen=True)
class Workload:
    name: str
    work_name: str  # the throughput the workload reports, e.g. mc_calls_per_s
    commands: tuple


def _envelope_calls(config=None, family="fsm"):
    """Simulated oracle calls of one `envelope` run: grid x seeds x calls per
    schedule, with deterministic schedules collapsed to one seed (as in
    ``optimizers.expected_error_curve``)."""
    from lblab import harness, optimizers

    cfg = harness.load_config(config, family=family)
    per_seed = cfg.grid_points * cfg.iterations
    return sum(per_seed * (1 if name in optimizers.DETERMINISTIC_NAMES else cfg.seeds)
               for name in cfg.optimizers)


def _run_calls():
    """Oracle calls of `run` for one deterministic schedule: grid x calls."""
    from lblab import harness

    cfg = harness.load_config()
    return cfg.grid_points * cfg.iterations


def _sampling_compare_calls():
    from lblab import harness

    cfg = harness.load_config()
    return 2 * cfg.seeds * cfg.iterations  # with and without replacement


def _fig1_calls():
    iterations = 400  # the cli's fig1 default
    return 3 * iterations + (2 * iterations + 1)  # gd, agd, hb; lbfgs


def _const(n):
    return lambda out: n


def _trace_terms(out):
    return out.count('"exp"')


def _approx_rows(out):
    return max(0, len(out.splitlines()) - 2)  # minus config-hash and header lines


def _trace(key, opt, family, n, k, seed):
    argv = ("trace", "--opt", opt, "--family", family, "--n", str(n), "--k", str(k),
            "--seed", str(seed))
    check = "sha256" if seed == DEFAULT_SEED else "trace"
    return Command(key, argv, check=check, budget=k, work=_trace_terms)


NAMES = ("montecarlo", "scalar", "symbolic", "sandwich")


def build(name: str, seed: int) -> Workload:
    """The workload's commands for ``seed``; needs ``lblab`` importable."""
    if name == "montecarlo":
        rlm = str(CONFIGS / "rlm_sdca.ini")
        return Workload(name, "mc_calls_per_s", (
            Command("envelope_fsm", ("envelope", "--family", "fsm"),
                    work=_const(_envelope_calls())),
            Command("envelope_rlm_sdca", ("envelope", "--family", "rlm", "--config", rlm),
                    work=_const(_envelope_calls(rlm, "rlm"))),
            Command("sampling_compare", ("sampling-compare",),
                    work=_const(_sampling_compare_calls())),
        ))
    if name == "scalar":
        return Workload(name, "mc_calls_per_s", tuple(
            Command(f"run_{opt}_fsm", ("run", "--opt", opt, "--family", "fsm"),
                    work=_const(_run_calls()))
            for opt in ("gd", "agd", "hb", "cd_cyclic")
        ) + (Command("fig1_d200", ("fig1", "--d", "200"), work=_const(_fig1_calls())),))
    if name == "symbolic":
        return Workload(name, "terms_per_s", (
            _trace("trace_sag_fsm", "sag", "fsm", 8, 18, SAG_TRACE_SEED),
            _trace("trace_sdca_rlm", "sdca", "rlm", 8, 24, seed),
            _trace("trace_svrg_fsm", "svrg", "fsm", 4, 14, seed),
            Command("fig2", ("fig2",)),
        ))
    if name == "sandwich":
        return Workload(name, "solves_per_s", (
            Command("approx_check", ("approx-check", "--kmax", str(APPROX_KMAX)),
                    check="approx", work=_approx_rows),
            Command("verify_all", ("verify-all",), check="verify"),
        ))
    raise ValueError(f"unknown workload {name!r}")
