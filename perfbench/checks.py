"""Output checks for every benchmark command.

Each check returns None when the output is right and a one-line reason
when it is not.  References live in ``references.json``, captured from the
program by ``capture.py`` at the default seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"
REL_TOL = 1e-9


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(workload: str, cmd, code: int, out: str, refs: dict):
    if code != 0:
        return f"exit code {code}, expected 0"
    ref = refs["commands"][f"{workload}/{cmd.key}"]
    if cmd.check == "sha256":
        if sha256(out) != ref["sha256"]:
            return "stdout differs from the reference bytes"
        return None
    if cmd.check == "trace":
        return _check_trace(out, ref, cmd.budget)
    if cmd.check == "approx":
        return _check_approx(out, ref)
    if cmd.check == "verify":
        return _check_verify(out, ref)
    raise ValueError(f"unknown check {cmd.check!r}")


def _check_trace(out: str, ref: dict, budget: int):
    """Seed-independent invariants of a trace: one JSON polynomial per
    coordinate, each in the reference's indeterminates and within the
    degree budget (total degree <= oracle calls)."""
    lines = out.splitlines()
    if len(lines) != ref["lines"]:
        return f"{len(lines)} lines, expected {ref['lines']}"
    for i, line in enumerate(lines):
        try:
            poly = json.loads(line)
        except json.JSONDecodeError:
            return f"line {i + 1} is not JSON"
        if poly.get("vars") != ref["vars"]:
            return f"line {i + 1} has {poly.get('vars')} indeterminates, expected {ref['vars']}"
        for term in poly["terms"]:
            if len(term["exp"]) != ref["vars"] or sum(term["exp"]) > budget:
                return f"line {i + 1} breaks the degree budget {budget}: {term['exp']}"
            if int(term["den"]) <= 0:
                return f"line {i + 1} has a non-positive denominator"
    return None


def parse_csv(out: str):
    """(comment line, header, rows) of an lblab CSV artifact."""
    lines = out.splitlines()
    return lines[0], lines[1], [line.split(",") for line in lines[2:]]


def _check_approx(out: str, ref: dict):
    """Every row within REL_TOL of its reference, and every analytic lower
    bound at most the brute-force optimum."""
    try:
        comment, header, rows = parse_csv(out)
    except IndexError:
        return "approx-check printed fewer than two lines"
    if (comment, header) != (ref["comment"], ref["header"]):
        return "approx-check header differs from the reference"
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} approx-check rows, expected {len(ref['rows'])}"
    for row, want in zip(rows, ref["rows"]):
        if row[:2] != want[:2]:
            return f"row {row[:2]} where {want[:2]} was expected"
        got = [float(v) for v in row[2:]]
        for g, w in zip(got, want[2:]):
            if abs(g - w) > REL_TOL * abs(w):
                return f"row {row[:2]}: {g!r} differs from {w!r} by more than {REL_TOL:g} relative"
        lb, bf = got[0], got[1]
        if not lb <= bf * (1 + REL_TOL):
            return f"row {row[:2]}: analytic bound {lb!r} exceeds brute force {bf!r}"
    return None


def _check_verify(out: str, ref: dict):
    """verify-all embeds per-check seconds, so its report is parsed: every
    check line says PASS and every module summary says 0 failed."""
    body, _, summary = out.partition("\n\n")
    checks = body.splitlines()
    if len(checks) != ref["checks"]:
        return f"{len(checks)} verify-all checks, expected {ref['checks']}"
    failed = [line for line in checks if not line.startswith("PASS ")]
    if failed:
        return f"verify-all check failed: {failed[0].split()[:3]}"
    modules = summary.splitlines()
    if not modules or any(not line.endswith(", 0 failed") for line in modules):
        return "verify-all summary reports failures"
    return None
