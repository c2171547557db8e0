"""The behaviour contract: every CLI output that the benchmark pins by
SHA-256 in perfbench/references.json, rerun in-process at the default seed."""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

from lblab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def pinned_commands():
    # run_path compiles without caching bytecode, so perfbench/ is only read
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    refs = json.loads((PERFBENCH / "references.json").read_text())
    for name in workloads["NAMES"]:
        for cmd in workloads["build"](name, refs["default_seed"]).commands:
            key = f"{name}/{cmd.key}"
            if cmd.check == "sha256":
                yield pytest.param(cmd.argv, refs["commands"][key]["sha256"], id=key)


@pytest.mark.parametrize("argv,sha256", pinned_commands())
def test_pinned_output_bytes(argv, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256
