#!/usr/bin/env python3
"""Write perfbench/references.json from the program's current outputs.

    python3 perfbench/capture.py

Runs every workload's commands once at the default seed and records what
checks.py compares against: stdout SHA-256 and line count, the degree-budget
shape of each trace, the approx-check rows and the verify-all check count.
Capture only on code whose outputs are known to be right: the references
are the behaviour contract later changes are held to.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import SRC, Runner

sys.path.insert(0, str(SRC))

import lblab.cli as cli  # noqa: E402


def main() -> int:
    refs = {"default_seed": workloads.DEFAULT_SEED, "commands": {}}
    for name in workloads.NAMES:
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        runner = Runner(workload, refs, cli)
        for cmd in workload.commands:
            secs, code, out, err = runner.command(cmd)
            if code != 0:
                sys.stderr.write(f"{name}/{cmd.key}: exit {code}\n{err}")
                return 1
            ref = {"lines": len(out.splitlines())}
            if cmd.check == "sha256":
                ref["sha256"] = checks.sha256(out)
            if cmd.argv[0] == "trace":
                ref["vars"] = json.loads(out.splitlines()[0])["vars"]
            elif cmd.check == "approx":
                comment, header, rows = checks.parse_csv(out)
                ref.update(comment=comment, header=header,
                           rows=[row[:2] + [float(v) for v in row[2:]] for row in rows])
            elif cmd.check == "verify":
                ref["checks"] = len(out.partition("\n\n")[0].splitlines())
            refs["commands"][f"{name}/{cmd.key}"] = ref
            reason = checks.check(name, cmd, code, out, refs)
            if reason is not None:
                sys.stderr.write(f"{name}/{cmd.key}: {reason}\n")
                return 1
            print(f"{name}/{cmd.key}: {secs:.2f} s, {len(out)} bytes")
    with open(checks.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
