"""The benchmark driver still runs against the package.

`perfbench/run.py` reads `harness.worker_count`, `harness.write_csv` (and
the text it returns), `optimizers.run(...).log.total`, `batched_curves`'
positional `iterations, seeds`, `bestapprox.linprog` and the two scalar
engine classes; one traced pass of the scalar workload reaches all of them
and checks every output.  `-B` keeps `perfbench/` free of bytecode.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_scalar_traced_pass_is_correct():
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", "scalar", "--seconds", "0",
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stderr
    # every scalar run's CallLog total against the answers the tracer saw
    metrics = last["metrics"]
    assert (metrics["optimizers.run_calls"]["value"]
            == metrics["oracles.answer_us.numeric.n"]["value"] > 0)
