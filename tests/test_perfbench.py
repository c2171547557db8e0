"""The benchmark driver still runs against the package.

`perfbench/run.py` reads `harness.worker_count`, `harness.write_csv` (and
the text it returns), `optimizers.run(...).log.total` (the call count of
the run's engine), `batched_curves`' positional `iterations, seeds`,
`bestapprox.linprog`, the two scalar engine classes, the
MultiPoly/UniPoly arithmetic and `harness.envelope_curves`; one traced pass
of the scalar, the symbolic and the montecarlo workload reaches all of them
and checks every output.  `-B` keeps `perfbench/` free of bytecode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["scalar", "symbolic", "montecarlo"])
def test_perfbench_traced_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stderr
    metrics = last["metrics"]
    if workload == "scalar":
        # every scalar run's engine call count against the answers the tracer saw
        assert (metrics["optimizers.run_calls"]["value"]
                == metrics["oracles.answer_us.numeric.n"]["value"] > 0)
        # the deterministic grids run as `run` on the numeric engine, so no
        # answer is booked as symbolic and cd_cyclic's run is timed
        assert metrics["oracles.answer_us.symbolic.n"]["value"] == 0
        assert metrics["optimizers.run_s.cd_cyclic"]["value"] > 0
    elif workload == "symbolic":
        # the tracer's wrappers reach the polynomial arithmetic, the trace
        # writer and fig2, and the writer's byte count is the one it had
        # when it went through json.dumps
        assert metrics["polynomials.op_calls.mul"]["value"] > 0
        assert metrics["polynomials.json_bytes"]["value"] == 5563860
        assert metrics["polynomials.to_json_s"]["value"] > 0
        assert metrics["trace.fig2_s"]["value"] > 0
    else:
        # the envelope runs without a worker pool, and the tracer still times it
        assert metrics["harness.envelope_curves_s"]["value"] > 0
