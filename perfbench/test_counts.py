"""The traced run's work counts repeat exactly for a given seed.

Later changes cite these counts as counts, so two traced runs with the same
seed must report identical values. Run from the checkout root:

    python3 -m pytest perfbench/test_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("fpk.cells", "sparse.direct.calls", "poisson.discrete_adjoint_null.calls",
         "meanfield.kernel.pairs", "meanfield.picard.iterations")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    for name in EXACT:
        assert first[name] is not None, name
        assert first[name] == second[name], (name, first[name], second[name])


def test_cli_workload_bypasses_the_sparse_solver_and_kernels():
    counts = traced_run("cli-1d", 3)
    assert counts["sparse.direct.calls"] == 0
    assert counts["meanfield.kernel.pairs"] == 0
