"""Smoke test of the benchmark entry point: one short round of every workload
``BENCHMARK.json`` lists must end in a well-formed result line, or no
benchmark run of the tree can be measured.  A run that raises while setting
up (``bank-verify`` compiles all 12 targets there) or while importing
``pmlc`` ends without one."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_benchmark_run_ends_with_a_result_line(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    for metric in DECLARED["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        assert value > 0, metric["name"]
