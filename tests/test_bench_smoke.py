"""Smoke test of the benchmark entry point: one short round must end in a
well-formed result line, or no benchmark run of the tree can be measured."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_run_ends_with_a_result_line():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-graph-judge",
         "--seed", "1", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    for metric in declared["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        assert value > 0, metric["name"]
