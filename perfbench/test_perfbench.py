"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench

They check the reference semantics by hand and against pmlc's oracle, run
each workload briefly, and hold the printed metric names to BENCHMARK.json.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import refsem  # noqa: E402
from pmlc.graphs import Graph, PointedGraph  # noqa: E402
from pmlc.logic import parse_formula  # noqa: E402
from pmlc.oracle import all_pointed_graphs, models  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def pointed(labels, edges, focus=0):
    return PointedGraph(
        Graph(len(labels), len(labels[0]), frozenset(edges), tuple(labels)), focus
    )


def test_cubic_global_by_hand():
    phi = parse_formula(inputs.CUBIC_GLOBAL)
    # x1 = #p0 = 2, x2 = #p1 = 2, x3 = #p2 = 2: 8 - 8 = 0 <= 0.
    assert refsem.holds(pointed([(1, 1, 1), (1, 0, 0), (0, 1, 1)], []), phi)
    # x3 = 1: 8 - 4 = 4 > 0.
    assert not refsem.holds(pointed([(1, 1, 1), (1, 0, 0), (0, 1, 0)], []), phi)


def test_square_vs_cube_local_by_hand():
    phi = parse_formula(inputs.SQUARE_VS_CUBE_LOCAL)
    labels = [(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 1, 1)]
    into_focus = [(1, 0), (2, 0)]  # x1 = 2 in-neighbours with p0
    # x2 counts out-neighbours with p1 & !p2; node 5 has p2 and never counts.
    assert not refsem.holds(pointed(labels, into_focus + [(0, 5)]), phi)  # 4 - 0
    assert not refsem.holds(pointed(labels, into_focus + [(0, 3)]), phi)  # 4 - 1
    assert refsem.holds(pointed(labels, into_focus + [(0, 3), (0, 4)]), phi)  # 4 - 8


def test_three_modality_mixed_by_hand():
    phi = parse_formula(inputs.THREE_MODALITY_MIXED)
    # Four in-neighbours with p0 & p1: x1 = 4 and x2 = #p1 = 4.
    edges = [(i, 0) for i in range(1, 5)]
    helpers = [(1, 1, 0, 0)] * 4
    # Focus has p2, so x3 = 1: 16 + 4 >= 16 and 64 + 4 - 4 <= 64.
    assert refsem.holds(pointed([(0, 0, 1, 0)] + helpers, edges), phi)
    # Focus has neither p2 nor p3, so x3 = 0: 64 + 4 - 0 > 64.
    assert not refsem.holds(pointed([(0, 0, 0, 0)] + helpers, edges), phi)


def test_reference_agrees_with_oracle_on_tiny_universe():
    rng = random.Random("refsem-vs-oracle")
    texts = [inputs.shallow_formula(rng, inputs.ALL_MODS, i) for i in range(8)]
    texts += [inputs.layered_formula(rng, 2, w) for w in (1, 2)]
    texts += [inputs.top_formula(rng, 3, 1), inputs.homogeneous_formula(rng, 4)]
    universe = list(all_pointed_graphs(2, 2))
    seen = set()
    for phi in map(parse_formula, texts):
        truths = [refsem.holds(pg, phi) for pg in universe]
        assert truths == [models(pg, phi) for pg in universe]
        seen.update(truths)
    assert seen == {True, False}


def test_random_monomials_use_every_position_and_never_repeat():
    rng = random.Random("monomials")
    for arity, degrees in [(1, (1, 1)), (2, (1, 1)), (2, (2, 1)), (3, (1, 1)), (3, (3, 3))]:
        for _ in range(50):
            monos = inputs._monomials(rng, arity, degrees)
            assert [len(m.split("*")) for m in monos] == list(degrees)
            assert len({v for m in monos for v in m.split("*")}) == min(arity, sum(degrees))
            if arity > 1:
                assert len({tuple(sorted(m.split("*"))) for m in monos}) == len(monos)


def test_missing_wrapped_name_is_recorded():
    tr = Tracer()
    tr.wrap("pmlc.mpnn:no_such_function", "ghost")
    assert tr.missing == ["pmlc.mpnn:no_such_function"]
    assert tr.totals(0, 0) == {}


def run(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


@pytest.mark.parametrize("workload", ["bank-verify", "large-graph-judge", "flatten-oracle"])
def test_smoke_run_has_no_failures_and_spec_metrics(workload):
    out = run(workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    out = run("flatten-oracle", 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = result["metrics"]
    assert metrics["net.fnn_eval_s"]["value"] == 0
    assert metrics["mpnn.eval_s"]["value"] == 0
    assert metrics["oracle.models_calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("bank-verify", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
