"""End-to-end tests for the command-line interface."""

import time

import pytest

from pmlc.cli import main
from pmlc.graphs import (
    Graph,
    PointedGraph,
    check_tree_like,
    is_marked,
    is_regular,
    is_strongly_marked,
    parse_graph,
    print_graph,
)
from pmlc.logic import MAX_FLATTEN_MODALS, MAX_NESTING
from pmlc.mpnn import parse_mpnn
from pmlc.net import rat

from shapes import OUT_OUT


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def graph_file(tmp_path, name, n, colours, edges, labels, focus=0):
    g = PointedGraph(
        Graph(n, colours, frozenset(edges), tuple(tuple(row) for row in labels)),
        focus,
    )
    return write(tmp_path, name, print_graph(g))


# ---------------------------------------------------------------------------
# parse / check


def test_parse_prints_metrics(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<in,out>{x1*x1 - x2 <= 1}(p0, (p1 & !p0))")
    assert main(["parse", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("formula <in,out>{")
    assert lines[1] == "modal-depth 1"
    assert lines[2] == "degree 2"
    assert lines[3] == "fragment top-only=0 edges-only=1 homogeneous=0"


def test_parse_rejects_bad_formula(tmp_path, capsys):
    f = write(tmp_path, "bad.pml", "<in>{x1 <= 1}(p0, p1)")
    assert main(["parse", f]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_rejects_runaway_nesting(tmp_path, capsys):
    f = write(tmp_path, "deep.pml", "!" * 1200 + "p0")
    assert main(["parse", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nesting" in err
    assert "Traceback" not in err


def test_formula_at_the_nesting_bound_runs_end_to_end(tmp_path, capsys):
    f = write(tmp_path, "deep.pml", "!" * MAX_NESTING + "p0")
    out = str(tmp_path / "deep.mpnn")
    g = graph_file(tmp_path, "g.graph", 2, 2, [(0, 1)], [(1, 1), (0, 0)])
    assert main(["parse", f]) == 0
    assert main(["compile", f, "--target", "global-shallow", "--out", out]) == 0
    assert main(["check", f, g]) == 0
    assert main(["eval", out, g]) == 0
    assert main(["verify", f, "--target", "global-shallow", "--seeds", "3"]) == 0
    assert "error" not in capsys.readouterr().err


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "absent.pml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_reports_sat_and_unsat(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<top>{x1 >= 2}(p0)")
    sat = graph_file(tmp_path, "sat.graph", 3, 1, [], [(1,), (1,), (0,)])
    unsat = graph_file(tmp_path, "unsat.graph", 3, 1, [], [(1,), (0,), (0,)])
    assert main(["check", f, sat]) == 0
    assert capsys.readouterr().out.strip() == "SAT"
    assert main(["check", f, unsat]) == 0
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_check_needs_a_focus(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "p0")
    bare = graph_file(tmp_path, "g.graph", 1, 1, [], [(1,)])
    text = "\n".join(
        line for line in open(bare).read().splitlines() if not line.startswith("focus")
    )
    nofocus = write(tmp_path, "nofocus.graph", text + "\n")
    assert main(["check", f, nofocus]) == 2


# ---------------------------------------------------------------------------
# compile


def test_compile_writes_network_and_report(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<in>{x1 <= 1}(p0)")
    out = str(tmp_path / "net.mpnn")
    rep = str(tmp_path / "net.report")
    assert main(["compile", f, "--target", "local-mixed-sum",
                 "--out", out, "--report", rep]) == 0
    assert capsys.readouterr().out == ""
    net = parse_mpnn(open(out).read())
    assert net.required_class == "strong"
    report = open(rep).read()
    assert report.splitlines()[0] == "target local-mixed-sum"
    assert "certainty-exponent 2" in report


def test_compile_report_defaults_to_stdout(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "p0")
    assert main(["compile", f, "--target", "global-shallow"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "target global-shallow"
    assert "layers 1" in out


def test_compile_fragment_mismatch_exits_3(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<top>{x1 >= 1}(p0)")
    assert main(["compile", f, "--target", "local-mixed-sum"]) == 3
    assert "error:" in capsys.readouterr().err


def test_compile_unknown_target_exits_2(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "p0")
    assert main(["compile", f, "--target", "global-zesty"]) == 2
    assert "known targets" in capsys.readouterr().err


def test_compile_trace_cap_exits_3(tmp_path):
    f = write(
        tmp_path, "deep.pml",
        "<out>{x1 >= 1}(<out>{x1 >= 1}(<out>{x1 >= 1}(<out>{x1 >= 1}(p0))))",
    )
    assert main(["compile", f, "--target", "nested-mixed-sum",
                 "--trace-cap", "2"]) == 3


def chain(modality, depth):
    return f"<{modality}>{{x1 >= 1}}(" * depth + "p0" + ")" * depth


def test_compile_deep_in_chain_stops_at_the_trace_cap(tmp_path, capsys):
    # The trace enumeration stops once it passes the cap, so the exit comes
    # at once; the time bound is loose enough for a loaded machine.
    f = write(tmp_path, "in80.pml", chain("in", 80))
    start = time.perf_counter()
    assert main(["compile", f, "--target", "nested-mixed-sum"]) == 3
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trace dimensions" in err
    assert "Traceback" not in err


def test_global_deep_flattening_bound(tmp_path, capsys):
    at_bound = write(tmp_path, "top7.pml", chain("top", MAX_FLATTEN_MODALS + 1))
    assert main(["compile", at_bound, "--target", "global-deep"]) == 0
    capsys.readouterr()
    past = write(tmp_path, "top8.pml", chain("top", MAX_FLATTEN_MODALS + 2))
    assert main(["compile", past, "--target", "global-deep"]) == 3
    assert main(["verify", past, "--target", "global-deep", "--seeds", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "flattening" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# eval


def compiled(tmp_path, formula_text, target):
    f = write(tmp_path, "c.pml", formula_text)
    out = str(tmp_path / "c.mpnn")
    rep = str(tmp_path / "c.report")
    assert main(["compile", f, "--target", target, "--out", out,
                 "--report", rep]) == 0
    return out


def test_eval_prints_verdict_and_value(tmp_path, capsys):
    net = compiled(tmp_path, "<top>{x1 >= 1}(p0)", "global-shallow")
    g = graph_file(tmp_path, "g.graph", 2, 2, [], [(1, 1), (0, 0)])
    assert main(["eval", net, g]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["verdict accept", f"value {rat(1, 2)}"]


def test_eval_trace_prints_every_state_table(tmp_path, capsys):
    net = compiled(tmp_path, "<top>{x1 >= 1}(p0)", "global-shallow")
    g = graph_file(tmp_path, "g.graph", 3, 2, [(0, 1)], [(1, 1), (0, 0), (0, 0)])
    assert main(["eval", net, g, "--trace"]) == 0
    out = capsys.readouterr().out
    states = [line for line in out.splitlines() if line.startswith("state ")]
    rows = [line for line in out.splitlines() if line.startswith("  ")]
    layer_count = len(parse_mpnn(open(net).read()).layers)
    assert states == [f"state {i}" for i in range(layer_count + 1)]
    assert len(rows) == 3 * (layer_count + 1)
    assert out.splitlines()[-2] == "verdict accept"


def test_eval_class_violation_exits_4(tmp_path, capsys):
    net = compiled(tmp_path, "<top>{x1 >= 1}(p0)", "global-shallow")
    g = graph_file(tmp_path, "g.graph", 2, 2, [], [(1, 1), (0, 1)])
    assert main(["eval", net, g]) == 4
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_corrupt_network_file(tmp_path, capsys):
    net = compiled(tmp_path, "p0", "global-shallow")
    text = open(net).read().replace("mpnn", "mpmm", 1)
    bad = write(tmp_path, "bad.mpnn", text)
    g = graph_file(tmp_path, "g.graph", 1, 2, [], [(1, 1)])
    assert main(["eval", bad, g]) == 2


# ---------------------------------------------------------------------------
# gen


def test_gen_marked_instance(tmp_path):
    out = str(tmp_path / "m.graph")
    assert main(["gen", "--class", "marked", "--seed", "3", "--n", "5",
                 "--out", out]) == 0
    pg = parse_graph(open(out).read())
    assert pg.graph.node_count == 5
    assert is_marked(pg.graph, pg.focus, pg.graph.colours - 1)


def test_gen_regular_strong_instance(tmp_path):
    out = str(tmp_path / "r.graph")
    assert main(["gen", "--class", "regular-strong", "--seed", "1", "--n", "4",
                 "--degree", "2", "--colours", "3", "--out", out]) == 0
    pg = parse_graph(open(out).read())
    assert is_regular(pg.graph)
    assert is_strongly_marked(pg.graph, pg.focus, 2)


def test_gen_tree_like_instance(tmp_path):
    f = write(tmp_path, "f.pml", "<out>{x1 >= 1}(<out>{x1 >= 1}(p0))")
    out = str(tmp_path / "t.graph")
    assert main(["gen", "--class", "regular-tree-like", "--seed", "2",
                 "--formula", f, "--out", out]) == 0
    pg = parse_graph(open(out).read())
    ok, witness = check_tree_like(OUT_OUT, pg, pg.graph.colours - 1)
    assert ok, witness
    assert is_regular(pg.graph)


def test_gen_tree_like_needs_formula(tmp_path, capsys):
    assert main(["gen", "--class", "tree-like"]) == 2
    assert "needs --formula" in capsys.readouterr().err


def test_gen_is_deterministic(tmp_path, capsys):
    argv = ["gen", "--class", "strong", "--seed", "9", "--n", "6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert parse_graph(first).graph.node_count == 6


# ---------------------------------------------------------------------------
# verify


def test_verify_agreement_run(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<in>{x1 <= 1}(p0)")
    assert main(["verify", f, "--target", "local-mixed-sum",
                 "--seeds", "12", "--max-nodes", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "target local-mixed-sum"
    assert lines[1].startswith("formula <in>{")
    assert lines[-1] == "RESULT agree=12/12"


def test_verify_accepts_network_file(tmp_path, capsys):
    net = compiled(tmp_path, "<in>{x1 <= 1}(p0)", "local-mixed-sum")
    f = write(tmp_path, "f.pml", "<in>{x1 <= 1}(p0)")
    assert main(["verify", f, "--mpnn", net, "--seeds", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"target file:{net}"
    assert lines[-1] == "RESULT agree=8/8"


def test_verify_flags_corrupted_network(tmp_path, capsys):
    net = compiled(tmp_path, "<in>{x1 <= 1}(p0)", "local-mixed-sum")
    lines = open(net).read().splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("neuron "))
    tokens = lines[last].split()
    tokens[1] = "1/3"
    lines[last] = " ".join(tokens)
    bad = write(tmp_path, "bad.mpnn", "\n".join(lines) + "\n")

    f = write(tmp_path, "f.pml", "<in>{x1 <= 1}(p0)")
    assert main(["verify", f, "--mpnn", bad, "--seeds", "10"]) == 1
    out = capsys.readouterr().out
    assert "malformed 10" in out
    assert out.splitlines()[-1] == "RESULT agree=0/10"


def test_verify_needs_target_or_network(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "p0")
    assert main(["verify", f]) == 2
    assert "--target" in capsys.readouterr().err


def test_verify_fragment_mismatch_exits_3(tmp_path):
    f = write(tmp_path, "f.pml", "<id>{x1 >= 1}(p0)")
    assert main(["verify", f, "--target", "local-mixed-sum", "--seeds", "3"]) == 3


# ---------------------------------------------------------------------------
# demo-inexpressibility


def test_demo_inexpressibility_line(capsys):
    assert main(["demo-inexpressibility", "--count", "5", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "5/5 networks: equal focus states; oracle: UNSAT vs SAT"


def test_demo_oracle_only(capsys):
    assert main(["demo-inexpressibility", "--count", "0"]) == 0
    assert capsys.readouterr().out.strip() == "oracle: UNSAT vs SAT"


def test_demo_is_deterministic(capsys):
    argv = ["demo-inexpressibility", "--count", "3", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# pipeline


def test_gen_compile_eval_pipeline(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<out,in>{x1*x2 - x1 <= 3}(p0, !p1)")
    g = str(tmp_path / "g.graph")
    assert main(["gen", "--class", "strong", "--seed", "5", "--n", "4",
                 "--colours", "3", "--out", g]) == 0
    net = str(tmp_path / "net.mpnn")
    rep = str(tmp_path / "rep.txt")
    assert main(["compile", f, "--target", "local-mixed-max",
                 "--out", net, "--report", rep]) == 0
    assert main(["eval", net, g]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] in ("verdict accept", "verdict reject")

    check = main(["check", f, g])
    assert check == 0
    oracle = capsys.readouterr().out.strip()
    assert (lines[0] == "verdict accept") == (oracle == "SAT")
