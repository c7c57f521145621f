"""End-to-end tests for the command-line interface."""

import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pmlc
from pmlc import cli
from pmlc.cli import MAX_COLOURS, MAX_NODES, build_parser, main
from pmlc.compiler import DEFAULT_TRACE_CAP
from pmlc.graphs import (
    DEFAULT_MAX_NODES,
    Graph,
    PointedGraph,
    check_tree_like,
    is_marked,
    is_regular,
    is_strongly_marked,
    parse_graph,
    print_graph,
)
from pmlc.logic import MAX_FLATTEN_MODALS, MAX_PRODUCT_TERMS
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


def test_parse_reads_a_deeply_nested_file_and_prints_it_back(tmp_path, capsys):
    f = write(tmp_path, "deep.pml", "!" * 1200 + "p0")
    assert main(["parse", f]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "formula " + "!" * 1200 + "p0"
    assert err == ""


def test_a_deeply_nested_formula_runs_end_to_end(tmp_path, capsys):
    f = write(tmp_path, "deep.pml", "!" * 1200 + "p0")
    out = str(tmp_path / "deep.mpnn")
    g = graph_file(tmp_path, "g.graph", 2, 2, [(0, 1)], [(1, 1), (0, 0)])
    assert main(["parse", f]) == 0
    assert main(["compile", f, "--target", "global-shallow", "--out", out]) == 0
    assert main(["check", f, g]) == 0
    assert main(["eval", out, g]) == 0
    assert main(["verify", f, "--target", "global-shallow", "--seeds", "3"]) == 0
    assert "error" not in capsys.readouterr().err


def test_a_nested_network_from_a_deep_formula_is_judged(tmp_path, capsys):
    # A tree-like network's class check re-parses its formula line, so the
    # formula must read back however deep it is.
    f = write(tmp_path, "deep.pml", "!" * 1200 + "<out>{x1 >= 1}(p0)")
    net, g = str(tmp_path / "deep.mpnn"), str(tmp_path / "g.graph")
    assert main(["compile", f, "--target", "nested-mixed-sum", "--out", net]) == 0
    assert main(["gen", "--class", "tree-like", "--seed", "1",
                 "--formula", f, "--out", g]) == 0
    capsys.readouterr()
    assert main(["eval", net, g]) == 0
    assert capsys.readouterr().out.startswith("verdict accept")
    assert main(["verify", f, "--mpnn", net, "--seeds", "20"]) == 0
    assert "RESULT agree=20/20" in capsys.readouterr().out


def product_of_sums(k, modality="top"):
    """Eight positions under a product of k copies of x1+...+x8, which
    expands to C(k+7, 7) monomials: 50,388 at k = 12, 480,700 at k = 18."""
    factor = "(" + "+".join(f"x{i}" for i in range(1, 9)) + ")"
    return (
        f"<{','.join([modality] * 8)}>{{{'*'.join([factor] * k)} >= 1}}"
        f"({','.join(['p0'] * 8)})"
    )


def test_parse_rejects_a_runaway_product(tmp_path, capsys):
    f = write(tmp_path, "k18.pml", product_of_sums(18))
    start = time.perf_counter()
    assert main(["parse", f]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"limit of {MAX_PRODUCT_TERMS}" in err
    assert "Traceback" not in err
    # Four factors expand to C(11, 7) = 330 monomials, under the cap.
    f = write(tmp_path, "k4.pml", product_of_sums(4))
    assert main(["parse", f]) == 0


def test_parse_multiplies_a_long_run_of_variables_in_linear_time(tmp_path, capsys):
    # 2,080 monomials, each multiplied by x1 400 times: degree 402.
    square = "*".join(["(" + "+".join(f"x{i}" for i in range(1, 65)) + ")"] * 2)
    positions = ",".join(["top"] * 64), ",".join(["p0"] * 64)
    f = write(tmp_path, "run.pml", f"<{positions[0]}>{{{square}{'*x1' * 400} >= 1}}({positions[1]})")
    start = time.perf_counter()
    assert main(["parse", f]) == 0
    assert time.perf_counter() - start < 1
    assert "degree 402" in capsys.readouterr().out.splitlines()


def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()
    compiled_args = parser.parse_args(["compile", "f", "--target", "global-shallow"])
    verify_args = parser.parse_args(["verify", "f"])
    assert compiled_args.trace_cap == verify_args.trace_cap == DEFAULT_TRACE_CAP == 8
    assert verify_args.max_nodes == DEFAULT_MAX_NODES == 8


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


def test_check_rejects_a_second_focus_line(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "p0")
    g = graph_file(tmp_path, "g.graph", 2, 1, [], [(1,), (0,)])
    twice = write(tmp_path, "twice.graph", open(g).read() + "focus 1\n")
    assert main(["check", f, twice]) == 2
    assert "duplicate focus" in capsys.readouterr().err


def _run_capped(args):
    """``main(args)`` in a child process under a 400 MB address-space limit
    (on the child alone)."""
    limit = 400 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(pmlc.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from pmlc.cli import main; " \
        f"sys.exit(main({args!r}))"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, preexec_fn=cap_memory,
    )


def test_check_rejects_a_huge_node_count_before_allocating(tmp_path):
    # Two lines claim 10^8 nodes.  Under the memory cap the check must end
    # in a typed error (exit 2), not a MemoryError traceback.
    f = write(tmp_path, "f.pml", "p0")
    huge = write(tmp_path, "huge.graph", "graph 100000000 1\nfocus 0\n")
    out = _run_capped(["check", f, huge])
    assert out.returncode == 2, out.stderr
    assert "error:" in out.stderr and "Traceback" not in out.stderr


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


def test_compile_allocates_nothing_per_unread_colour(tmp_path):
    # p1000000 has a million colours, and its network reads one of them:
    # under the memory cap it compiles to a small file.
    f = write(tmp_path, "f.pml", "p1000000")
    net = str(tmp_path / "net.mpnn")
    out = _run_capped(["compile", f, "--target", "global-shallow", "--out", net])
    assert out.returncode == 0, out.stderr
    assert len(open(net).read()) < 1000


def test_compile_fragment_mismatch_exits_3(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<top>{x1 >= 1}(p0)")
    out = tmp_path / "f.mpnn"
    assert main(["compile", f, "--target", "local-mixed-sum", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: local-mixed-sum compilation needs edges-only formulas" in err
    assert not out.exists()


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


def test_compile_rejects_a_negative_trace_cap(tmp_path, capsys):
    f = write(tmp_path, "f.pml", chain("out", 2))
    assert main(["compile", f, "--target", "nested-mixed-sum",
                 "--trace-cap", "-1"]) == 2
    assert "error: the trace cap must be nonnegative" in capsys.readouterr().err


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


def test_eval_rejects_a_certainty_exponent_past_the_layer_count(tmp_path, capsys):
    net = compiled(tmp_path, "<top>{x1 >= 1}(p0)", "global-shallow")
    text = open(net).read()
    layers = len(parse_mpnn(text).layers)
    g = graph_file(tmp_path, "g.graph", 3, 2, [(0, 1)], [(1, 1), (0, 0), (0, 0)])
    for exponent, code in ((layers, 0), (layers + 1, 2)):
        lines = [
            f"certainty {exponent}" if line.startswith("certainty ") else line
            for line in text.splitlines()
        ]
        path = write(tmp_path, f"e{exponent}.mpnn", "\n".join(lines) + "\n")
        assert main(["eval", path, g]) == code
    assert "certainty exponent" in capsys.readouterr().err


def test_eval_rejects_a_negative_layer_count(tmp_path, capsys):
    net = compiled(tmp_path, "p0", "global-shallow")
    text = open(net).read()
    header = text[: text.index("layers ")]
    bad = write(tmp_path, "bad.mpnn", header + "layers -1\nend\n")
    g = graph_file(tmp_path, "g.graph", 1, 2, [], [(1, 1)])
    assert main(["eval", bad, g]) == 2
    assert "error:" in capsys.readouterr().err


# Each edit of a compiled network file breaks its format: a dims row on the
# first layer only, a fnnlayer line without its neuron count, and a mark
# colour past the colour count.
_MPNN_FORMAT_EDITS = {
    "dims-on-some-layers": ("dims out\n", "", "dims rows must cover all layers"),
    "fnnlayer-fields": ("fnnlayer 8 3", "fnnlayer 8", "malformed fnnlayer line"),
    "mark-colour": ("markcolour 1", "markcolour 2", "mark colour out of range"),
}


@pytest.mark.parametrize("edit", sorted(_MPNN_FORMAT_EDITS))
def test_eval_rejects_a_malformed_network_file(tmp_path, capsys, edit):
    net = compiled(tmp_path, "<top>{x1 >= 1}(p0)", "global-shallow")
    old, new, message = _MPNN_FORMAT_EDITS[edit]
    text = open(net).read()
    assert text.count(old) == 1
    bad = write(tmp_path, "bad.mpnn", text.replace(old, new))
    g = graph_file(tmp_path, "g.graph", 2, 2, [], [(1, 1), (0, 0)])
    assert main(["eval", bad, g]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_eval_of_a_strong_network_needs_a_focus_self_loop(tmp_path, capsys):
    net = compiled(tmp_path, "<in>{x1 <= 1}(p0)", "local-mixed-sum")
    g = graph_file(tmp_path, "g.graph", 2, 2, [(0, 1), (1, 0)], [(1, 1), (0, 0)])
    assert main(["eval", net, g]) == 4
    assert "not strongly marked" in capsys.readouterr().err


# Each edit of a compiled network file claims more than the file holds, or
# disagrees with itself: a million-fold neuron count runs out of neuron
# lines, a 5,000-digit weight passes CPython's int-string limit, and a
# state width that is not a quarter of its comb's input width fails the
# width check.
_MPNN_EDITS = {
    "neuron-count": ("fnnlayer 8 3", "fnnlayer 8 1000000000"),
    "huge-weight": ("neuron 0/1 1:1/1", "neuron 0/1 1:" + "7" * 5000 + "/1"),
    "state-width": ("layer 0 mean mean mean 2 3", "layer 0 mean mean mean 3 3"),
}


@pytest.mark.parametrize("edit", sorted(_MPNN_EDITS))
def test_eval_rejects_a_network_file_that_claims_too_much(tmp_path, capsys, edit):
    net = compiled(tmp_path, "<top>{x1 >= 1}(p0)", "global-shallow")
    old, new = _MPNN_EDITS[edit]
    text = open(net).read()
    assert old in text
    bad = write(tmp_path, "bad.mpnn", text.replace(old, new, 1))
    g = graph_file(tmp_path, "g.graph", 2, 2, [], [(1, 1), (0, 0)])
    start = time.perf_counter()
    assert main(["eval", bad, g]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_rejects_a_runaway_product_in_a_tree_like_formula_line(
    tmp_path, capsys
):
    # A tree-like network's class check parses its formula line at judge
    # time, so the product cap guards eval too.
    net = compiled(tmp_path, chain("out", 2), "nested-mixed-sum")
    lines = open(net).read().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith("formula ")]
    assert len(at) == 1
    lines[at[0]] = "formula " + product_of_sums(18, "out") + "\n"
    bad = write(tmp_path, "bad.mpnn", "".join(lines))
    g = str(tmp_path / "t.graph")
    f = write(tmp_path, "f.pml", chain("out", 2))
    assert main(["gen", "--class", "tree-like", "--seed", "1",
                 "--formula", f, "--out", g]) == 0
    start = time.perf_counter()
    assert main(["eval", bad, g]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"limit of {MAX_PRODUCT_TERMS}" in err
    assert "Traceback" not in err


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


def test_gen_tree_like_on_a_deep_chain_falls_back_at_once(tmp_path):
    # A binary out-tree 40 deep would have 2**41 - 1 nodes; past the tree
    # bound the generator takes the circulant member instead.
    f = write(tmp_path, "out40.pml", chain("out", 40))
    out = str(tmp_path / "t.graph")
    start = time.perf_counter()
    assert main(["gen", "--class", "tree-like", "--seed", "1",
                 "--formula", f, "--out", out]) == 0
    assert time.perf_counter() - start < 1
    pg = parse_graph(open(out).read())
    assert pg.graph.node_count == 2 * 40 + 2


def test_gen_tree_like_on_a_4000_deep_chain_checks_within_its_bound(tmp_path):
    # Neither the 4,001-node trace tree nor the 8,002-node circulant member
    # is checked: each would visit more than MAX_TREE_NODES (node, trace)
    # pairs.  The single node is a member of every tree-like class.
    f = write(tmp_path, "out4000.pml", chain("out", 4000))
    out = str(tmp_path / "t.graph")
    start = time.perf_counter()
    assert main(["gen", "--class", "tree-like", "--branching", "1", "--seed", "1",
                 "--formula", f, "--out", out]) == 0
    assert time.perf_counter() - start < 5
    assert parse_graph(open(out).read()).graph.node_count == 1


def test_gen_tree_like_needs_formula(tmp_path, capsys):
    assert main(["gen", "--class", "tree-like"]) == 2
    assert "needs --formula" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("a flag check let a generator run")


# Each flag one past its bound, or the edge probability outside [0, 1]
# (NaN included), ends in exit 2 before any generator runs.
_GEN_BOUNDS = {
    "n": (["--n", str(MAX_NODES + 1)], f"--n must be at most {MAX_NODES}"),
    "colours": (["--colours", str(MAX_COLOURS + 1)], "--colours must be between"),
    **{
        f"edge-prob-{p}": (["--edge-prob", p], "--edge-prob must lie in [0, 1]")
        for p in ("7", "-3", "nan", "inf")
    },
}


@pytest.mark.parametrize("case", sorted(_GEN_BOUNDS))
def test_gen_rejects_a_flag_past_its_bound(capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "gen_marked", _never)
    flags, message = _GEN_BOUNDS[case]
    assert main(["gen", "--class", "marked", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


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


def test_verify_rejects_a_negative_seed_count(tmp_path, capsys):
    f = write(tmp_path, "f.pml", "<in>{x1 <= 1}(p0)")
    assert main(["verify", f, "--target", "local-mixed-sum", "--seeds", "-5"]) == 2
    captured = capsys.readouterr()
    assert "RESULT" not in captured.out
    assert "error: --seeds must be nonnegative" in captured.err


@pytest.mark.parametrize("max_nodes", ["0", "-3"])
def test_verify_rejects_a_max_node_count_below_one(tmp_path, capsys, max_nodes):
    f = write(tmp_path, "f.pml", "<in>{x1 <= 1}(p0)")
    assert main(["verify", f, "--target", "local-mixed-sum",
                 "--max-nodes", max_nodes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --max-nodes must be at least 1" in captured.err


def test_verify_rejects_a_max_node_count_past_its_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "class_instance", _never)
    f = write(tmp_path, "f.pml", "<in>{x1 <= 1}(p0)")
    assert main(["verify", f, "--target", "local-mixed-sum",
                 "--max-nodes", str(MAX_NODES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"at most {MAX_NODES}, got {MAX_NODES + 1}" in captured.err


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


def test_demo_rejects_a_negative_count(capsys):
    assert main(["demo-inexpressibility", "--count", "-3"]) == 2
    assert "error: --count must be nonnegative" in capsys.readouterr().err


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
