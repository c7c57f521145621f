"""Tests for the formula-to-network compilers and the compilation facade."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pmlc

from pmlc.compiler import (
    ALL_TARGETS,
    TARGET_KINDS,
    CompilationTarget,
    FragmentMismatch,
    TraceLimitExceeded,
    compile,
    format_report,
    parse_target,
)
from pmlc.compiler.build import LayerPlan, Ledger, NetBuilder
from pmlc.graphs import (
    Graph,
    PointedGraph,
    class_instance,
    is_regular,
    is_strongly_marked,
)
from pmlc.logic import (
    Modal,
    Modality,
    Not,
    PeanoNot,
    Prop,
    degree,
    modal_depth,
    parse_formula,
    parse_peano,
)
from pmlc.mpnn import (
    Aggregator,
    CertaintyDescriptor,
    ClassViolation,
    Mpnn,
    judge,
    mpnn_eval,
    print_mpnn,
)
from pmlc.net import ZERO, rat
from pmlc.oracle import all_pointed_graphs, models

from formula_gen import random_formula
from shapes import OUT_OUT, binary_out_tree, converging_diamond, directed_triangle
from targets import (
    CUBIC_GLOBAL,
    SQUARE_VS_CUBE_LOCAL,
    THREE_MODALITY_MIXED,
    bank,
)

MEAN, SUM, MAX = Aggregator.MEAN, Aggregator.SUM, Aggregator.MAX

TARGET_NAMES = tuple(t.name for t in ALL_TARGETS)


def pg(n, colours, edges, labels, focus=0):
    return PointedGraph(
        Graph(n, colours, frozenset(edges), tuple(tuple(row) for row in labels)),
        focus,
    )


def loops(n):
    return [(v, v) for v in range(n)]


# ---------------------------------------------------------------------------
# Target names and validation


def test_canonical_target_names():
    assert TARGET_NAMES == (
        "global-homogeneous",
        "global-shallow",
        "global-deep",
        "local-mean-regular",
        "local-mixed-sum",
        "local-mixed-max",
        "shallow-mixed-regular",
        "shallow-mixed-sum",
        "shallow-mixed-max",
        "nested-mean-regular",
        "nested-mixed-sum",
        "nested-mixed-max",
    )


@pytest.mark.parametrize("name", TARGET_NAMES)
def test_parse_target_roundtrip(name):
    assert parse_target(name).name == name


def test_unknown_target_lists_known_ones():
    with pytest.raises(ValueError, match="known targets"):
        parse_target("global-zesty")


def test_extra_aggregator_validation():
    with pytest.raises(ValueError, match="mean-only"):
        CompilationTarget("global-shallow", SUM)
    with pytest.raises(ValueError, match="sum or max"):
        CompilationTarget("local-mixed")
    with pytest.raises(ValueError, match="sum or max"):
        CompilationTarget("local-mixed", MEAN)
    with pytest.raises(ValueError, match="unknown target kind"):
        CompilationTarget("sideways-mixed", SUM)


# ---------------------------------------------------------------------------
# Facade basics


def test_atomic_formula_compiles_to_single_layer():
    net, rep = compile(parse_formula("p0"), "global-shallow")
    assert rep.layer_count == 1
    assert rep.exponent == 0
    assert not rep.inverted
    assert rep.required_class == "marked"
    assert judge(net, pg(1, 2, [], [(1, 1)])).accepted


def test_homogeneous_cubic_report():
    net, rep = compile(CUBIC_GLOBAL, "global-homogeneous")
    assert rep.layer_count == 4
    assert rep.exponent == 3
    assert rep.inverted
    assert rep.required_class == "any"
    assert rep.budget_kind == "exact"
    assert rep.budget_bound == 4
    assert rep.modal_depth == 1 and rep.degree == 3


TOP_TOP = parse_formula("<top>{x1 <= 0}(<top>{x1 >= 1}(p0))")

# At least one formula outside each TARGET_KINDS row's fragment, and the
# part of the fragment it misses.
MISMATCHES = (
    ("global-homogeneous", parse_formula("<top>{x1 >= 2}(p0)"), "homogeneous"),
    ("global-shallow", SQUARE_VS_CUBE_LOCAL, "top-only"),
    ("global-shallow", TOP_TOP, "modal depth <= 1"),
    ("global-deep", OUT_OUT, "top-only"),
    ("local-mean-regular", OUT_OUT, "modal depth <= 1"),
    ("local-mixed-sum", THREE_MODALITY_MIXED, "edges-only"),
    ("shallow-mixed-regular", OUT_OUT, "modal depth <= 1"),
    ("shallow-mixed-max", TOP_TOP, "modal depth <= 1"),
    ("nested-mean-regular", parse_formula("<top>{x1 >= 1}(p0)"), "edges-only"),
    ("nested-mixed-sum", THREE_MODALITY_MIXED, "edges-only"),
)


def test_fragment_mismatches():
    assert {parse_target(name).kind for name, _, _ in MISMATCHES} == set(TARGET_KINDS)
    for name, phi, missed in MISMATCHES:
        with pytest.raises(FragmentMismatch, match=missed):
            compile(phi, name)


@pytest.mark.parametrize("name", TARGET_NAMES)
def test_modal_free_formula_compiles_to_one_boolean_layer(name):
    net, rep = compile(parse_formula("(p1 & !p0)"), name)
    assert rep.layer_count == 1 and rep.exponent == 0 and not rep.inverted
    if name == "global-homogeneous":
        assert rep.required_class == "any" and net.mark_colour is None
        assert (net.colours, rep.budget_kind) == (2, "exact")
        member = pg(1, 2, [], [(0, 1)])
    else:
        assert rep.required_class == "marked" and net.mark_colour == 2
        assert net.colours == 3
        member = pg(1, 3, [], [(0, 1, 1)])
    assert judge(net, member).accepted


def test_net_builder_routes_each_read_from_the_latest_write():
    b = NetBuilder(2)
    first = b.layer()
    first.set("x", first.relu([(1, first.prev("c0"))]))
    first.set("dead", first.prev("c1"))
    second = b.layer()
    second.set("x", second.relu([(2, second.prev("x"))]))
    third = b.layer()
    third.set("y", third.relu([(1, third.prev("c1"))]))
    last = b.layer()
    last.set("out", last.relu([(1, last.prev("x")), (1, last.glob("y"))]))
    with pytest.raises(KeyError):
        last.prev("dead-nowhere")
    layers, dims = b.assemble()
    # The label bit c1 and x are carried on to their readers; ``dead`` is
    # read by nothing and leaves no dim.
    assert dims == (("x", "c1"), ("x", "c1"), ("y", "x"), ("out",))
    net = Mpnn(2, layers, CertaintyDescriptor(0), False, "any", dimension_names=dims)
    g = Graph(2, 2, frozenset(), ((1, 1), (1, 0)))
    assert mpnn_eval(net, g) == [[rat(5, 2)], [rat(5, 2)]]


def test_boolean_nesting_compiles_to_linear_size():
    # Only the flags a later layer reads survive the first layer, so n
    # nested negations cost O(n) comb neurons, not a carried flag per depth.
    n = 200

    def neurons(text, name):
        net, _report = compile(parse_formula(text), name)
        return sum(len(fl.neurons) for layer in net.layers for fl in layer.comb.layers)

    assert neurons("!" * n + "p0", "global-shallow") <= 2 * n
    assert neurons("<in>{x1 >= 1}(" + "!" * n + "p0)", "local-mixed-sum") <= 6 * n
    # Past the parser's nesting bound and the recursion limit, built by
    # constructors: the flags are evaluated operands first, not recursively.
    deep = Prop(0)
    for _ in range(5000):
        deep = Not(deep)
    net, _report = compile(deep, "global-shallow")
    assert sum(len(fl.neurons) for fl in net.layers[0].comb.layers) <= 2 * 5000


@pytest.mark.parametrize(
    "name",
    [
        "global-shallow",
        "global-deep",
        "local-mean-regular",
        "local-mixed-sum",
        "shallow-mixed-max",
        "nested-mixed-sum",
    ],
)
def test_deep_skeleton_over_a_modal_node_compiles(name):
    # 3,000 negations over a modal node, past the parser's nesting bound
    # and the recursion limit: the check layer walks the skeleton without
    # recursion.  A nested network's class check re-parses the formula,
    # so only the other targets are judged.
    modality = "top" if name.startswith("global") else "out"
    phi = parse_formula(f"<{modality}>{{x1 >= 1}}(p0)")
    for _ in range(3000):
        phi = Not(phi)
    net, _report = compile(phi, name)
    if name.startswith("nested"):
        return
    rng = random.Random(f"deep-skeleton-{name}")
    for seed in range(6):
        member = class_instance(net.required_class, seed, rng, phi, max_nodes=5)
        assert judge(net, member).accepted == models(member, phi)


@pytest.mark.parametrize("name", ["global-shallow", "local-mixed-sum", "nested-mixed-max"])
def test_modal_node_over_a_deep_constraint_compiles(name):
    psi = parse_peano("x1 >= 1")
    for _ in range(3001):
        psi = PeanoNot(psi)
    m = Modality.TOP if name.startswith("global") else Modality.E_OUT
    net, report = compile(Modal((m,), psi, (Prop(0),)), name)
    assert report.layer_count == len(net.layers)


def test_repeated_atom_is_checked_once(monkeypatch):
    # The constraint repeats the atom !x2 <= 3 (local-mean-regular bank
    # formula 22): each distinct atom gets one check.
    checked = []
    atom_check = LayerPlan.atom_check

    def spy(self, atom, *args):
        checked.append(atom)
        return atom_check(self, atom, *args)

    monkeypatch.setattr(LayerPlan, "atom_check", spy)
    phi = parse_formula("<in,out>{(!x2 <= 3 & (x2 <= 4 & !x2 <= 3))}(p1, !p0)")
    compile(phi, "local-mean-regular")
    assert len(checked) == len(set(checked)) == 2


def test_nested_needs_depth_critical_children():
    lopsided = parse_formula(
        "<out,out>{x1 + x2 >= 1}"
        "(<out>{x1 >= 1}(p0), <out>{x1 >= 1}(<out>{x1 >= 1}(p0)))"
    )
    with pytest.raises(FragmentMismatch, match="depth-critical"):
        compile(lopsided, "nested-mixed-sum")


def test_trace_cap_enforced():
    chain = parse_formula(
        "<out>{x1 >= 1}(<out>{x1 >= 1}(<out>{x1 >= 1}(<out>{x1 >= 1}(p0))))"
    )
    with pytest.raises(TraceLimitExceeded):
        compile(chain, "nested-mean-regular", trace_cap=2)
    net, rep = compile(chain, "nested-mean-regular", trace_cap=8)
    assert rep.layer_count == len(net.layers)


# ---------------------------------------------------------------------------
# Global homogeneous counts (inverted reading)


def test_homogeneous_linear_counts():
    phi = parse_formula("<top,top>{x1 - x2 <= 0}(p0, p1)")
    net, rep = compile(phi, "global-homogeneous")
    assert rep.exponent == 1 and rep.inverted

    heavy = pg(4, 2, [], [(1, 0), (1, 0), (0, 1), (0, 0)])
    v = judge(net, heavy)
    assert v.kind == "reject" and v.value == rat(1, 4)
    assert not models(heavy, phi)

    light = pg(4, 2, [], [(1, 0), (0, 1), (0, 1), (0, 0)])
    v = judge(net, light)
    assert v.kind == "accept" and v.value == ZERO
    assert models(light, phi)


def test_homogeneous_cubic_value():
    net, _ = compile(CUBIC_GLOBAL, "global-homogeneous")
    labels = [(1, 0, 0)] * 3 + [(0, 1, 0)] * 2 + [(0, 0, 1)] * 2 + [(0, 0, 0)]
    g = pg(8, 3, [], labels)
    v = judge(net, g)
    assert v.kind == "reject" and v.value == rat(19, 512)
    assert not models(g, CUBIC_GLOBAL)

    empty = pg(8, 3, [], [(0, 0, 0)] * 8)
    assert judge(net, empty).kind == "accept"
    assert models(empty, CUBIC_GLOBAL)


def test_homogeneous_verdict_is_focus_independent():
    net, _ = compile(CUBIC_GLOBAL, "global-homogeneous")
    labels = [(1, 0, 0)] * 3 + [(0, 1, 0)] * 2 + [(0, 0, 1)] * 2 + [(0, 0, 0)]
    base = pg(8, 3, [(0, 5), (3, 3)], labels)
    verdicts = {
        (judge(net, PointedGraph(base.graph, v)).kind,
         judge(net, PointedGraph(base.graph, v)).value)
        for v in range(8)
    }
    assert len(verdicts) == 1


# ---------------------------------------------------------------------------
# Global shallow counts


def test_shallow_threshold_counts():
    phi = parse_formula("<top>{x1 >= 2}(p0)")
    net, rep = compile(phi, "global-shallow")
    assert rep.required_class == "marked" and rep.exponent == 1

    single = pg(2, 2, [], [(1, 1), (0, 0)])
    v = judge(net, single)
    assert v.kind == "reject" and v.value == ZERO
    assert not models(single, phi)

    double = pg(4, 2, [], [(1, 1), (1, 0), (0, 0), (0, 0)])
    v = judge(net, double)
    assert v.kind == "accept" and v.value == rat(1, 4)
    assert models(double, phi)


def test_shallow_zero_count_accepts():
    phi = parse_formula("<top>{x1 <= 0}(p0)")
    net, _ = compile(phi, "global-shallow")
    g = pg(3, 2, [(0, 1)], [(0, 1), (0, 0), (0, 0)])
    assert judge(net, g).accepted
    assert models(g, phi)


def test_shallow_unmarked_focus_raises():
    phi = parse_formula("<top>{x1 >= 1}(p0)")
    net, _ = compile(phi, "global-shallow")
    with pytest.raises(ClassViolation):
        judge(net, pg(2, 2, [], [(1, 0), (0, 0)]))
    with pytest.raises(ClassViolation):
        judge(net, pg(2, 2, [], [(1, 1), (0, 1)]))


# ---------------------------------------------------------------------------
# Global deep


def test_deep_matches_shallow_on_flat_formulas():
    for phi in bank("global-shallow", random_count=10):
        deep, _ = compile(phi, "global-deep")
        shallow, _ = compile(phi, "global-shallow")
        assert print_mpnn(deep) == print_mpnn(shallow)


def test_deep_two_level_exhaustive():
    phi = parse_formula("<top>{x1 <= 0}(<top>{x1 >= 1}(p0))")
    net, rep = compile(phi, "global-deep")
    assert rep.modal_depth == 2
    assert any(note.startswith("flattened") for note in rep.notes)
    checked = 0
    for inst in all_pointed_graphs(2, 2):
        try:
            v = judge(net, inst)
        except ClassViolation:
            continue
        assert v.kind == ("accept" if models(inst, phi) else "reject")
        checked += 1
    assert checked > 20


def test_deep_compile_flattens_once(monkeypatch):
    import pmlc.compiler.shallow as shallow_mod
    from pmlc.logic import flatten_global

    calls = []

    def counting(phi):
        calls.append(phi)
        return flatten_global(phi)

    monkeypatch.setattr(pmlc.compiler, "flatten_global", counting)
    monkeypatch.setattr(shallow_mod, "flatten_global", counting)
    phi = parse_formula("<top>{x1 <= 0}(<top>{x1 >= 1}(p0))")
    _net, rep = compile(phi, "global-deep")
    assert calls == [phi]
    assert any(note.startswith("flattened") for note in rep.notes)


def test_deep_random_sweep():
    rng = random.Random("deep-sweep")
    for i in range(25):
        phi = random_formula(rng, rng.choice([1, 2]), [Modality.TOP])
        net, _ = compile(phi, "global-deep")
        for j in range(3):
            inst = class_instance("marked", 31 * i + j, rng, phi, max_nodes=6)
            v = judge(net, inst)
            assert v.kind == ("accept" if models(inst, phi) else "reject")


# ---------------------------------------------------------------------------
# Local targets


def test_local_mean_on_regular_instances():
    phi = parse_formula("<in>{x1 <= 1}(p0)")
    net, rep = compile(phi, "local-mean-regular")
    assert rep.required_class == "regular-strong" and rep.exponent == 2
    rng = random.Random("local-mean")
    for i in range(40):
        inst = class_instance("regular-strong", i, rng, phi, max_nodes=6)
        v = judge(net, inst)
        assert v.kind == ("accept" if models(inst, phi) else "reject")


def test_local_mean_rejects_irregular_graphs():
    net, _ = compile(parse_formula("<in>{x1 <= 1}(p0)"), "local-mean-regular")
    lopsided = pg(3, 2, loops(3) + [(1, 0)], [(0, 1), (1, 0), (0, 0)])
    assert not is_regular(lopsided.graph)
    assert is_strongly_marked(lopsided.graph, 0, 1)
    with pytest.raises(ClassViolation, match="not regular"):
        judge(net, lopsided)


def test_local_mixed_extras_agree():
    rng = random.Random("local-mixed")
    for phi in bank("local-mixed-sum", random_count=8):
        net_s, _ = compile(phi, "local-mixed-sum")
        net_m, _ = compile(phi, "local-mixed-max")
        for i in range(3):
            inst = class_instance("strong", 17 * i + 5, rng, phi, max_nodes=6)
            want = "accept" if models(inst, phi) else "reject"
            assert judge(net_s, inst).kind == want
            assert judge(net_m, inst).kind == want


def test_local_zero_count_accepts():
    phi = parse_formula("<in>{x1 <= 0}(p0)")
    for name in ("local-mean-regular", "local-mixed-sum", "local-mixed-max"):
        net, _ = compile(phi, name)
        inst = pg(1, 2, [(0, 0)], [(0, 1)])
        assert judge(net, inst).accepted
        assert models(inst, phi)


# ---------------------------------------------------------------------------
# Shallow mixed


def test_shallow_mixed_three_modality_example():
    net, rep = compile(THREE_MODALITY_MIXED, "shallow-mixed-regular")
    assert rep.exponent == 9
    assert rep.layer_count <= rep.budget_bound == 26
    rng = random.Random("mixed-example")
    for i in range(30):
        inst = class_instance("regular-strong", i, rng, THREE_MODALITY_MIXED, 6)
        v = judge(net, inst)
        assert v.kind == ("accept" if models(inst, THREE_MODALITY_MIXED) else "reject")

    complete = [(u, v) for u in range(5) for v in range(5)]
    labels = [(0, 0, 1, 0, 1)] + [(1, 1, 0, 0, 0)] * 4
    witness = pg(5, 5, complete, labels)
    assert models(witness, THREE_MODALITY_MIXED)
    assert judge(net, witness).accepted


def test_shallow_mixed_focus_test_modality():
    phi = parse_formula("<id>{x1 >= 1}(p0)")
    net, _ = compile(phi, "shallow-mixed-sum")
    marked_p0 = pg(2, 2, loops(2), [(1, 1), (0, 0)])
    marked_not = pg(2, 2, loops(2), [(0, 1), (1, 0)])
    assert judge(net, marked_p0).accepted
    assert not judge(net, marked_not).accepted


def test_shallow_mixed_agrees_with_global_on_top_fragment():
    rng = random.Random("mixed-vs-global")
    for phi in bank("global-shallow", random_count=6):
        net_g, _ = compile(phi, "global-shallow")
        net_s, _ = compile(phi, "shallow-mixed-regular")
        for i in range(3):
            inst = class_instance("regular-strong", 13 * i + 1, rng, phi, 5)
            assert judge(net_g, inst).kind == judge(net_s, inst).kind


def test_shallow_mixed_sweep():
    rng = random.Random("shallow-sweep")
    for name, tag in (
        ("shallow-mixed-regular", "regular-strong"),
        ("shallow-mixed-sum", "strong"),
        ("shallow-mixed-max", "strong"),
    ):
        for i, phi in enumerate(bank(name, random_count=6)):
            net, _ = compile(phi, name)
            inst = class_instance(tag, 7 * i + 3, rng, phi, max_nodes=5)
            v = judge(net, inst)
            assert v.kind == ("accept" if models(inst, phi) else "reject")


# ---------------------------------------------------------------------------
# Nested


def test_nested_on_fixture_shapes():
    net, rep = compile(OUT_OUT, "nested-mixed-sum")
    assert rep.required_class == "tree-like"
    for inst in (binary_out_tree(), directed_triangle()):
        v = judge(net, inst)
        assert v.kind == ("accept" if models(inst, OUT_OUT) else "reject")

    net_r, rep_r = compile(OUT_OUT, "nested-mean-regular")
    assert rep_r.required_class == "regular-tree-like"
    tri = directed_triangle()
    assert is_regular(tri.graph)
    v = judge(net_r, tri)
    assert v.kind == ("accept" if models(tri, OUT_OUT) else "reject")
    with pytest.raises(ClassViolation, match="not regular"):
        judge(net_r, binary_out_tree())


def test_nested_rejects_nonmember_shapes():
    net, _ = compile(OUT_OUT, "nested-mixed-sum")
    with pytest.raises(ClassViolation, match="tree-like"):
        judge(net, converging_diamond())


def test_nested_depth_one_matches_local():
    fixtures = (directed_triangle(), binary_out_tree())
    rng = random.Random("nested-vs-local")
    compared = 0
    for _ in range(12):
        phi = random_formula(rng, 1, [Modality.E_IN, Modality.E_OUT], props=1)
        if modal_depth(phi) != 1:
            continue
        net_n, _ = compile(phi, "nested-mixed-sum")
        net_l, _ = compile(phi, "local-mixed-sum")
        for inst in fixtures:
            try:
                kn = judge(net_n, inst).kind
                kl = judge(net_l, inst).kind
            except ClassViolation:
                continue
            assert kn == kl == ("accept" if models(inst, phi) else "reject")
            compared += 1
    assert compared >= 8


def test_nested_sweep():
    rng = random.Random("nested-sweep")
    for name, tag in (
        ("nested-mean-regular", "regular-tree-like"),
        ("nested-mixed-sum", "tree-like"),
        ("nested-mixed-max", "tree-like"),
    ):
        for i, phi in enumerate(bank(name, random_count=8)):
            net, _ = compile(phi, name)
            for j in range(2):
                inst = class_instance(tag, 23 * i + j, rng, phi, max_nodes=6)
                v = judge(net, inst)
                assert v.kind == ("accept" if models(inst, phi) else "reject")


# ---------------------------------------------------------------------------
# Budgets, reports, determinism


def expected_exponent(name, md, deg):
    if md == 0:
        return 0
    if name.startswith("global"):
        return deg
    if name.startswith("local"):
        return 2 * deg
    if name.startswith("shallow"):
        return 3 * deg
    return md - 1 + 2 * deg * md


@pytest.mark.parametrize("name", TARGET_NAMES)
def test_budgets_and_report_fields(name):
    for phi in bank(name, random_count=10):
        net, rep = compile(phi, name)
        md, deg = modal_depth(phi), degree(phi)
        assert rep.layer_count == len(net.layers)
        if rep.budget_kind == "exact":
            assert rep.layer_count == rep.budget_bound
        else:
            assert rep.layer_count <= rep.budget_bound
        assert rep.exponent == expected_exponent(name, md, deg)
        assert rep.inverted == (name == "global-homogeneous" and md > 0)
        assert len(rep.dimension_names) == rep.layer_count
        assert rep.modal_depth == md and rep.degree == deg


def test_exact_layer_counts_for_hand_formulas():
    cases = [
        (CUBIC_GLOBAL, "global-homogeneous", 4),
        (CUBIC_GLOBAL, "global-shallow", 4),
        (SQUARE_VS_CUBE_LOCAL, "local-mean-regular", 8),
        (SQUARE_VS_CUBE_LOCAL, "local-mixed-sum", 12),
        (SQUARE_VS_CUBE_LOCAL, "nested-mixed-max", 13),
        (OUT_OUT, "nested-mean-regular", 10),
        (OUT_OUT, "nested-mixed-sum", 10),
        (parse_formula("p0"), "global-homogeneous", 1),
        (parse_formula("(p0 & !p1)"), "nested-mixed-sum", 1),
    ]
    for phi, name, layers in cases:
        _, rep = compile(phi, name)
        assert rep.layer_count == layers, (rep.target, rep.layer_count)


def test_accepting_value_equals_certainty():
    rng = random.Random("certainty")
    accepts = 0
    for name in ("global-shallow", "local-mixed-sum", "nested-mixed-sum"):
        for i, phi in enumerate(bank(name, random_count=5)):
            net, rep = compile(phi, name)
            inst = class_instance(rep.required_class, 41 * i, rng, phi, 5)
            v = judge(net, inst)
            if v.accepted:
                n = inst.graph.node_count
                assert v.value == net.certainty.value(n) == rat(1, n**rep.exponent)
                accepts += 1
    assert accepts >= 5


def test_compile_is_deterministic():
    for phi, name in (
        (CUBIC_GLOBAL, "global-homogeneous"),
        (THREE_MODALITY_MIXED, "shallow-mixed-max"),
        (SQUARE_VS_CUBE_LOCAL, "local-mixed-sum"),
        (OUT_OUT, "nested-mean-regular"),
    ):
        net1, rep1 = compile(phi, name)
        net2, rep2 = compile(phi, name)
        assert print_mpnn(net1) == print_mpnn(net2)
        assert format_report(rep1) == format_report(rep2)


def test_format_report_lines():
    _, rep = compile(OUT_OUT, "nested-mixed-sum")
    text = format_report(rep)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "target nested-mixed-sum"
    assert lines[1] == f"layers {rep.layer_count}"
    assert f"certainty-exponent {rep.exponent}" in lines
    assert "class tree-like" in lines
    assert any(line.startswith("note trace index size") for line in lines)
    assert "dimensions" in lines


# ---------------------------------------------------------------------------
# Cross-target oracle smoke


@pytest.mark.parametrize("name", TARGET_NAMES)
def test_judge_matches_oracle_smoke(name):
    rng = random.Random(f"smoke-{name}")
    for i, phi in enumerate(bank(name, random_count=6)):
        net, rep = compile(phi, name)
        for j in range(2):
            inst = class_instance(rep.required_class, 101 * i + j, rng, phi, 5)
            v = judge(net, inst)
            assert v.kind == ("accept" if models(inst, phi) else "reject"), (
                name,
                i,
                j,
            )


# ---------------------------------------------------------------------------
# Internal invariants are raises, not asserts


def test_ledger_pays_glob_then_in_then_out():
    ledger = Ledger(1, 2, 1)
    assert [ledger.pay() for _ in range(5)] == ["glob", "in", "in", "out", None]
    ledger.close()
    with pytest.raises(RuntimeError):
        Ledger(ins=1).close()
    with pytest.raises(RuntimeError):
        Ledger(outs=-1).close()


_SHRUNK_BUDGET = """
import dataclasses
from pmlc.compiler import TARGET_KINDS, compile
from pmlc.logic import parse_formula
assert False, "this check needs assertions stripped (python -O)"
row = TARGET_KINDS["global-shallow"]
TARGET_KINDS["global-shallow"] = dataclasses.replace(row, budget=("ceiling", 0, 1))
try:
    compile(parse_formula("<top>{x1 >= 2}(p0)"), "global-shallow")
except RuntimeError as e:
    print(f"raised {e}")
"""


def test_layer_budget_is_enforced_under_python_O():
    src = str(Path(pmlc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHRUNK_BUDGET],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised global-shallow: 2 layers, ceiling budget 1")
