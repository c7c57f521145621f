"""Acceptance gate: the eight contract criteria, one test per criterion.

Run ``pytest -v tests/test_acceptance.py``; each test's PASSED/FAILED
line is the verdict for its criterion.  Criterion 1 drives the master
suite — every compilation target judged against the brute-force oracle
on 200 seeded class instances — and criteria 2 and 3 reuse its accepts
and reports.
"""

import random
from itertools import product
from math import prod

import pytest

from pmlc.compiler import ALL_TARGETS, compile
from pmlc.graphs import (
    Graph,
    PointedGraph,
    check_tree_like,
    class_instance,
    gen_pointed,
)
from pmlc.logic import (
    Modality,
    Monomial,
    PeanoAtom,
    flatten_global,
    modal_depth,
    parse_formula,
    peano_arity,
)
from pmlc.mpnn import Aggregator, judge, mpnn_eval, random_mpnn
from pmlc.net import ZERO, fnn_eval, rat
from pmlc.oracle import all_pointed_graphs, eval_peano, models

from formula_gen import random_boolean, random_formula
from gadget_layers import atom_check_layer, boolean_layer, layer_inputs
from shapes import (
    OUT_OUT,
    biloop_star,
    binary_out_tree,
    converging_diamond,
    directed_triangle,
    loopless_tree,
)
from targets import bank

MEAN, SUM, MAX = Aggregator.MEAN, Aggregator.SUM, Aggregator.MAX

INSTANCES_PER_TARGET = 200


@pytest.fixture(scope="module")
def master_suite():
    """Judge vs oracle for every target over its formula bank.

    Returns per-target (agreements, malformed) counts, the list of
    accepting (report, instance, verdict) triples, and every
    compilation report produced along the way.
    """
    per_target = {}
    accepts = []
    reports = []
    for target in ALL_TARGETS:
        formulas = bank(target.name)
        built = [compile(phi, target) for phi in formulas]
        reports.extend(rep for _, rep in built)
        rng = random.Random(f"acceptance-{target.name}")
        agree = malformed = 0
        for i in range(INSTANCES_PER_TARGET):
            phi = formulas[i % len(formulas)]
            net, rep = built[i % len(formulas)]
            inst = class_instance(
                rep.required_class, 7919 * i + 13, rng, phi, max_nodes=10
            )
            verdict = judge(net, inst)
            if verdict.kind == "malformed":
                malformed += 1
            if verdict.kind == ("accept" if models(inst, phi) else "reject"):
                agree += 1
            if verdict.kind == "accept":
                accepts.append((rep, inst, verdict))
        per_target[target.name] = (agree, malformed)
    return per_target, accepts, reports


def test_criterion_1_oracle_compiler_agreement(master_suite):
    per_target, _, _ = master_suite
    assert len(per_target) == len(ALL_TARGETS)
    for name, (agree, malformed) in per_target.items():
        assert agree == INSTANCES_PER_TARGET, (name, agree)
        assert malformed == 0, (name, malformed)
    print(
        f"criterion 1 PASS: judge = oracle on {INSTANCES_PER_TARGET}/"
        f"{INSTANCES_PER_TARGET} instances for all {len(per_target)} targets,"
        " zero malformed"
    )


def test_criterion_2_certainty_exactness(master_suite):
    _, accepts, _ = master_suite
    assert len(accepts) > 50, "master suite produced too few accepting runs"
    for rep, inst, verdict in accepts:
        n = inst.graph.node_count
        if rep.inverted:
            assert verdict.value == ZERO
        else:
            assert verdict.value == rat(1, n**rep.exponent)
    print(
        f"criterion 2 PASS: all {len(accepts)} accepting outputs equal "
        "n^(-e) exactly (inverted accepts equal 0)"
    )


def test_criterion_3_layer_budgets(master_suite):
    _, _, reports = master_suite
    homogeneous = [r for r in reports if r.target == "global-homogeneous"]
    assert homogeneous
    for rep in homogeneous:
        assert rep.layer_count == rep.degree + 1, rep
    for rep in reports:
        if rep.budget_kind == "exact":
            assert rep.layer_count == rep.budget_bound, rep
        else:
            assert rep.layer_count <= rep.budget_bound, rep
    print(
        f"criterion 3 PASS: homogeneous nets use exactly deg+1 layers; "
        f"all {len(reports)} compilations respect their ceilings"
    )


def test_criterion_4_mean_only_inexpressibility():
    g1 = PointedGraph(Graph(2, 1, frozenset(), ((1,), (0,))), 0)
    g2 = PointedGraph(Graph(4, 1, frozenset(), ((1,), (1,), (0,), (0,))), 0)
    phi = parse_formula("<top>{x1 >= 2}(p0)")
    assert not models(g1, phi)
    assert models(g2, phi)
    for i in range(100):
        rng = random.Random(f"mean-only-{i}")
        net = random_mpnn(rng, colours=1, aggregators=(MEAN,))
        assert mpnn_eval(net, g1.graph)[g1.focus] == mpnn_eval(net, g2.graph)[g2.focus]
    print(
        "criterion 4 PASS: 100/100 mean-only networks computed identical "
        "focus states on the witness pair; oracle says UNSAT vs SAT"
    )


def test_criterion_5_flattening_equivalence():
    rng = random.Random("flatten-acceptance")
    edge_free = list(all_pointed_graphs(4, 2, edges=False))
    wired = list(all_pointed_graphs(2, 2))
    pairs = 0
    depths = set()
    for _ in range(100):
        # Deep formulas stay narrow: flattening multiplies out the
        # possible truth assignments of nested modal subformulas, so a
        # wide depth-3 formula flattens to thousands of subformulas.
        depth = rng.choice([1, 2, 3])
        width = 1 if depth == 3 else rng.choice([1, 2])
        phi = random_formula(rng, depth, [Modality.TOP], max_children=width)
        depths.add(modal_depth(phi))
        flat = flatten_global(phi)
        assert modal_depth(flat) <= 1
        for inst in edge_free:
            assert models(inst, phi) == models(inst, flat)
            pairs += 1
        for inst in wired:
            assert models(inst, phi) == models(inst, flat)
            pairs += 1
    assert 3 in depths
    print(f"criterion 5 PASS: flattening preserved oracle truth on {pairs} pairs")


def test_criterion_6_gadget_conformance():
    """The gadgets the builders ship: write_flags and LayerPlan.atom_check."""
    rng = random.Random("gadget-acceptance")
    checked = 0
    for k in range(1, 5):
        formulas = [random_boolean(rng, k) for _ in range(8)]
        formulas = list(dict.fromkeys(formulas))  # one flag dim per formula
        layer = boolean_layer(formulas, k)
        for bits in product([0, 1], repeat=k):
            inst = PointedGraph(Graph(1, k, frozenset(), (bits,)), 0)
            got = fnn_eval(layer, layer_inputs(bits))
            want = [rat(1 if models(inst, f) else 0) for f in formulas]
            assert got == want
            checked += 1

    atoms = [
        PeanoAtom((Monomial(2, (1,)), Monomial(-1, (2,))), 1),
        PeanoAtom((Monomial(1, (1,)), Monomial(-1, (1, 2, 3))), 0),
        PeanoAtom((Monomial(1, (1, 1)),), 9),
        PeanoAtom((), 0),
        PeanoAtom((), -1),
    ]
    for r1, r2 in ((rat(1), rat(1)), (rat(1, 4), rat(1, 4)), (rat(1, 2), rat(1, 8))):
        for atom in atoms:
            layer = atom_check_layer(atom)
            arity = peano_arity(atom)
            for assignment in product(range(5), repeat=arity):
                monomials = [
                    r1 * prod(assignment[v - 1] for v in m.variables)
                    for m in atom.monomials
                ]
                got = fnn_eval(layer, layer_inputs(monomials + [r1, r2]))[0]
                want = r2 if eval_peano(atom, assignment) else ZERO
                assert got == want
                checked += 1
    print(f"criterion 6 PASS: gadgets matched the oracle on {checked} evaluations")


def test_criterion_7_tree_like_fixture_shapes():
    for inst in (binary_out_tree(), directed_triangle()):
        ok, witness = check_tree_like(OUT_OUT, inst, 1)
        assert ok and witness is None

    kinds = {}
    for name, inst in (
        ("converging_diamond", converging_diamond()),
        ("biloop_star", biloop_star()),
    ):
        ok, witness = check_tree_like(OUT_OUT, inst, 1)
        assert not ok and witness is not None
        assert witness.pair is not None and witness.trace is not None
        kinds[name] = witness.kind
    assert kinds == {
        "converging_diamond": "indistinct_pair",
        "biloop_star": "indistinct_pair",
    }

    ok, witness = check_tree_like(OUT_OUT, loopless_tree(), 1)
    assert not ok and witness.kind == "missing_self_loop"
    assert witness.walk is not None
    print(
        "criterion 7 PASS: both member shapes accepted; all rejected shapes "
        "carried violation witnesses"
    )


def _relabel(inst: PointedGraph, perm):
    g = inst.graph
    edges = frozenset((perm[u], perm[v]) for (u, v) in g.edges)
    labels = [None] * g.node_count
    for v in range(g.node_count):
        labels[perm[v]] = g.labels[v]
    return PointedGraph(
        Graph(g.node_count, g.colours, edges, tuple(labels)), perm[inst.focus]
    )


def test_criterion_8_relabelling_invariance():
    rng = random.Random("relabel-acceptance")
    for i in range(100):
        colours = rng.randint(1, 3)
        n = rng.randint(1, 6)
        inst = gen_pointed(5000 + i, n, colours, rng.choice([0.2, 0.5, 0.8]))
        net = random_mpnn(rng, colours, aggregators=(MEAN, SUM, MAX))
        perm = list(range(n))
        rng.shuffle(perm)
        twin = _relabel(inst, perm)
        states = mpnn_eval(net, inst.graph)
        twin_states = mpnn_eval(net, twin.graph)
        for v in range(n):
            assert twin_states[perm[v]] == states[v]
    print("criterion 8 PASS: evaluation commuted with all 100 relabellings")
