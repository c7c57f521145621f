"""Reference semantics: constraint evaluation and modal satisfaction."""

import gc
import random
import weakref

import pytest

from pmlc import oracle
from pmlc.graphs import Graph, PointedGraph, gen_pointed, neigh
from pmlc.logic import (
    And,
    Modal,
    Modality,
    Not,
    PeanoAnd,
    PeanoAtom,
    PeanoNot,
    Prop,
    flatten_global,
    parse_formula,
    parse_peano,
)
from pmlc.oracle import all_pointed_graphs, eval_peano, models

from formula_gen import random_formula, random_peano


def graph_of(n, colours, edges, labels):
    return Graph(n, colours, frozenset(edges), tuple(tuple(b) for b in labels))


# ---------------------------------------------------------------------------
# Constraint evaluation


def test_eval_peano_cubic():
    psi = parse_peano("x1*x1*x1 - x2*x2*x3 <= 0")
    assert eval_peano(psi, (3, 2, 2)) is False  # 27 - 8 = 19 > 0
    assert eval_peano(psi, (0, 0, 0)) is True
    assert eval_peano(psi, (2, 2, 2)) is True  # 8 - 8 = 0


def test_eval_peano_negation():
    psi = parse_peano("x1 >= 2")
    assert eval_peano(psi, (2,)) is True
    assert eval_peano(psi, (1,)) is False


def test_eval_peano_conjunction_and_equality():
    psi = parse_peano("x1 = 2")
    assert [eval_peano(psi, (k,)) for k in range(4)] == [False, False, True, False]


def test_eval_peano_arity_mismatch():
    with pytest.raises(ValueError):
        eval_peano(parse_peano("x2 <= 1"), (3,))


def test_eval_peano_ignores_spare_values():
    assert eval_peano(parse_peano("x1 <= 1"), (1, 99)) is True


# ---------------------------------------------------------------------------
# Satisfaction


def lemma_pair():
    """Two edge-free graphs separating 'at least two p0 nodes': one of two
    nodes labelled p0 versus two of four."""
    g1 = graph_of(2, 1, set(), [[1], [0]])
    g2 = graph_of(4, 1, set(), [[1], [1], [0], [0]])
    return PointedGraph(g1, 0), PointedGraph(g2, 0)


def test_models_counting_pair():
    phi = parse_formula("<top>{x1 >= 2}(p0)")
    pg1, pg2 = lemma_pair()
    assert models(pg1, phi) is False
    assert models(pg2, phi) is True


def test_models_prop():
    g = graph_of(2, 1, set(), [[1], [0]])
    assert models(PointedGraph(g, 0), parse_formula("p0")) is True
    assert models(PointedGraph(g, 1), parse_formula("p0")) is False


def test_models_colour_out_of_range():
    g = graph_of(1, 1, set(), [[1]])
    with pytest.raises(ValueError):
        models(PointedGraph(g, 0), parse_formula("p1"))


def test_models_id_modality():
    # <id>{x1 >= 1}(p0) holds exactly where p0 does.
    phi = parse_formula("<id>{x1 >= 1}(p0)")
    g = graph_of(2, 1, set(), [[1], [0]])
    assert models(PointedGraph(g, 0), phi) is True
    assert models(PointedGraph(g, 1), phi) is False


def test_models_edge_modalities():
    # Focus satisfies "at least one out-neighbour with p0, no in-neighbour
    # with p0" on a 2-path.
    phi = parse_formula("<out,in>{(x1 >= 1 & x2 <= 0)}(p0,p0)")
    g = graph_of(3, 1, {(0, 1), (1, 2)}, [[0], [1], [0]])
    assert models(PointedGraph(g, 0), phi) is True
    assert models(PointedGraph(g, 1), phi) is False


def test_models_nested():
    phi = parse_formula("<out>{x1 >= 1}(<out>{x1 >= 1}(p0))")
    g = graph_of(3, 1, {(0, 1), (1, 2)}, [[0], [0], [1]])
    assert models(PointedGraph(g, 0), phi) is True
    assert models(PointedGraph(g, 1), phi) is False
    assert models(PointedGraph(g, 2), phi) is False


@pytest.mark.parametrize("seed", range(30))
def test_models_boolean_laws(seed):
    rng = random.Random(f"laws-{seed}")
    pg = gen_pointed(seed, 5, 2, 0.4)
    phi = random_formula(rng, 2, list(Modality))
    chi = random_formula(rng, 1, list(Modality))
    from pmlc.logic import And, Not

    assert models(pg, Not(phi)) == (not models(pg, phi))
    assert models(pg, And(phi, chi)) == (models(pg, phi) and models(pg, chi))


def test_models_direct_counting_cross_check():
    # With constraint x1 <= K the modal node is a thresholded count.
    for seed in range(20):
        pg = gen_pointed(seed, 6, 2, 0.35)
        g = pg.graph
        for pi, direction in [
            (Modality.E_IN, "in"),
            (Modality.E_OUT, "out"),
        ]:
            for k in range(3):
                phi = parse_formula(
                    f"<{pi.surface}>{{x1 <= {k}}}(p0)"
                )
                expected = (
                    sum(
                        1
                        for u in neigh(g, pg.focus, direction)
                        if g.labels[u][0] == 1
                    )
                    <= k
                )
                assert models(pg, phi) == expected


def test_models_survives_formulas_deeper_than_the_stack():
    # The 5,000-deep Not chain of test_logic, built through the constructors.
    chain = Prop(2)
    for _ in range(5000):
        chain = Not(chain)
    g = graph_of(2, 3, [(0, 1)], [(0, 0, 1), (1, 0, 0)])
    assert models(PointedGraph(g, 0), chain) is True
    assert models(PointedGraph(g, 1), chain) is False
    assert models(PointedGraph(g, 0), Not(chain)) is False
    wrapped = Modal((Modality.TOP,), parse_peano("x1 >= 1"), (chain,))
    assert models(PointedGraph(g, 1), wrapped) is True


def test_models_survives_constraints_deeper_than_the_stack():
    # The 5,000-deep PeanoNot chain of test_logic (an even number of
    # negations over x1 >= 1), and a 5,000-deep PeanoAnd chain over it,
    # both built through the constructors.
    chain = parse_peano("x1 >= 1")
    for _ in range(5000):
        chain = PeanoNot(chain)
    conj = parse_peano("x1 <= 2")
    for _ in range(5000):
        conj = PeanoAnd(chain, conj)
    g = graph_of(3, 1, [(0, 1)], [(1,), (0,), (0,)])
    empty = graph_of(3, 1, [], [(0,), (0,), (0,)])
    for psi in (chain, conj):
        assert eval_peano(psi, (1,)) is True and eval_peano(psi, (0,)) is False
        top = Modal((Modality.TOP,), psi, (Prop(0),))
        out = Modal((Modality.E_OUT,), psi, (Prop(0),))
        assert models(PointedGraph(g, 2), top) is True
        assert models(PointedGraph(empty, 0), top) is False
        assert [models(PointedGraph(g, v), out) for v in range(3)] == [False] * 3
        assert models(PointedGraph(g, 1), Not(Not(top))) is True
    assert eval_peano(conj, (3,)) is False


def test_models_survives_deep_modal_nesting():
    # Negations and <out> steps alternate 3,000 levels deep on a
    # two-cycle; the truth at each node is worked out level by level.
    g = graph_of(3, 1, [(0, 1), (1, 0), (2, 2)], [(1,), (0,), (0,)])
    step = parse_peano("x1 >= 1")
    phi, truth = Prop(0), [True, False, False]
    for i in range(3000):
        if i % 2:
            phi = Modal((Modality.E_OUT,), step, (phi,))
            truth = [any(truth[u] for u in neigh(g, v, "out")) for v in range(3)]
        else:
            phi, truth = Not(phi), [not t for t in truth]
    assert [models(PointedGraph(g, v), phi) for v in range(3)] == truth


def _direct(g, v, phi):
    """Truth at ``v`` by recursion and counting straight from the edge set,
    independent of ``pmlc.oracle``; for small formulas only."""
    if isinstance(phi, Prop):
        return g.labels[v][phi.index] == 1
    if isinstance(phi, Not):
        return not _direct(g, v, phi.operand)
    if isinstance(phi, And):
        return _direct(g, v, phi.left) and _direct(g, v, phi.right)
    ranges = {
        Modality.ID: [v],
        Modality.E_IN: [s for s, d in g.edges if d == v],
        Modality.E_OUT: [d for s, d in g.edges if s == v],
        Modality.TOP: range(g.node_count),
    }
    counts = [
        sum(_direct(g, u, child) for u in ranges[pi])
        for pi, child in zip(phi.modalities, phi.children)
    ]
    return _direct_peano(phi.constraint, counts)


def _direct_peano(psi, counts):
    if isinstance(psi, PeanoAtom):
        total = 0
        for m in psi.monomials:
            term = m.coeff
            for x in m.variables:
                term *= counts[x - 1]
            total += term
        return total <= psi.bound
    if isinstance(psi, PeanoNot):
        return not _direct_peano(psi.operand, counts)
    return _direct_peano(psi.left, counts) and _direct_peano(psi.right, counts)


def _small_graph(rng):
    """1 to 9 nodes (a pointed graph needs one), with self-loops allowed and
    the last node's edges dropped, so it is isolated."""
    n = rng.randint(1, 9)
    p = rng.choice([0.0, 0.15, 0.35, 0.7])
    edges = {(s, d) for s in range(n) for d in range(n) if rng.random() < p}
    if rng.random() < 0.5:
        edges = {(s, d) for s, d in edges if n - 1 not in (s, d)}
    labels = [[rng.randint(0, 1) for _ in range(2)] for _ in range(n)]
    return graph_of(n, 2, edges, labels)


@pytest.mark.parametrize("seed", range(60))
def test_models_matches_direct_counting_at_every_focus(seed):
    rng = random.Random(f"differential-{seed}")
    mods = list(Modality)
    phi = random_formula(rng, 3, mods)
    shared = random_formula(rng, 2, mods)
    # ``shared`` occurs under three parents, one of them a two-position
    # modal node over both ``shared`` and ``phi``, which is needed at
    # many nodes, so its constraint meets many count vectors.
    pair = tuple(rng.choice(mods) for _ in range(2))
    over = Modal(pair, random_peano(rng, 2, 2), (shared, And(shared, phi)))
    reach = (rng.choice([Modality.E_IN, Modality.E_OUT, Modality.TOP]),)
    phi = And(Not(And(phi, shared)), Modal(reach, random_peano(rng, 1, 2), (over,)))
    for _ in range(3):
        g = _small_graph(rng)
        for v in range(g.node_count):
            assert models(PointedGraph(g, v), phi) == _direct(g, v, phi), (seed, v)


def test_plan_cache_keeps_no_formula_alive():
    g = graph_of(2, 1, [(0, 1)], [(0,), (1,)])
    psi = parse_peano("x1 >= 7919")
    phi = Modal((Modality.E_OUT,), psi, (Not(Prop(0)),))
    assert models(PointedGraph(g, 0), phi) is False
    assert phi in oracle._PLANS
    ref = weakref.ref(phi)
    del phi
    gc.collect()
    assert ref() is None
    cached = list(oracle._PLANS.keys())
    assert not any(isinstance(k, Modal) and k.constraint is psi for k in cached)


def test_models_memoization_consistency():
    # Deeply shared subformulas: repeated evaluation stays consistent.
    phi = parse_formula("(<top>{x1 >= 1}(p0) & !<top>{x1 >= 1}(p0))")
    g = graph_of(3, 1, set(), [[1], [0], [0]])
    assert models(PointedGraph(g, 0), phi) is False


# ---------------------------------------------------------------------------
# Global-fragment properties


def _focus_blind(phi):
    """True when every proposition occurrence sits under a modal node, so an
    all-top formula's verdict cannot depend on the focus."""
    from pmlc.logic import And, Modal, Not, Prop

    if isinstance(phi, Prop):
        return False
    if isinstance(phi, Not):
        return _focus_blind(phi.operand)
    if isinstance(phi, And):
        return _focus_blind(phi.left) and _focus_blind(phi.right)
    return True


def test_models_focus_invariant_for_top_formulas():
    rng = random.Random("focus-invariance")
    checked = 0
    while checked < 25:
        phi = random_formula(rng, 2, [Modality.TOP])
        if not _focus_blind(phi):
            continue  # bare root-level propositions do read the focus label
        checked += 1
        pg = gen_pointed(rng.randrange(10**6), 5, 2, 0.4)
        verdicts = {
            models(PointedGraph(pg.graph, v), phi)
            for v in range(pg.graph.node_count)
        }
        assert len(verdicts) == 1


def test_models_focus_invariant_exhaustive_edge_free():
    phi = parse_formula("<top>{x1 >= 2}(p0)")
    for pg in all_pointed_graphs(5, 1, edges=False):
        base = models(PointedGraph(pg.graph, 0), phi)
        assert models(pg, phi) == base


def test_flatten_global_preserves_semantics_fixed():
    phi = parse_formula("<top>{x1 <= 0}(<top>{x1 >= 1}(p0))")
    flat = flatten_global(phi)
    for pg in all_pointed_graphs(4, 1, edges=False):
        assert models(pg, phi) == models(pg, flat)


@pytest.mark.parametrize("seed", range(12))
def test_flatten_global_preserves_semantics_random(seed):
    rng = random.Random(f"flatten-{seed}")
    # Single-child chains keep the guessed-subformula count (and hence the
    # disjunction blow-up) small while still exercising depth 3.
    phi = random_formula(
        rng, 3, [Modality.TOP], props=2, max_degree=2, max_children=1
    )
    flat = flatten_global(phi)
    # Global formulas ignore edges, so edge-free enumeration is exhaustive
    # up to semantics.
    for pg in all_pointed_graphs(4, 2, edges=False):
        assert models(pg, phi) == models(pg, flat)


def test_models_with_edges_small_exhaustive():
    # Edge semantics sanity on every 2-node pointed graph with edges.
    phi = parse_formula("<out>{x1 >= 1}(p0)")
    for pg in all_pointed_graphs(2, 1, edges=True):
        expected = any(
            pg.graph.labels[u][0] == 1
            for u in neigh(pg.graph, pg.focus, "out")
        )
        assert models(pg, phi) == expected
