"""Graph model, class predicates, trace sets, generators, serialization."""

import gc
import weakref

import pytest

from pmlc.graphs import (
    Graph,
    GraphFormatError,
    PointedGraph,
    check_tree_like,
    gen_marked,
    gen_pointed,
    gen_regular_strongly_marked,
    gen_strongly_marked,
    gen_tree_like,
    is_marked,
    is_regular,
    is_strongly_marked,
    neigh,
    parse_graph,
    print_graph,
    trace_set,
)
from pmlc.logic import Modality, parse_formula

from shapes import (
    OUT_OUT,
    binary_out_tree,
    biloop_star,
    converging_diamond,
    directed_triangle,
    loopless_tree,
)


def graph_of(n, colours, edges, labels=None):
    if labels is None:
        labels = tuple((0,) * colours for _ in range(n))
    return Graph(n, colours, frozenset(edges), tuple(labels))


# ---------------------------------------------------------------------------
# Model validation


def test_graph_validation():
    with pytest.raises(ValueError):
        graph_of(2, 1, {(0, 2)})  # edge endpoint out of range
    with pytest.raises(ValueError):
        Graph(1, 1, frozenset(), ((0, 1),))  # label width mismatch
    with pytest.raises(ValueError):
        Graph(2, 1, frozenset(), ((0,),))  # label count mismatch
    with pytest.raises(ValueError):
        Graph(1, 0, frozenset(), ((),))  # zero colours
    with pytest.raises(ValueError):
        PointedGraph(graph_of(2, 1, set()), 2)  # focus out of range


# ---------------------------------------------------------------------------
# Neighbourhoods and degree regularity


def test_neigh_isolated_node():
    g = graph_of(1, 1, set())
    assert neigh(g, 0, "in") == ()
    assert neigh(g, 0, "out") == ()


def test_neigh_single_edge():
    g = graph_of(2, 1, {(0, 1)})
    assert neigh(g, 1, "in") == (0,)
    assert neigh(g, 0, "out") == (1,)
    assert neigh(g, 0, "in") == ()


def test_neigh_self_loop_counts_both_ways():
    g = graph_of(1, 1, {(0, 0)})
    assert neigh(g, 0, "in") == (0,)
    assert neigh(g, 0, "out") == (0,)


def test_neigh_does_not_keep_graphs_alive():
    g = graph_of(3, 1, {(0, 1), (2, 1)})
    assert neigh(g, 1, "in") == (0, 2)
    # The adjacency kept on g stays out of equality and hashing.
    twin = graph_of(3, 1, {(0, 1), (2, 1)})
    assert g == twin and hash(g) == hash(twin)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_is_regular():
    assert is_regular(graph_of(3, 1, set()))
    assert is_regular(graph_of(3, 1, {(0, 1), (1, 2), (2, 0)}))
    assert not is_regular(graph_of(2, 1, {(0, 1)}))
    # Uniform out-degrees but skewed in-degrees are not regular.
    assert not is_regular(graph_of(3, 1, {(0, 1), (1, 1), (2, 1)}))


# ---------------------------------------------------------------------------
# Marking


def test_marking_predicates():
    lone = graph_of(1, 1, set(), labels=[(1,)])
    assert is_marked(lone, 0, 0)
    assert not is_strongly_marked(lone, 0, 0)
    looped = graph_of(1, 1, {(0, 0)}, labels=[(1,)])
    assert is_strongly_marked(looped, 0, 0)
    double = graph_of(2, 1, set(), labels=[(1,), (1,)])
    assert not is_marked(double, 0, 0)
    assert not is_marked(double, 1, 0)
    with pytest.raises(ValueError):
        is_marked(lone, 0, 1)


# ---------------------------------------------------------------------------
# Trace sets


def test_trace_set_on_binary_tree():
    pg = binary_out_tree()
    assert trace_set(OUT_OUT, pg, 3, 2) == frozenset(
        {(Modality.E_OUT, Modality.E_OUT)}
    )
    assert trace_set(OUT_OUT, pg, 1, 2) == frozenset(
        {(Modality.E_OUT,), (Modality.E_OUT, Modality.E_OUT)}
    )
    assert trace_set(OUT_OUT, pg, 0, 2) == frozenset(
        {(), (Modality.E_OUT,), (Modality.E_OUT, Modality.E_OUT)}
    )


def test_trace_set_empty_trace_only_at_focus():
    pg = binary_out_tree()
    for u in range(pg.graph.node_count):
        ts = trace_set(OUT_OUT, pg, u, 0)
        assert (() in ts) == (u == pg.focus)


def test_trace_set_no_edges():
    phi = parse_formula("<in>{x1 >= 1}(p0)")
    g = graph_of(3, 1, set())
    pg = PointedGraph(g, 0)
    assert trace_set(phi, pg, 1, 1) == frozenset()
    assert trace_set(phi, pg, 0, 1) == frozenset({()})


def test_trace_set_monotone_in_level():
    for seed in range(20):
        pg = gen_pointed(seed, 5, 2, 0.4)
        for u in range(pg.graph.node_count):
            prev = trace_set(OUT_OUT, pg, u, 0)
            for i in (1, 2):
                cur = trace_set(OUT_OUT, pg, u, i)
                assert prev <= cur
                prev = cur


def test_trace_set_rejects_bad_level():
    pg = binary_out_tree()
    with pytest.raises(ValueError):
        trace_set(OUT_OUT, pg, 0, 3)


# ---------------------------------------------------------------------------
# Tree-like class membership


def test_tree_like_members():
    for pg in (binary_out_tree(), directed_triangle()):
        ok, witness = check_tree_like(OUT_OUT, pg, 1)
        assert ok and witness is None


def test_triangle_is_regular_member():
    assert is_regular(directed_triangle().graph)


def test_tree_like_diamond_rejected():
    ok, witness = check_tree_like(OUT_OUT, converging_diamond(), 1)
    assert not ok
    assert witness.kind == "indistinct_pair"
    assert witness.pair == (1, 2)
    assert witness.walk[0] == 0


def test_tree_like_biloop_star_rejected():
    ok, witness = check_tree_like(OUT_OUT, biloop_star(), 1)
    assert not ok
    assert witness.kind == "indistinct_pair"
    assert witness.pair == (1, 2)


def test_tree_like_missing_self_loop():
    ok, witness = check_tree_like(OUT_OUT, loopless_tree(), 1)
    assert not ok
    assert witness.kind == "missing_self_loop"
    assert witness.walk == (0, 1) or witness.walk == (0, 2)


def test_tree_like_requires_marking():
    pg = binary_out_tree()
    unmarked = PointedGraph(
        Graph(
            pg.graph.node_count,
            2,
            pg.graph.edges,
            tuple((bits[0], 0) for bits in pg.graph.labels),
        ),
        0,
    )
    ok, witness = check_tree_like(OUT_OUT, unmarked, 1)
    assert not ok and witness.kind == "not_marked"


def test_tree_like_depth_zero_is_marking_only():
    phi = parse_formula("(p0 & !p1)")
    g = graph_of(2, 2, {(0, 1), (1, 0)}, labels=[(0, 1), (1, 0)])
    ok, witness = check_tree_like(phi, PointedGraph(g, 0), 1)
    assert ok and witness is None


def test_tree_like_witness_walk_respects_trace():
    ok, witness = check_tree_like(OUT_OUT, converging_diamond(), 1)
    assert not ok
    g = converging_diamond().graph
    walk, trace = witness.walk, witness.trace
    assert len(walk) == len(trace) + 1
    for (a, b), e in zip(zip(walk, walk[1:]), trace):
        if e is Modality.E_OUT:
            assert (a, b) in g.edges
        else:
            assert (b, a) in g.edges


# ---------------------------------------------------------------------------
# Serialization


def test_graph_round_trip():
    pg = binary_out_tree()
    assert parse_graph(print_graph(pg)) == pg
    g = pg.graph
    assert parse_graph(print_graph(g)) == g


def test_parse_graph_comments_and_blank_lines():
    text = "# fixture\n\ngraph 1 2\nnode 0 10  # focus bits\nfocus 0\n"
    pg = parse_graph(text)
    assert pg == PointedGraph(Graph(1, 2, frozenset(), ((1, 0),)), 0)


@pytest.mark.parametrize(
    "text",
    [
        "node 0 1\n",  # missing header
        "graph 1 1\n",  # missing node line
        "graph 1 1\nnode 0 1\nnode 0 1\n",  # duplicate node
        "graph 1 1\nnode 0 2\n",  # bad bit
        "graph 1 1\nnode 0 11\n",  # label width mismatch
        "graph 2 1\nnode 0 1\nnode 1 0\nedge 0 5\n",  # edge out of range
        "graph 1 1\nnode 0 1\nfocus 3\n",  # focus out of range
        "graph 1 1\nnode 0 1\nwhat 1\n",  # unknown line
        "graph 1 1\ngraph 1 1\nnode 0 1\n",  # duplicate header
    ],
)
def test_parse_graph_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize("seed", range(25))
def test_random_graph_round_trip(seed):
    pg = gen_pointed(seed, 6, 3, 0.3)
    assert parse_graph(print_graph(pg)) == pg


# ---------------------------------------------------------------------------
# Generators are self-validating


@pytest.mark.parametrize("seed", range(150))
def test_gen_marked_is_marked(seed):
    n = 1 + seed % 8
    colours = 1 + seed % 3
    pg = gen_marked(seed, n, colours, (seed % 10) / 10.0)
    assert is_marked(pg.graph, pg.focus, colours - 1)


@pytest.mark.parametrize("seed", range(100))
def test_gen_strongly_marked(seed):
    n = 1 + seed % 6
    pg = gen_strongly_marked(seed, n, 2, 0.3)
    assert is_strongly_marked(pg.graph, pg.focus, 1)


@pytest.mark.parametrize("seed", range(150))
def test_gen_regular_strongly_marked(seed):
    n = 1 + seed % 8
    d = 1 + seed % n
    pg = gen_regular_strongly_marked(seed, n, 2, d, d)
    assert is_regular(pg.graph)
    assert is_strongly_marked(pg.graph, pg.focus, 1)
    ins = {len(neigh(pg.graph, v, "in")) for v in range(n)}
    outs = {len(neigh(pg.graph, v, "out")) for v in range(n)}
    assert ins == {d} and outs == {d}


def test_gen_regular_infeasible():
    with pytest.raises(ValueError):
        gen_regular_strongly_marked(0, 4, 2, 1, 2)
    with pytest.raises(ValueError):
        gen_regular_strongly_marked(0, 4, 2, 0, 0)
    with pytest.raises(ValueError):
        gen_regular_strongly_marked(0, 4, 2, 5, 5)


TREE_FORMULAS = [
    "<out>{x1 >= 1}(<out>{x1 >= 1}(p0))",
    "<in>{x1 >= 1}(<in>{x1 >= 1}(p0))",
    "<in,out>{x1 - x2 <= 0}(p0,p0)",
    "<in,out>{x1*x1 - x2*x2*x2 <= 1}(p0,(p1 & !p2))",
    "<out>{x1 >= 1}(<in>{x1 >= 2}(p0))",
]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("text", TREE_FORMULAS)
@pytest.mark.parametrize("regular", [False, True])
def test_gen_tree_like_validates(seed, text, regular):
    phi = parse_formula(text)
    colours = 4
    pg = gen_tree_like(seed, phi, 2, colours, regular)
    ok, witness = check_tree_like(phi, pg, colours - 1)
    assert ok, witness
    if regular:
        assert is_regular(pg.graph)


def test_gen_tree_like_builds_full_tree_for_out_formula():
    pg = gen_tree_like(7, OUT_OUT, 2, 2, regular=False)
    # Depth-2 binary out-tree: root + 2 + 4 nodes.
    assert pg.graph.node_count == 7
    ok, _ = check_tree_like(OUT_OUT, pg, 1)
    assert ok


def test_generators_deterministic():
    a = gen_marked(11, 5, 2, 0.5)
    b = gen_marked(11, 5, 2, 0.5)
    assert a == b
    a = gen_tree_like(3, OUT_OUT, 2, 2, False)
    b = gen_tree_like(3, OUT_OUT, 2, 2, False)
    assert a == b
