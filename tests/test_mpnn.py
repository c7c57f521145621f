"""Tests for the MPNN model, evaluator, judge, and file format."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pmlc.compiler import compile
from pmlc.graphs import Graph, PointedGraph, gen_pointed, parse_graph, print_graph
from pmlc.logic import parse_formula
from pmlc.mpnn import (
    Aggregator,
    CertaintyDescriptor,
    ClassViolation,
    Mpnn,
    MpnnFormatError,
    MpnnLayer,
    aggregate,
    check_required_class,
    judge,
    mean_scale,
    mpnn_eval,
    mpnn_eval_traced,
    parse_mpnn,
    print_mpnn,
    random_mpnn,
)
from pmlc.net import Fnn, FnnLayer, ONE, ZERO, rat

from shapes import OUT_OUT, binary_out_tree, converging_diamond, directed_triangle
from pmlc.logic import print_formula

MEAN, SUM, MAX = Aggregator.MEAN, Aggregator.SUM, Aggregator.MAX


# ---------------------------------------------------------------------------
# Aggregation


def _members(groups, n):
    """For each of ``n`` nodes, the indices of the groups that hold it."""
    members = [[] for _ in range(n)]
    for k, grp in enumerate(groups):
        for u in grp:
            members[u].append(k)
    return members


def _aggregate(a, col, groups):
    members = _members(groups, len(col[0]))
    return aggregate(a, col, members, len(groups), mean_scale(groups))


def _agg(a, rows, dim):
    """``aggregate`` of rational rows (one per node) over the single group
    of all of them, one column per dim, read back as rationals; each
    column becomes numerators over the lcm of its denominators."""
    out = []
    for i in range(dim):
        values = [row[i] for row in rows]
        den = math.lcm(*(q.denominator for q in values))
        col = ([q.numerator * (den // q.denominator) for q in values], den)
        (num,), den = _aggregate(a, col, [range(len(rows))])
        out.append(rat(num, den))
    return out


def test_mean_of_two_singletons():
    assert _agg(MEAN, [[ONE], [ZERO]], 1) == [rat(1, 2)]


def test_empty_multiset_gives_zero_vector():
    for a in (MEAN, SUM, MAX):
        assert _aggregate(a, ([], 1), [()]) == ([0], 1)
        assert _aggregate(a, ([3, 5], 7), [(), (1,), ()])[0] == [0, 5, 0]


def test_max_is_dimensionwise():
    assert _agg(MAX, [[ONE, ZERO], [ZERO, ONE]], 2) == [ONE, ONE]


def test_sum_accumulates_exactly():
    vals = [[rat(1, 3)], [rat(1, 3)], [rat(1, 3)]]
    assert _agg(SUM, vals, 1) == [ONE]
    assert _agg(MEAN, vals, 1) == [rat(1, 3)]


def test_aggregate_keeps_the_column_denominator():
    vals = [[rat(1, 2), ONE], [rat(1, 3), ZERO], [rat(3, 4), ZERO]]
    assert _agg(SUM, vals, 2) == [rat(19, 12), ONE]
    assert _agg(MEAN, vals, 2) == [rat(19, 36), rat(1, 3)]
    assert _agg(MAX, vals, 2) == [rat(3, 4), ONE]
    col = ([6, 4, 9], 12)
    assert _aggregate(SUM, col, [(0, 1, 2)]) == ([19], 12)
    assert _aggregate(MAX, col, [(0, 1, 2)]) == ([9], 12)


def test_aggregate_reads_only_the_given_groups():
    col = ([1, 5, 2, 7], 3)
    assert _aggregate(SUM, col, [(2, 0), (1,), (3, 1)]) == ([3, 5, 12], 3)
    assert _aggregate(MAX, col, [(2, 0), (1,), (3, 1)]) == ([2, 5, 7], 3)


def test_mean_uses_one_denominator_over_the_degree_lcm():
    # Group sizes 2, 3 and 0: L = lcm(2, 3) = 6, and each group's sum is
    # scaled by L / size (an empty group gives 0).
    col = ([1, 5, 2, 7], 3)
    groups = [(0, 1), (1, 2, 3), ()]
    assert mean_scale(groups) == (6, [3, 2, 0])
    assert _aggregate(MEAN, col, groups) == ([18, 28, 0], 18)
    # Equal nonzero sizes need no scaling, empty groups included.
    assert mean_scale([(0, 1), (), (2, 3)]) == (2, None)
    assert _aggregate(MEAN, col, [(0, 1), (), (2, 3)]) == ([6, 0, 9], 6)
    assert mean_scale([(), ()]) == (1, None)


def test_aggregate_checks_group_members():
    for a in (MEAN, SUM, MAX):
        # A column of two nodes against member lists of three, and of one.
        with pytest.raises(ValueError):
            aggregate(a, ([1, 0], 1), [(0,), (0,), (0,)], 1, (1, None))
        with pytest.raises(ValueError):
            aggregate(a, ([1, 0], 1), [(0,)], 1, (1, None))
        # Node 0 is a member of group 2, past the width of 2.
        with pytest.raises(ValueError):
            aggregate(a, ([1, 0], 1), [(2,), ()], 2, (1, None))


def _gather(a, col, groups):
    """The aggregate read group by group over every member: the plain
    definition the scatter in ``aggregate`` must reproduce exactly."""
    nums, den = col
    if a is MAX:
        return [max((nums[u] for u in grp), default=0) for grp in groups], den
    sums = [sum(nums[u] for u in grp) for grp in groups]
    if a is SUM:
        return sums, den
    top = math.lcm(*{len(grp) for grp in groups if grp})
    return [x * top // len(grp) if grp else 0 for x, grp in zip(sums, groups)], den * top


@st.composite
def _graphs_and_columns(draw):
    """A graph of 0-9 nodes, self-loops and isolated nodes allowed, with a
    mostly-zero nonnegative column."""
    n = draw(st.integers(0, 9))
    nodes = st.integers(0, max(n - 1, 0))
    edges = draw(st.sets(st.tuples(nodes, nodes), max_size=3 * n)) if n else set()
    values = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(0, 50))
    nums = draw(st.lists(values, min_size=n, max_size=n))
    den = draw(st.integers(1, 12))
    return Graph(n, 1, frozenset(edges), ((0,),) * n), (nums, den)


@given(_graphs_and_columns(), st.sampled_from(list(Aggregator)))
@settings(max_examples=300, deadline=None)
def test_aggregate_matches_gathering_on_every_port(graph_and_col, a):
    g, col = graph_and_col
    n = g.node_count
    ins, outs = g.adjacency
    everyone = (range(n),)
    # The ports of _states_after: in-groups reached through the out lists,
    # out-groups through the in lists, and the one global group, also as
    # the one-group path with no member lists.
    for groups, members in ((ins, outs), (outs, ins), (everyone, ((0,),) * n), (everyone, None)):
        want = _gather(a, col, groups)
        assert aggregate(a, col, members, len(groups), mean_scale(groups)) == want


def test_weighted_entries_stand_for_their_nodes():
    # Entries of weights 2, 4 and 1 on the one global group: seven nodes.
    nums, weights = [3, 0, 5], [2, 4, 1]
    scale = mean_scale((range(7),))
    for a in (MEAN, SUM, MAX):
        want = aggregate(a, ([3, 3, 0, 0, 0, 0, 5], 4), None, 1, scale)
        assert aggregate(a, (nums, 4), None, 1, scale, weights) == want
    assert aggregate(MEAN, (nums, 4), None, 1, scale, weights) == ([11], 28)


class _CountingList(list):
    """A list that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_aggregate_reads_only_the_nonzero_entries():
    nums = _CountingList([0, 4, 0, 0, 7, 0, 0, 0])
    groups = [range(8), (1, 2, 3), (0, 5), (4, 4, 6), ()]
    members = _members(groups, len(nums))
    for a in (MEAN, SUM, MAX):
        nums.reads = 0
        got = aggregate(a, (nums, 5), members, len(groups), mean_scale(groups))
        assert nums.reads == 2, a
        assert got == _gather(a, (list(nums), 5), groups)


# ---------------------------------------------------------------------------
# Construction helpers


def _layer(rows, in_dim, out_dim, loc_in=MEAN, loc_out=MEAN, glob=MEAN):
    neurons = tuple(
        (rat(bias), tuple((i, rat(w)) for i, w in weights)) for bias, weights in rows
    )
    return MpnnLayer(
        Fnn((FnnLayer(4 * in_dim, neurons),)), loc_in, loc_out, glob, in_dim, out_dim
    )


def _const_net(value, exponent=0, inverted=False):
    """One-colour network whose every node state is the constant `value`."""
    return Mpnn(
        colours=1,
        layers=(_layer([(value, [])], 1, 1),),
        certainty=CertaintyDescriptor(exponent),
        inverted=inverted,
        required_class="any",
    )


def _global_mean_net():
    """Projects the global mean of colour 0 into a single dimension."""
    return Mpnn(
        colours=1,
        layers=(_layer([(0, [(3, 1)])], 1, 1),),
        certainty=CertaintyDescriptor(0),
        inverted=False,
        required_class="any",
    )


def _lemma_pair():
    g1 = Graph(2, 1, frozenset(), ((1,), (0,)))
    g2 = Graph(4, 1, frozenset(), ((1,), (1,), (0,), (0,)))
    return g1, g2


# ---------------------------------------------------------------------------
# Model invariants


def test_layer_requires_quadruple_input_width():
    with pytest.raises(ValueError):
        MpnnLayer(
            Fnn((FnnLayer(3, ((ZERO, ((0, ONE),)),)),)), MEAN, MEAN, MEAN, 1, 1
        )


def test_layer_output_width_must_match():
    with pytest.raises(ValueError):
        MpnnLayer(
            Fnn((FnnLayer(4, ((ZERO, ((0, ONE),)),)),)), MEAN, MEAN, MEAN, 1, 2
        )


def test_mpnn_layer_widths_must_chain():
    a = _layer([(0, [(0, 1)])], 1, 1)
    b = _layer([(0, [(0, 1)])], 2, 1)
    with pytest.raises(ValueError):
        Mpnn(1, (a, b), CertaintyDescriptor(0), False, "any")


def test_mpnn_rejects_unknown_class_tag():
    with pytest.raises(ValueError):
        _layer_net = Mpnn(1, (), CertaintyDescriptor(0), False, "weird")


def test_marked_class_needs_mark_colour():
    with pytest.raises(ValueError):
        Mpnn(1, (), CertaintyDescriptor(0), False, "marked")


def test_tree_like_class_needs_formula():
    with pytest.raises(ValueError):
        Mpnn(2, (), CertaintyDescriptor(0), False, "tree-like", mark_colour=1)


def test_dimension_names_are_validated():
    layer = _layer([(0, [(0, 1)])], 1, 1)
    with pytest.raises(ValueError):
        Mpnn(1, (layer,), CertaintyDescriptor(0), False, "any",
             dimension_names=(("a", "b"),))
    for bad in ("bad name", "", " ", "a\tb", "end\n", "nb\u00a0sp", "\u2003x"):
        with pytest.raises(ValueError):
            Mpnn(1, (layer,), CertaintyDescriptor(0), False, "any",
                 dimension_names=((bad,),))
    Mpnn(1, (layer,), CertaintyDescriptor(0), False, "any",
         dimension_names=(("a#1.2_x",),))


def test_certainty_descriptor_values():
    assert CertaintyDescriptor(0).value(7) == ONE
    assert CertaintyDescriptor(2).value(4) == rat(1, 16)
    with pytest.raises(ValueError):
        CertaintyDescriptor(-1)


# ---------------------------------------------------------------------------
# Evaluation


def test_zero_layer_network_returns_labels():
    net = Mpnn(2, (), CertaintyDescriptor(0), False, "any")
    g = Graph(3, 2, frozenset(), ((1, 0), (0, 1), (1, 1)))
    assert mpnn_eval(net, g) == [[ONE, ZERO], [ZERO, ONE], [ONE, ONE]]


def test_judge_builds_only_the_label_columns_the_first_comb_reads():
    # The p100000 network has 100,002 colours (the mark included) and reads
    # one of them: judging a 2-node member stays far below one column per
    # colour, and the trace still returns every label column.
    net, _report = compile(parse_formula("p100000"), "global-shallow")
    labels = [[0] * net.colours for _ in range(2)]
    labels[0][100000] = labels[0][net.mark_colour] = 1
    g = Graph(2, net.colours, frozenset(), tuple(map(tuple, labels)))
    tracemalloc.start()
    try:
        verdict = judge(net, PointedGraph(g, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.accepted and peak < 2**20
    (first, _state) = mpnn_eval_traced(net, g)
    assert len(first[0]) == net.colours and [row[100000] for row in first] == [1, 0]


def test_global_mean_projection_on_lemma_pair():
    net = _global_mean_net()
    g1, g2 = _lemma_pair()
    assert mpnn_eval(net, g1) == [[rat(1, 2)], [rat(1, 2)]]
    assert mpnn_eval(net, g2) == [[rat(1, 2)]] * 4


def test_eval_rejects_colour_mismatch():
    net = _global_mean_net()
    with pytest.raises(ValueError):
        mpnn_eval(net, Graph(2, 2, frozenset(), ((1, 0), (0, 1))))


def test_traced_evaluation_is_consistent():
    net = _global_mean_net()
    g1, _ = _lemma_pair()
    trace = mpnn_eval_traced(net, g1)
    assert len(trace) == len(net.layers) + 1
    assert trace[0] == [[ONE], [ZERO]]
    assert trace[-1] == mpnn_eval(net, g1)


def test_local_aggregation_follows_edge_direction():
    # Node 0 -> node 1; colour value 1 only on node 0.
    g = Graph(2, 1, frozenset({(0, 1)}), ((1,), (0,)))
    # State = [in-aggregate of colour 0] with sum aggregation.
    net = Mpnn(
        1,
        (_layer([(0, [(1, 1)])], 1, 1, loc_in=SUM, loc_out=SUM, glob=SUM),),
        CertaintyDescriptor(0),
        False,
        "any",
    )
    assert mpnn_eval(net, g) == [[ZERO], [ONE]]
    # Same network reading the out-aggregate instead.
    net_out = Mpnn(
        1,
        (_layer([(0, [(2, 1)])], 1, 1, loc_in=SUM, loc_out=SUM, glob=SUM),),
        CertaintyDescriptor(0),
        False,
        "any",
    )
    assert mpnn_eval(net_out, g) == [[ZERO], [ZERO]]


def test_evaluation_is_deterministic():
    rng = random.Random("exactness")
    net = random_mpnn(rng, 2, aggregators=(MEAN, SUM, MAX))
    pg = gen_pointed(11, 6, 2, rat(1, 2))
    assert mpnn_eval(net, pg.graph) == mpnn_eval(net, pg.graph)


# ---------------------------------------------------------------------------
# Judge


def test_judge_accepts_exact_certainty_value():
    # 1/16 on a 4-node graph with e=2.
    net = _const_net(rat(1, 16), exponent=2)
    g = Graph(4, 1, frozenset(), ((0,),) * 4)
    verdict = judge(net, PointedGraph(g, 0))
    assert verdict.kind == "accept" and verdict.value == rat(1, 16)


def test_judge_rejects_zero():
    net = _const_net(0, exponent=2)
    g = Graph(4, 1, frozenset(), ((0,),) * 4)
    assert judge(net, PointedGraph(g, 0)).kind == "reject"


def test_judge_flags_other_values_as_malformed():
    net = _const_net(rat(1, 3), exponent=2)
    g = Graph(4, 1, frozenset(), ((0,),) * 4)
    verdict = judge(net, PointedGraph(g, 0))
    assert verdict.kind == "malformed" and verdict.value == rat(1, 3)


def test_judge_inverted_semantics():
    g = Graph(4, 1, frozenset(), ((0,),) * 4)
    pg = PointedGraph(g, 0)
    # Target is 4^(-1) = 1/4.
    assert judge(_const_net(0, 1, inverted=True), pg).kind == "accept"
    assert judge(_const_net(rat(1, 4), 1, inverted=True), pg).kind == "reject"
    assert judge(_const_net(rat(1, 2), 1, inverted=True), pg).kind == "reject"
    assert judge(_const_net(rat(1, 8), 1, inverted=True), pg).kind == "malformed"


def _with_class(net, tag, mark_colour, formula=None):
    return Mpnn(
        colours=net.colours,
        layers=net.layers,
        certainty=net.certainty,
        inverted=net.inverted,
        required_class=tag,
        mark_colour=mark_colour,
        formula_text=formula,
    )


def _two_colour_const(tag, value=0, formula=None):
    layer = _layer([(value, [])], 2, 1)
    return Mpnn(
        colours=2,
        layers=(layer,),
        certainty=CertaintyDescriptor(0),
        inverted=False,
        required_class=tag,
        mark_colour=1,
        formula_text=formula,
    )


def test_judge_rechecks_marked_class():
    net = _two_colour_const("marked")
    unmarked = PointedGraph(Graph(2, 2, frozenset(), ((0, 0), (0, 0))), 0)
    with pytest.raises(ClassViolation):
        judge(net, unmarked)
    marked = PointedGraph(Graph(2, 2, frozenset(), ((0, 1), (0, 0))), 0)
    assert judge(net, marked).kind == "reject"


def test_judge_rechecks_strong_and_regular_classes():
    strong_net = _two_colour_const("strong")
    regular_net = _two_colour_const("regular-strong")
    tree = binary_out_tree()  # marked + self-loop on focus, but irregular
    assert judge(strong_net, tree).kind == "reject"
    with pytest.raises(ClassViolation):
        judge(regular_net, tree)
    triangle = directed_triangle()  # regular and strongly marked
    assert judge(regular_net, triangle).kind == "reject"


def test_judge_rechecks_tree_like_class():
    formula = print_formula(OUT_OUT)
    net = _two_colour_const("tree-like", formula=formula)
    assert judge(net, binary_out_tree()).kind == "reject"
    with pytest.raises(ClassViolation):
        judge(net, converging_diamond())


def test_class_formula_is_parsed_once_per_network(monkeypatch):
    import pmlc.mpnn as mpnn

    parses = []
    parse = mpnn.parse_formula
    monkeypatch.setattr(mpnn, "parse_formula", lambda text: parses.append(text) or parse(text))
    net = _two_colour_const("tree-like", formula=print_formula(OUT_OUT))
    for _ in range(3):
        check_required_class(net, binary_out_tree())
    assert parses == [print_formula(OUT_OUT)]
    assert net.formula is OUT_OUT
    assert net == _two_colour_const("tree-like", formula=print_formula(OUT_OUT))


def test_check_required_class_any_is_permissive():
    net = _const_net(0)
    check_required_class(net, PointedGraph(Graph(1, 1, frozenset(), ((0,),)), 0))


# ---------------------------------------------------------------------------
# Serialization


def _round_trip(net):
    text = print_mpnn(net)
    back = parse_mpnn(text)
    assert back == net
    assert print_mpnn(back) == text
    return text


def test_round_trip_simple_net():
    _round_trip(_global_mean_net())


def test_round_trip_with_metadata_and_dims():
    layer = _layer([(rat(-1, 3), [(0, rat(2, 7)), (5, 1)])], 2, 1, glob=MAX)
    net = Mpnn(
        colours=2,
        layers=(layer,),
        certainty=CertaintyDescriptor(1),
        inverted=True,
        required_class="strong",
        mark_colour=1,
        formula_text="<out>{x1 <= 0}(p0)",
        dimension_names=(("phi:flag",),),
    )
    text = _round_trip(net)
    assert "class strong" in text
    assert "markcolour 1" in text
    assert "formula <out>{x1 <= 0}(p0)" in text
    assert "dims phi:flag" in text


def test_round_trip_random_networks():
    rng = random.Random("mpnn-serialize")
    for _ in range(25):
        net = random_mpnn(rng, rng.randint(1, 3), aggregators=(MEAN, SUM, MAX))
        _round_trip(net)


def test_parse_shares_repeated_values():
    carry = (0, ((0, 1),))
    layers = tuple(_layer([carry, carry, (rat(1, 2), [(1, rat(1, 2))])], 3, 3) for _ in range(2))
    net = Mpnn(3, layers, CertaintyDescriptor(0), False, "any")
    text = _round_trip(net)
    back = parse_mpnn(text)
    neurons = [n for layer in back.layers for n in layer.comb.layers[0].neurons]
    terms = [t for _bias, ws in neurons for t in ws]
    values = [q for bias, ws in neurons for q in (bias, *(w for _i, w in ws))]
    # One object per distinct neuron line, term and rational of the file.
    assert len({id(n) for n in neurons}) == len(set(neurons)) == 2
    assert len({id(t) for t in terms}) == len(set(terms)) == 2
    assert len({id(q) for q in values}) == len(set(values)) == 3
    # Each parse has its own table: nothing is shared between two parses.
    again = parse_mpnn(text).layers[0].comb.layers[0].neurons[0]
    assert again == neurons[0] and again is not neurons[0]


def test_serialization_tolerates_comments_and_blank_lines():
    text = print_mpnn(_global_mean_net())
    noisy = "# header comment\n" + text.replace("layers 1", "layers 1\n\n# mid")
    assert parse_mpnn(noisy) == _global_mean_net()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("mpnn\n", "mpnnx\n", 1),
        lambda t: t.replace("inverted 0", "inverted 7"),
        lambda t: t.replace("mean", "median"),
        lambda t: t + "extra\n",
        lambda t: "\n".join(t.splitlines()[:-3]) + "\n",
        lambda t: t.replace("class any", "class nonsense"),
    ],
)
def test_serialization_rejects_mangled_input(mangle):
    text = print_mpnn(_global_mean_net())
    with pytest.raises(MpnnFormatError):
        parse_mpnn(mangle(text))


def test_parse_rejects_a_negative_layer_count():
    empty = Mpnn(1, (), CertaintyDescriptor(0), False, "any")
    assert parse_mpnn(print_mpnn(empty)) == empty
    with pytest.raises(MpnnFormatError, match="negative layer count"):
        parse_mpnn(print_mpnn(empty).replace("layers 0", "layers -1"))


def test_parse_rejects_a_negative_neuron_count():
    text = print_mpnn(_global_mean_net())
    line = next(x for x in text.splitlines() if x.startswith("fnnlayer"))
    bad = text.replace(line + "\n", line.rsplit(" ", 1)[0] + " -1\n", 1)
    with pytest.raises(MpnnFormatError, match="negative neuron count"):
        parse_mpnn(bad)


def test_parse_rejects_a_term_spelled_as_an_earlier_rational():
    # ``1/1`` was parsed as a weight first, so as a term it must still be
    # an error, not the shared weight.
    text = print_mpnn(_global_mean_net())
    line = next(x for x in text.splitlines() if x.startswith("neuron"))
    with pytest.raises(MpnnFormatError):
        parse_mpnn(text.replace(line, line + " 1/1", 1))


def test_parse_rejects_a_non_integer_mark_colour():
    text = print_mpnn(_global_mean_net())
    with pytest.raises(MpnnFormatError, match="bad mark colour"):
        parse_mpnn(text.replace("markcolour -", "markcolour x"))


# ---------------------------------------------------------------------------
# Invariance properties


def _relabel(g, perm):
    labels = [None] * g.node_count
    for v, row in enumerate(g.labels):
        labels[perm[v]] = row
    return Graph(
        g.node_count,
        g.colours,
        frozenset((perm[a], perm[b]) for a, b in g.edges),
        tuple(labels),
    )


def test_permutation_invariance_of_evaluation():
    rng = random.Random("permutation")
    for trial in range(30):
        colours = rng.randint(1, 3)
        pg = gen_pointed(trial, rng.randint(2, 7), colours, rat(1, 3))
        net = random_mpnn(rng, colours, aggregators=(MEAN, SUM, MAX))
        perm = list(range(pg.graph.node_count))
        rng.shuffle(perm)
        base = mpnn_eval(net, pg.graph)
        permuted = mpnn_eval(net, _relabel(pg.graph, perm))
        for v in range(pg.graph.node_count):
            assert permuted[perm[v]] == base[v]


def test_judgement_is_isomorphism_closed():
    rng = random.Random("iso-judge")
    net = _two_colour_const("marked", value=1)
    g = Graph(3, 2, frozenset({(0, 1), (1, 2)}), ((0, 1), (1, 0), (0, 0)))
    pg = PointedGraph(g, 0)
    base = judge(net, pg)
    for _ in range(10):
        perm = list(range(3))
        rng.shuffle(perm)
        moved = PointedGraph(_relabel(g, perm), perm[0])
        got = judge(net, moved)
        assert (got.kind, got.value) == (base.kind, base.value)


def test_mean_networks_cannot_split_the_lemma_pair():
    g1, g2 = _lemma_pair()
    rng = random.Random("mean-blind")
    for _ in range(100):
        net = random_mpnn(rng, 1, aggregators=(MEAN,))
        s1 = mpnn_eval(net, g1)
        s2 = mpnn_eval(net, g2)
        assert s1[0] == s2[0]


def test_random_mpnn_is_seed_deterministic():
    a = random_mpnn(random.Random("pin"), 2, aggregators=(MEAN, SUM, MAX))
    b = random_mpnn(random.Random("pin"), 2, aggregators=(MEAN, SUM, MAX))
    assert a == b
