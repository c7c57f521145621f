"""The integer evaluator against a plain Fraction reference, plus the lowering.

``reference_eval`` is the trusted base: a layer loop over ``Fraction`` with
no lowering, no copy lanes and no shared denominators.  The lowered
programs behind ``mpnn_eval``, ``mpnn_eval_traced``, ``judge`` and
``fnn_eval`` must agree with it exactly.
"""

import gc
import random
import traceback
import weakref
from fractions import Fraction
from math import gcd

import pytest

from pmlc.cli import main
from pmlc.compiler import ALL_TARGETS, compile
from pmlc.graphs import (
    Graph,
    PointedGraph,
    class_instance,
    gen_marked,
    gen_pointed,
    gen_regular_strongly_marked,
    gen_strongly_marked,
    gen_tree_like,
    neigh,
    print_graph,
)
from pmlc.mpnn import (
    Aggregator,
    CertaintyDescriptor,
    Mpnn,
    MpnnLayer,
    judge,
    mpnn_eval,
    mpnn_eval_traced,
    random_mpnn,
)
import pmlc.net as net_module
from pmlc.net import Fnn, FnnLayer, fnn_eval, rat
from pmlc.oracle import models

from targets import bank


def reference_aggregate(a, rows, dim):
    if not rows:
        return [Fraction(0)] * dim
    if a is Aggregator.MAX:
        return [max(row[i] for row in rows) for i in range(dim)]
    totals = [sum((row[i] for row in rows), Fraction(0)) for i in range(dim)]
    return totals if a is Aggregator.SUM else [t / len(rows) for t in totals]


def reference_eval(m, g):
    """Every state table, from the labels to the last layer."""
    states = [[Fraction(b) for b in g.labels[v]] for v in range(g.node_count)]
    tables = [states]
    for layer in m.layers:
        glob = reference_aggregate(layer.glob, states, layer.in_dim)
        nxt = []
        for v in range(g.node_count):
            ins = [states[u] for u in neigh(g, v, "in")]
            outs = [states[u] for u in neigh(g, v, "out")]
            values = (states[v] + reference_aggregate(layer.loc_in, ins, layer.in_dim)
                      + reference_aggregate(layer.loc_out, outs, layer.in_dim) + glob)
            for fl in layer.comb.layers:
                values = [max(bias + sum((w * values[i] for i, w in weights), Fraction(0)),
                              Fraction(0)) for bias, weights in fl.neurons]
            nxt.append(values)
        states = nxt
        tables.append(states)
    return tables


# ---------------------------------------------------------------------------
# Differential checks


@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
def test_bank_networks_match_reference_on_class_members(target):
    rng = random.Random(f"evaluator-{target.name}")
    for i, phi in enumerate(bank(target.name)):
        net, rep = compile(phi, target)
        for k in range(2):
            inst = class_instance(rep.required_class, 31 * i + k, rng, phi, max_nodes=10)
            want = reference_eval(net, inst.graph)
            assert mpnn_eval_traced(net, inst.graph) == want, (target.name, i, k)
            assert judge(net, inst).value == want[-1][inst.focus][-1]


def test_each_comb_runs_once_per_layer_and_each_port_dim_is_aggregated_once(monkeypatch):
    import pmlc.mpnn as mpnn

    calls = {"fnn_eval": 0, "aggregate": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mpnn, "fnn_eval", counting("fnn_eval", mpnn.fnn_eval))
    monkeypatch.setattr(mpnn, "aggregate", counting("aggregate", mpnn.aggregate))
    target = ALL_TARGETS[0]
    net, _rep = compile(bank(target.name)[0], target)
    g = gen_pointed(3, 30, net.colours, 0.1).graph
    assert mpnn_eval(net, g) == reference_eval(net, g)[-1]
    # Only the dims a program reads on the in, out and global ports.
    ported = sum(
        sum(1 for i in layer.comb.program.reads if i >= layer.in_dim) for layer in net.layers
    )
    assert calls == {"fnn_eval": len(net.layers), "aggregate": ported}
    assert 0 < ported < sum(3 * layer.in_dim for layer in net.layers)


@pytest.mark.parametrize("name, reads_neighbours", [("global-shallow", False), ("local-mixed-sum", True)])
def test_neighbour_lists_are_built_only_for_networks_that_read_them(monkeypatch, name, reads_neighbours):
    import pmlc.mpnn as mpnn

    calls = []
    monkeypatch.setattr(mpnn, "neigh", lambda *args: calls.append(args) or neigh(*args))
    target = next(t for t in ALL_TARGETS if t.name == name)
    net, _rep = compile(bank(name)[0], target)
    g = gen_pointed(3, 12, net.colours, 0.3).graph
    assert mpnn_eval(net, g) == reference_eval(net, g)[-1]
    assert bool(calls) == reads_neighbours


def test_random_networks_match_reference():
    rng = random.Random("evaluator-random")
    aggregators = tuple(Aggregator)
    for i in range(1200):
        colours = rng.randint(1, 3)
        net = random_mpnn(rng, colours, max_layers=3, max_dim=3, aggregators=aggregators)
        g = gen_pointed(i, rng.randint(1, 6), colours, rng.choice([0.2, 0.5, 0.9])).graph
        want = reference_eval(net, g)
        assert mpnn_eval(net, g) == want[-1], i
        assert mpnn_eval_traced(net, g) == want, i


def _global_mpnn(rng, colours, globs):
    """A random network whose combs read only ports 0 and 3 (own state
    and global aggregate), with the global aggregators ``globs``."""
    layers = []
    width = colours
    for glob in globs:
        dense = random_mpnn(rng, width, max_layers=1, max_dim=3).layers[0]
        neurons = tuple(
            (bias, tuple((i, w) for i, w in weights if i < width or i >= 3 * width))
            for bias, weights in dense.comb.layers[0].neurons
        )
        comb = Fnn((FnnLayer(4 * width, neurons),))
        layers.append(MpnnLayer(comb, dense.loc_in, dense.loc_out, glob, width, dense.out_dim))
        width = dense.out_dim
    return Mpnn(colours, tuple(layers), CertaintyDescriptor(0), False, "any")


def _label_graph(rng, n, colours, kinds):
    """``n`` nodes with random edges, whose labels are drawn from
    ``kinds`` distinct random label vectors."""
    pool = [tuple(rng.randint(0, 1) for _ in range(colours)) for _ in range(kinds)]
    labels = tuple(rng.choice(pool) for _ in range(n))
    edges = frozenset((rng.randrange(n), rng.randrange(n)) for _ in range(n)) if n else frozenset()
    return Graph(n, colours, edges, labels)


def test_global_networks_match_reference_on_label_classes():
    rng = random.Random("evaluator-classes")
    aggregators = list(Aggregator)
    seen = set()
    for i in range(300):
        colours = rng.randint(1, 3)
        globs = [rng.choice(aggregators) for _ in range(rng.randint(1, 3))]
        net = _global_mpnn(rng, colours, globs)
        assert not net.reads_neighbours
        seen.update(layer.glob for layer in net.layers)
        n = (0, 1, rng.randint(2, 12), rng.randint(2, 12))[i % 4]
        kinds = 1 if i % 8 == 3 else rng.randint(1, 4)
        g = _label_graph(rng, n, colours, kinds)
        want = reference_eval(net, g)
        assert mpnn_eval(net, g) == want[-1], i
        assert mpnn_eval_traced(net, g) == want, i
    assert seen == set(aggregators)


def _fnn_sizes(monkeypatch):
    """The ``n`` of every comb run, recorded."""
    import pmlc.mpnn as mpnn

    sizes = []
    run = mpnn.fnn_eval
    monkeypatch.setattr(
        mpnn, "fnn_eval", lambda comb, cols, n: sizes.append(n) or run(comb, cols, n)
    )
    return sizes


def test_global_networks_run_once_per_label_class(monkeypatch):
    target = next(t for t in ALL_TARGETS if t.name == "global-shallow")
    phi = bank(target.name)[0]
    net, _rep = compile(phi, target)
    assert net.required_class == "marked" and not net.reads_neighbours
    pg = gen_marked(5, 2000, net.colours, 0)
    assert not pg.graph.edges
    classes = len(set(pg.graph.labels))
    sizes = _fnn_sizes(monkeypatch)
    verdict = judge(net, pg)
    assert len(sizes) == len(net.layers) and max(sizes) <= classes < 2000
    assert verdict.kind == ("accept" if models(pg, phi) else "reject")


def test_networks_that_read_a_neighbour_port_run_on_every_node(monkeypatch):
    target = next(t for t in ALL_TARGETS if t.name == "local-mixed-sum")
    net, _rep = compile(bank(target.name)[0], target)
    assert net.reads_neighbours
    g = gen_pointed(5, 300, net.colours, 0.01).graph
    sizes = _fnn_sizes(monkeypatch)
    assert mpnn_eval(net, g) == reference_eval(net, g)[-1]
    assert sizes == [300] * len(net.layers)


# ---------------------------------------------------------------------------
# Lowering


def _fnn(*layers):
    """Layers given as (input_dim, [(bias, [(index, weight), ...]), ...])."""
    return Fnn(tuple(
        FnnLayer(dim, tuple((rat(b), tuple((i, rat(w)) for i, w in ws)) for b, ws in neurons))
        for dim, neurons in layers
    ))


def test_identity_carries_become_copy_lanes():
    net = _fnn((2, [(0, [(1, 1)]), (0, [(0, 1)])]), (2, [(0, [(0, 1)]), (0, [(1, 1)])]))
    prog = net.program
    assert prog.rows == ()
    assert prog.reads == (0, 1)
    assert prog.outputs == (1, 0)
    assert fnn_eval(net, [rat(1, 2), rat(2, 3)]) == [rat(2, 3), rat(1, 2)]
    # A copy lane's output is its source column object, not a copy.
    x, y = ([1, 4], 2), ([2, 0], 3)
    out = prog.run([x, y], 2)
    assert out[0] is y and out[1] is x


def test_neurons_that_feed_no_output_are_dropped():
    # Neuron 1 of the first layer reads input 2 and feeds nothing.
    net = _fnn((3, [(0, [(0, 1), (1, -1)]), (1, [(2, 5)])]), (2, [(0, [(0, 2)])]))
    prog = net.program
    assert prog.reads == (0, 1)
    assert len(prog.rows) == 2
    assert fnn_eval(net, [3, 1, 7]) == [rat(4)]
    assert fnn_eval(net, [1, 3, 7]) == [rat(0)]


def test_neurons_read_only_through_cancelling_weights_are_dropped():
    # The second stage reads the first neuron with weights 1 and -1.
    net = _fnn((4, [(1, [(0, -1)])]), (1, [(1, [(0, 1), (0, -1)])]))
    assert net.program.rows == ((1, (), 1),) and net.program.reads == ()
    # Two equal neurons are one row, so weights 1 and -1 on them cancel too.
    net = _fnn((2, [(1, [(0, 1)]), (1, [(0, 1)]), (0, [(1, 1)])]),
               (3, [(0, [(0, 1), (1, -1), (2, 1)])]))
    assert net.program.rows == () and net.program.reads == (1,)
    assert fnn_eval(net, [5, 2]) == [2]


def test_rational_weights_get_a_static_scale():
    net = _fnn((2, [(rat(1, 2), [(0, rat(1, 3)), (1, rat(-1, 4))])]), (1, [(0, [(0, rat(2, 5))])]))
    prog = net.program
    # Each row's scale is the lcm of its own weight and bias denominators.
    assert prog.rows == ((6, ((0, 4), (1, -3)), 12), (0, ((2, 2),), 5))
    x, y = rat(3, 7), rat(1, 5)
    inner = max(rat(1, 2) + x / 3 - y / 4, 0)
    assert fnn_eval(net, [x, y]) == [rat(2, 5) * inner]
    assert fnn_eval(net, [0, 100]) == [0]


def test_outputs_keep_one_denominator_per_column():
    net = _fnn((1, [(0, [(0, rat(1, 2))]), (0, [(0, rat(1, 3))]), (0, [(0, 1)])]))
    assert [scale for _b, _t, scale in net.program.rows] == [2, 3]
    assert fnn_eval(net, [rat(6, 5)]) == [rat(3, 5), rat(2, 5), rat(6, 5)]
    col = ([6, 0, 12], 5)
    assert net.program.run([col], 3) == [([3, 0, 6], 5), ([2, 0, 4], 5), col]


def test_fnn_eval_rejects_negative_inputs():
    net = _fnn((2, [(0, [(0, 1)])]))
    with pytest.raises(ValueError, match="nonnegative"):
        fnn_eval(net, [0, rat(-1, 3)])


def test_program_is_built_once_per_network():
    net = _fnn((1, [(1, [(0, 2)])]))
    assert net.program is net.program
    assert net == _fnn((1, [(1, [(0, 2)])]))


def test_each_output_row_is_reduced_by_one_gcd():
    net = _fnn((2, [(0, [(0, 2)]), (0, [(0, 1), (1, 1)])]))
    prog = net.program
    # 2x on 6/12 and 9/12 is 12/12 and 18/12: one gcd of 6 over the column.
    assert prog.run([([6, 9], 12), ([1, 2], 4)], 2)[0] == ([2, 3], 2)
    # x + y brings 1/4 and 2/4 to twelfths first: 9/12 and 15/12, gcd 3.
    assert prog.run([([6, 9], 12), ([1, 2], 4)], 2)[1] == ([3, 5], 4)
    assert prog.run([([0, 0], 12), ([0, 0], 4)], 2) == [([0, 0], 1), ([0, 0], 1)]


def test_constant_rows_fill_every_node():
    net = _fnn((1, [(rat(3, 2), []), (-1, [])]))
    assert net.program.reads == ()
    assert net.program.run([], 3) == [([3, 3, 3], 2), ([0, 0, 0], 1)]
    assert fnn_eval(net, [5]) == [rat(3, 2), 0]


# ---------------------------------------------------------------------------
# Large graphs: uneven degrees bring every mean to the lcm of the degrees


def _uneven_graph(rng, colours):
    """40 to 120 nodes: about a fifth isolated, the others with out-degrees
    0 to 6 drawn per node, so in- and out-degrees both vary."""
    n = rng.randint(40, 120)
    isolated = set(rng.sample(range(n), n // 5))
    live = [v for v in range(n) if v not in isolated]
    edges = frozenset((v, u) for v in live for u in rng.sample(live, rng.randint(0, 6)))
    labels = tuple(tuple(rng.randint(0, 1) for _ in range(colours)) for _ in range(n))
    return Graph(n, colours, edges, labels)


def _degree_spread(g):
    """(isolated nodes, distinct nonzero in-degrees, distinct nonzero out-degrees)."""
    ins, outs = g.adjacency
    lonely = sum(1 for a, b in zip(ins, outs) if not a and not b)
    return lonely, len({len(a) for a in ins} - {0}), len({len(b) for b in outs} - {0})


def test_random_networks_match_reference_on_large_uneven_graphs():
    rng = random.Random("evaluator-large")
    aggregators = tuple(Aggregator)
    for i in range(40):
        colours = rng.randint(1, 3)
        net = random_mpnn(rng, colours, max_layers=3, max_dim=3, aggregators=aggregators)
        g = _uneven_graph(rng, colours)
        lonely, in_degrees, out_degrees = _degree_spread(g)
        assert lonely >= 8 and in_degrees >= 3 and out_degrees >= 3
        want = reference_eval(net, g)
        assert mpnn_eval_traced(net, g) == want, i


def _large_member(net, phi, seed, rng):
    """A member of ``net``'s required class with 40 to 120 nodes, or the
    tree-like member that a branching of 5 to 8 gives."""
    tag, colours = net.required_class, net.colours
    n = rng.randint(40, 120)
    p = rng.choice([2, 3, 5]) / n
    if tag == "any":
        return gen_pointed(seed, n, colours, p)
    if tag == "marked":
        return gen_marked(seed, n, colours, p)
    if tag == "strong":
        return gen_strongly_marked(seed, n, colours, p)
    if tag == "regular-strong":
        d = rng.randint(1, 4)
        return gen_regular_strongly_marked(seed, n, colours, d, d)
    return gen_tree_like(seed, phi, rng.randint(5, 8), colours, tag == "regular-tree-like")


@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
def test_bank_networks_match_reference_on_large_class_members(target):
    # Judged on the two largest members drawn for the target's bank: the
    # tree-like generator builds large trees only for some nested formulas.
    rng = random.Random(f"evaluator-large-{target.name}")
    members = []
    for i, phi in enumerate(bank(target.name)):
        net, _rep = compile(phi, target)
        members.append((net, _large_member(net, phi, 97 * i + 5, rng)))
    members.sort(key=lambda item: -item[1].graph.node_count)
    for net, pg in members[:2]:
        want = reference_eval(net, pg.graph)
        assert mpnn_eval_traced(net, pg.graph) == want, target.name
        verdict = judge(net, pg)
        assert verdict.value == want[-1][pg.focus][-1]
        assert verdict.kind != "malformed", target.name


# ---------------------------------------------------------------------------
# Kernels: the generated code behind Program.run


WEIGHTS = (-2, -1, rat(-1, 2), rat(-2, 3), rat(1, 3), rat(1, 2), 1, rat(3, 2), 2, 3)
BIASES = (0, 0, 1, -1, rat(1, 2), rat(-3, 4), rat(5, 3))


def _random_fnn(rng):
    """Up to four layers mixing every kind of neuron the lowering treats
    apart: identity carries (copy lanes), duplicates (shared rows), neurons
    without weights (term-less rows), rational weights (row scales), and
    neurons that read one input twice, with weights that may cancel (rows
    kept alive only by a weight that merges to 0)."""
    width = rng.randint(1, 5)
    layers = []
    for _ in range(rng.randint(1, 4)):
        neurons = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.25:
                neurons.append((0, [(rng.randrange(width), 1)]))
            elif kind < 0.35 and neurons:
                neurons.append(rng.choice(neurons))
            elif kind < 0.45:
                neurons.append((rng.choice(BIASES), []))
            else:
                reads = rng.sample(range(width), rng.randint(1, width))
                weights = [(i, rng.choice(WEIGHTS)) for i in reads]
                if rng.random() < 0.4:
                    i, w = rng.choice(weights)
                    weights.append((i, -w if rng.random() < 0.5 else rng.choice(WEIGHTS)))
                neurons.append((rng.choice(BIASES), weights))
        layers.append((width, neurons))
        width = len(neurons)
    return _fnn(*layers)


def _fraction_eval(net, values):
    for fl in net.layers:
        values = [max(bias + sum((w * values[i] for i, w in weights), Fraction(0)), Fraction(0))
                  for bias, weights in fl.neurons]
    return values


@pytest.mark.parametrize("segment_rows", [None, 1, 3])
def test_kernels_match_a_fraction_evaluation_on_random_fnns(monkeypatch, segment_rows):
    if segment_rows is not None:
        # Short segments: every program runs as a chain of generated functions.
        monkeypatch.setattr(net_module, "SEGMENT_ROWS", segment_rows)
    rng = random.Random(f"kernel-differential-{segment_rows}")
    for case in range(400):
        net = _random_fnn(rng)
        prog = net.program
        n = case % 6  # 0 and 1 nodes included
        # Input columns with unrelated, unreduced denominators.
        cols = [([rng.choice([0, 0, 1, 2, 3, 5, 8]) for _ in range(n)], rng.choice([1, 2, 3, 4, 6, 9, 10]))
                for _ in prog.reads]
        out = prog.run(cols, n)
        assert len(out) == net.output_dim, case
        for v in range(n):
            values = [Fraction(0)] * net.input_dim
            for i, (nums, den) in zip(prog.reads, cols):
                values[i] = Fraction(nums[v], den)
            want = _fraction_eval(net, values)
            assert [Fraction(nums[v], den) for nums, den in out] == want, (case, v)
        for r, col in zip(prog.outputs, out):
            if r < len(prog.reads):
                assert col is cols[r], case  # a copy lane hands on its column
            else:
                nums, den = col
                assert len(nums) == n and gcd(den, *nums) == 1, case


def test_equal_programs_share_one_kernel_that_lives_only_with_them():
    a = _fnn((3, [(1, [(0, 2), (2, -1)])]))
    b = _fnn((3, [(1, [(0, 2), (2, -1)])]))
    # Another comb whose program reads inputs 1 and 2 in the same rows.
    c = _fnn((3, [(1, [(1, 2), (2, -1)])]))
    assert a.program == b.program
    assert a.program.kernel is b.program.kernel
    assert c.program != a.program
    assert c.program.kernel is a.program.kernel
    assert c.program.run([([1, 2], 1), ([0, 6], 3)], 2) == [([3, 3], 1)]
    kernel = weakref.ref(a.program.kernel)
    del a, b, c
    gc.collect()
    assert kernel() is None


def test_an_error_inside_a_kernel_has_a_readable_traceback():
    net = _fnn((2, [(1, [(0, 2), (1, -1)])]))
    code = net.program.kernel.__code__
    positions = list(code.co_positions())
    assert len(positions) == len(code.co_code) // 2
    with pytest.raises(ValueError) as info:
        net.program.run([([1], 1)], 1)  # one column short
    # Test runners read the line number of every frame.
    frame = traceback.extract_tb(info.value.__traceback__)[-1]
    assert frame.filename == "<pmlc.net kernel>" and isinstance(frame.lineno, int)


def _held_denominators(monkeypatch):
    """The unreduced denominators that kernels hand to ``_reduced``."""
    seen = []
    reduced = net_module._reduced

    def spy(nums, den):
        seen.append(den)
        return reduced(nums, den)

    monkeypatch.setattr(net_module, "_reduced", spy)
    return seen


def test_a_chain_of_rational_rows_keeps_one_scale(monkeypatch):
    seen = _held_denominators(monkeypatch)
    q = 10 ** 300
    # 256 stages of x + 1/q: each row's own scale is q, and so is its
    # scale over the row before it.
    net = _fnn(*[(1, [(rat(1, q), [(0, 1)])])] * 256)
    assert fnn_eval(net, [rat(1, 3)]) == [rat(1, 3) + rat(256, q)]
    assert seen and max(seen) == 3 * q


def test_rows_whose_scales_multiply_start_new_segments(monkeypatch):
    seen = _held_denominators(monkeypatch)
    q = 10 ** 300
    # Two lanes that stay 1 while, stage by stage, their static scale would
    # gain a factor q: each stage needs reduced columns to start from.
    a = (0, [(0, rat(1, q)), (1, rat(q - 1, q))])
    b = (0, [(0, rat(q - 1, q)), (1, rat(1, q))])
    net = _fnn(*[(2, [a, b])] * 256)
    assert fnn_eval(net, [1, 1]) == [1, 1]
    assert seen and max(seen).bit_length() <= 2 * q.bit_length() + 64


def test_a_weight_of_5000_digits_is_never_formatted():
    big = rat(10 ** 5000 + 1, 3)
    net = _fnn((2, [(0, [(0, big), (1, -1)])]))
    assert fnn_eval(net, [2, 1]) == [2 * big - 1]


def _write_network(tmp_path, layers):
    """A one-colour, one-layer network file whose comb has ``layers``, each
    a list of neuron lines; the comb reads the label on input 0."""
    lines = ["mpnn", "colours 1", "certainty 0", "inverted 0", "class any",
             "markcolour -", "formula -", "layers 1", "layer 0 sum sum sum 1 1",
             f"fnn {len(layers)}"]
    width = 4
    for neurons in layers:
        lines.append(f"fnnlayer {width} {len(neurons)}")
        lines += neurons
        width = len(neurons)
    path = tmp_path / "wide.mpnn"
    path.write_text("\n".join(lines + ["end"]) + "\n")
    return str(path)


def _value_line(capsys):
    out = capsys.readouterr()
    assert "RecursionError" not in out.err
    return out.out.splitlines()[-1]


@pytest.fixture
def one_node_graph(tmp_path):
    path = tmp_path / "one.graph"
    path.write_text(print_graph(PointedGraph(Graph(1, 1, frozenset(), ((1,),)), 0)))
    return str(path)


def test_eval_runs_a_comb_whose_weights_cancel(tmp_path, capsys):
    # The second neuron reads the first with weights 1 and -1: the first
    # feeds no output, although the layer lists it as read.
    net = _write_network(tmp_path, [["neuron 1/1 0:-1/1"], ["neuron 1/1 0:1/1 0:-1/1"]])
    graph = tmp_path / "zero.graph"
    graph.write_text(print_graph(PointedGraph(Graph(1, 1, frozenset(), ((0,),)), 0)))
    assert main(["eval", net, str(graph)]) == 0
    assert _value_line(capsys) == "value 1"


def test_eval_runs_a_neuron_of_10000_terms(tmp_path, capsys, one_node_graph):
    width = 10_000
    # 10,000 distinct rows x + k, then one neuron reading all of them.
    weights = [(k % 5 - 2, k % 7 + 1) for k in range(width)]
    first = [f"neuron {k}/1 0:1/1" for k in range(width)]
    last = ["neuron -3/1 " + " ".join(f"{k}:{p}/{q}" for k, (p, q) in enumerate(weights))]
    net = _write_network(tmp_path, [first, last])
    want = max(-3 + sum(Fraction(p, q) * (k + 1) for k, (p, q) in enumerate(weights)), 0)
    assert main(["eval", net, one_node_graph]) == 0
    assert _value_line(capsys) == f"value {want}"


def test_eval_runs_a_comb_of_5000_stages(tmp_path, capsys, one_node_graph):
    # x + 1/2, then y - 1/2, 2,500 times over: row scales of 2 at every stage.
    stages = [["neuron 1/2 0:1/1"] if k % 2 == 0 else ["neuron -1/2 0:1/1"] for k in range(5_000)]
    stages.append(["neuron 0/1 0:1/3"])
    net = _write_network(tmp_path, stages)
    assert main(["eval", net, one_node_graph]) == 0
    assert _value_line(capsys) == f"value {Fraction(1, 3)}"
