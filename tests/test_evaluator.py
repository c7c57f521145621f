"""The integer evaluator against a plain Fraction reference, plus the lowering.

``reference_eval`` is the trusted base: a layer loop over ``Fraction`` with
no lowering, no copy lanes and no shared denominators.  The lowered
programs behind ``mpnn_eval``, ``mpnn_eval_traced``, ``judge`` and
``fnn_eval`` must agree with it exactly.
"""

import random
from fractions import Fraction

import pytest

from pmlc.compiler import ALL_TARGETS, compile
from pmlc.graphs import class_instance, gen_pointed, neigh
from pmlc.mpnn import (
    Aggregator,
    judge,
    mpnn_eval,
    mpnn_eval_traced,
    random_mpnn,
)
from pmlc.net import Fnn, FnnLayer, fnn_eval, rat

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


def test_neurons_that_feed_no_output_are_dropped():
    # Neuron 1 of the first layer reads input 2 and feeds nothing.
    net = _fnn((3, [(0, [(0, 1), (1, -1)]), (1, [(2, 5)])]), (2, [(0, [(0, 2)])]))
    prog = net.program
    assert prog.reads == (0, 1)
    assert len(prog.rows) == 2
    assert fnn_eval(net, [3, 1, 7]) == [rat(4)]
    assert fnn_eval(net, [1, 3, 7]) == [rat(0)]


def test_rational_weights_get_a_static_scale():
    net = _fnn((2, [(rat(1, 2), [(0, rat(1, 3)), (1, rat(-1, 4))])]), (1, [(0, [(0, rat(2, 5))])]))
    prog = net.program
    assert prog.scale == 30
    x, y = rat(3, 7), rat(1, 5)
    inner = max(rat(1, 2) + x / 3 - y / 4, 0)
    assert fnn_eval(net, [x, y]) == [rat(2, 5) * inner]
    assert fnn_eval(net, [0, 100]) == [0]


def test_outputs_at_different_scales_share_one_denominator():
    net = _fnn((1, [(0, [(0, rat(1, 2))]), (0, [(0, rat(1, 3))]), (0, [(0, 1)])]))
    assert net.program.scale == 6
    assert fnn_eval(net, [rat(6, 5)]) == [rat(3, 5), rat(2, 5), rat(6, 5)]


def test_fnn_eval_rejects_negative_inputs():
    net = _fnn((2, [(0, [(0, 1)])]))
    with pytest.raises(ValueError, match="nonnegative"):
        fnn_eval(net, [0, rat(-1, 3)])


def test_program_is_built_once_per_network():
    net = _fnn((1, [(1, [(0, 2)])]))
    assert net.program is net.program
    assert net == _fnn((1, [(1, [(0, 2)])]))


def test_program_outputs_are_reduced_by_one_gcd():
    net = _fnn((2, [(0, [(0, 1)]), (0, [(1, 1)])]))
    assert net.program.run([6, 9], 12) == ([2, 3], 4)
    assert net.program.run([0, 0], 12) == ([0, 0], 1)
