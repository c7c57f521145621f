"""Tests for the exact-rational ReLU networks and the circuit gadgets."""

import random

import pytest

from pmlc.graphs import Graph, PointedGraph
from pmlc.logic import And, Monomial, Not, PeanoAtom, Prop, parse_formula, parse_peano
from pmlc.net import (
    Circuit,
    Fnn,
    FnnLayer,
    ONE,
    ZERO,
    fnn_eval,
    format_rational,
    parse_rational,
    rat,
)
from pmlc.oracle import eval_peano, models

from formula_gen import random_boolean
from gadget_layers import atom_check_layer, boolean_layer, layer_inputs


# ---------------------------------------------------------------------------
# Rationals


def test_rational_arithmetic_is_exact():
    assert rat(1, 3) + rat(1, 3) + rat(1, 3) == ONE
    assert rat(2, 8) == rat(1, 4)
    assert rat(-2, 8) == rat(-1, 4)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3/4", rat(3, 4)),
        ("-2/8", rat(-1, 4)),
        ("5", rat(5)),
        ("0/7", ZERO),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


def test_format_rational_always_carries_denominator():
    assert format_rational(rat(5)) == "5/1"
    assert format_rational(rat(-2, 8)) == "-1/4"
    assert format_rational(0) == "0/1"


@pytest.mark.parametrize("text", ["1/2/3", "1/0", "1/-2", "x", ""])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_format_round_trip():
    rng = random.Random("rational-round-trip")
    for _ in range(200):
        q = rat(rng.randint(-300, 300), rng.randint(1, 300))
        assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# Fnn evaluation


def _layer(input_dim, rows):
    return FnnLayer(
        input_dim,
        tuple(
            (rat(bias), tuple((i, rat(w)) for i, w in weights))
            for bias, weights in rows
        ),
    )


def test_identity_chain_preserves_value():
    ident = Fnn(
        (
            _layer(1, [(0, [(0, 1)])]),
            _layer(1, [(0, [(0, 1)])]),
        )
    )
    assert fnn_eval(ident, [rat(1, 3)]) == [rat(1, 3)]


def test_relu_clamps_negative_sums():
    clamp = Fnn((_layer(1, [(-1, [(0, 1)])]),))
    assert fnn_eval(clamp, [rat(1, 2)]) == [ZERO]
    assert fnn_eval(clamp, [rat(3, 2)]) == [rat(1, 2)]


def test_fnn_eval_checks_input_dimension():
    ident = Fnn((_layer(2, [(0, [(0, 1)])]),))
    with pytest.raises(ValueError):
        fnn_eval(ident, [ONE])


def test_fnn_rejects_non_composing_layers():
    with pytest.raises(ValueError):
        Fnn((_layer(1, [(0, [(0, 1)])]), _layer(2, [(0, [(0, 1)])])))


def test_fnn_rejects_out_of_range_weight_index():
    with pytest.raises(ValueError):
        _layer(1, [(0, [(1, 1)])])


def test_fnn_needs_a_layer():
    with pytest.raises(ValueError):
        Fnn(())


# ---------------------------------------------------------------------------
# Circuit gadgets (every scale arrives as an input, as in compiled layers)


def _gadget(arity, make):
    """A one-gadget Fnn: ``make(circuit, *input_refs)`` over ``arity`` inputs."""
    c = Circuit({f"x{i}": i for i in range(arity)})
    c.output("out", make(c, *(c.input(f"x{i}") for i in range(arity))))
    return c.build()


def _run(net, *inputs):
    (out,) = fnn_eval(net, list(inputs))
    return out


NOT_AT = _gadget(2, lambda c, s, x: c.not_at(s, x))
AND_AT = _gadget(3, lambda c, s, x, y: c.and_at(s, x, y))
MASK01 = _gadget(2, lambda c, y, b: c.mask01(y, b))
MIN = _gadget(2, lambda c, x, y: c.min_(x, y))
FLAG_AT = _gadget(2, lambda c, s, b: c.flag_at(s, b))


def test_gadget_not_truth_table():
    assert _run(NOT_AT, 1, 0) == ONE
    assert _run(NOT_AT, 1, 1) == ZERO


def test_gadget_not_scaled():
    s = rat(1, 8)
    assert _run(NOT_AT, s, 0) == s
    assert _run(NOT_AT, s, s) == ZERO


def test_gadget_and_truth_table():
    assert _run(AND_AT, 1, 0, 0) == ZERO
    assert _run(AND_AT, 1, 0, 1) == ZERO
    assert _run(AND_AT, 1, 1, 0) == ZERO
    assert _run(AND_AT, 1, 1, 1) == ONE


def test_gadget_and_scaled():
    s = rat(1, 8)
    assert _run(AND_AT, s, s, s) == s
    assert _run(AND_AT, s, 0, s) == ZERO
    assert _run(AND_AT, s, 0, 0) == ZERO


@pytest.mark.parametrize("den", [1, 2, 3, 7, 64])
def test_boolean_gadgets_exhaustive_grid(den):
    scale = rat(1, den)
    for a in (ZERO, scale):
        out = _run(NOT_AT, scale, a)
        assert out == (scale if a == ZERO else ZERO)
        assert out >= 0
        for b in (ZERO, scale):
            out = _run(AND_AT, scale, a, b)
            assert out == (scale if a == b == scale else ZERO)
            assert out >= 0


# ---------------------------------------------------------------------------
# Masked multiplication, min, flag lift


def test_gadget_mask_mul_examples():
    assert _run(MASK01, rat(3, 4), 1) == rat(3, 4)
    assert _run(MASK01, rat(3, 4), 0) == ZERO
    assert _run(MASK01, rat(1, 16), 1) == rat(1, 16)
    assert _run(MASK01, 1, 1) == ONE
    assert _run(MASK01, 0, 0) == ZERO


def test_gadget_mask_mul_grid():
    for num in range(65):
        y = rat(num, 64)
        for b in (0, 1):
            assert _run(MASK01, y, b) == y * b


def test_gadget_min_examples():
    r2 = rat(1, 16)
    assert _run(MIN, 0, r2) == ZERO
    assert _run(MIN, rat(1, 32), r2) == rat(1, 32)
    assert _run(MIN, rat(1, 16), r2) == rat(1, 16)
    assert _run(MIN, rat(1, 2), r2) == rat(1, 16)
    assert _run(MIN, 1, r2) == rat(1, 16)


def test_gadget_min_grid():
    for den in (1, 4, 64):
        r2 = rat(1, den)
        for num in range(0, 130, 3):
            x = rat(num, 64)
            assert _run(MIN, x, r2) == min(x, r2)


def test_gadget_shift_examples():
    """``flag_at`` lifts a 0/1 flag to {0, scale}."""
    assert _run(FLAG_AT, rat(1, 64), 0) == ZERO
    assert _run(FLAG_AT, rat(1, 64), 1) == rat(1, 64)
    assert _run(FLAG_AT, rat(1, 9), 1) == rat(1, 9)
    assert _run(FLAG_AT, rat(1, 9), 0) == ZERO
    # Scale 1 degenerates to the identity on flags.
    assert _run(FLAG_AT, ONE, 1) == ONE
    assert _run(FLAG_AT, ONE, 0) == ZERO


# ---------------------------------------------------------------------------
# Term check: LayerPlan.atom_check over monomial dims, unit U and scale R2


def _check(atom, r1, r2, counts):
    """Run atom_check with m_h = r1 * counts[h], U = r1 and R2 = r2."""
    net = atom_check_layer(atom)
    state = [r1 * m for m in counts] + [r1, r2]
    (out,) = fnn_eval(net, layer_inputs(state))
    return out


def test_term_check_single_variable_atom():
    # x1 <= 1 with unit 1/4 and check scale 1/16.
    atom = parse_peano("x1 <= 1")
    # m1 = 0, 1: satisfied -> r2.
    assert _check(atom, rat(1, 4), rat(1, 16), [0]) == rat(1, 16)
    assert _check(atom, rat(1, 4), rat(1, 16), [1]) == rat(1, 16)
    # m1 = 2, 3: violated -> 0.
    assert _check(atom, rat(1, 4), rat(1, 16), [2]) == ZERO
    assert _check(atom, rat(1, 4), rat(1, 16), [3]) == ZERO


def test_term_check_equal_scales_saturate():
    atom = parse_peano("x1 <= 2")
    assert _check(atom, ONE, ONE, [2]) == ONE
    assert _check(atom, ONE, ONE, [3]) == ZERO
    assert _check(atom, ONE, ONE, [7]) == ZERO


def test_term_check_negative_coefficients():
    # -x1 <= 2 holds for every natural x1.
    atom = PeanoAtom((Monomial(-1, (1,)),), 2)
    for m in range(5):
        assert _check(atom, rat(1, 2), rat(1, 2), [m]) == rat(1, 2)


_SWEEP_ATOMS = [
    "x1 <= 1",
    "x1*x1*x1 - x2*x2*x3 <= 0",
    "x1*x1 - x2*x2*x2 <= 1",
    "2*x1 + 3*x2 <= 7",
    "0 - x1 <= 2",
]

_SCALE_PAIRS = [
    (rat(1), rat(1)),
    (rat(1), rat(1, 2)),
    (rat(1), rat(1, 16)),
    (rat(1, 2), rat(1, 2)),
    (rat(1, 2), rat(1, 16)),
    (rat(1, 16), rat(1, 16)),
]


def _assignments(arity, top=4):
    if arity == 0:
        yield ()
        return
    for head in range(top + 1):
        for rest in _assignments(arity - 1, top):
            yield (head,) + rest


@pytest.mark.parametrize("text", _SWEEP_ATOMS)
def test_term_check_matches_arithmetic_oracle(text):
    from pmlc.logic import peano_arity

    atom = parse_peano(text)
    arity = peano_arity(atom)
    net = atom_check_layer(atom)
    for r1, r2 in _SCALE_PAIRS:
        for assignment in _assignments(arity):
            state = []
            for mono in atom.monomials:
                value = 1
                for v in mono.variables:
                    value *= assignment[v - 1]
                state.append(r1 * value)
            expected = r2 if eval_peano(atom, assignment) else ZERO
            assert fnn_eval(net, layer_inputs(state + [r1, r2])) == [expected]


# ---------------------------------------------------------------------------
# Circuit builder


def test_circuit_pads_depth_with_identities():
    c = Circuit({"x": 0})
    deep = c.relu([(1, c.relu([(1, c.input("x"))]))])  # depth 2
    mixed = c.relu([(1, deep), (1, c.input("x"))], bias=rat(1, 3))
    c.output("out", mixed)
    net = c.build()
    assert fnn_eval(net, [rat(1, 6)]) == [rat(1, 6) + rat(1, 6) + rat(1, 3)]


def test_circuit_min_of_two_refs():
    c = Circuit({"x": 0, "y": 1})
    c.output("out", c.min_(c.input("x"), c.input("y")))
    net = c.build()
    assert fnn_eval(net, [rat(3, 4), rat(1, 4)]) == [rat(1, 4)]
    assert fnn_eval(net, [rat(1, 4), rat(3, 4)]) == [rat(1, 4)]
    assert fnn_eval(net, [rat(2, 7), rat(2, 7)]) == [rat(2, 7)]


def test_circuit_outputs_follow_declaration_order():
    c = Circuit({"x": 0})
    x = c.input("x")
    a = c.relu([(2, x)])
    b = c.relu([(3, x)])
    c.output("triple", b)
    c.output("double", a)
    assert c.output_names() == ("triple", "double")
    net = c.build()
    assert fnn_eval(net, [ONE]) == [rat(3), rat(2)]


def test_circuit_merges_duplicate_term_indices():
    c = Circuit({"x": 0})
    x = c.input("x")
    c.output("out", c.relu([(1, x), (1, x)]))
    assert fnn_eval(c.build(), [rat(1, 2)]) == [ONE]


def test_circuit_width_checks():
    c = Circuit({"x": 0, "y": 7})
    c.output("out", c.relu([(1, c.relu([], rat(5, 3)))]))
    net = c.build()
    assert net.input_dim == 8
    assert fnn_eval(net, [0] * 8) == [rat(5, 3)]

    with pytest.raises(ValueError):
        Circuit({"x": 0}).build()


def test_circuit_raw_input_output_is_lifted():
    c = Circuit({"x": 0, "y": 1})
    c.output("x", c.input("x"))
    net = c.build()
    assert fnn_eval(net, [rat(2, 5), ONE]) == [rat(2, 5)]


def test_circuit_merges_outputs_into_the_last_stage():
    # Outputs at depths 3 and 1, an input passed straight through, and one
    # ref declared under two names.  The deepest output sets the depth, no
    # selection layer follows it, and the last layer holds the outputs'
    # own neurons in declaration order.
    c = Circuit({"x": 0, "y": 1})
    x, y = c.input("x"), c.input("y")
    s = c.relu([(1, x), (1, y)], bias=rat(-1, 2))  # depth 1
    m = c.min_(s, y)  # depth 3
    for name, ref in (("min", m), ("sum", s), ("x", x), ("min-again", m)):
        c.output(name, ref)
    net = c.build()
    assert len(net.layers) == 3 and net.output_dim == 4
    last = net.layers[-1].neurons
    assert last[0] == last[3] and last[0] != last[1]
    rng = random.Random(11)
    for _ in range(60):
        a, b = (rat(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(2))
        total = max(a + b - rat(1, 2), ZERO)
        assert fnn_eval(net, [a, b]) == [min(total, b), total, a, min(total, b)]
    # One row per distinct neuron: the sum, relu(sum - y) and the min,
    # declared twice; every carry is a copy lane.
    prog = net.program
    assert len(prog.rows) == 3
    assert prog.outputs[0] == prog.outputs[3]


def test_lower_shares_rows_with_the_same_merged_terms():
    # Three spellings of relu(1/2 + x0 + 2*x1), in one layer and the next
    # over the same input registers, and one neuron that differs only in
    # its bias.
    same = (
        (rat(1, 2), ((0, ONE), (1, rat(2)))),
        (rat(1, 2), ((1, ONE), (0, ONE), (1, ONE))),
    )
    other = (rat(1, 3), ((0, ONE), (1, rat(2))))
    first = FnnLayer(2, same + (other, (ZERO, ((0, ONE),)), (ZERO, ((1, ONE),))))
    second = FnnLayer(5, (
        (ZERO, ((0, ONE),)),
        (ZERO, ((1, ONE),)),
        (ZERO, ((2, ONE),)),
        (rat(1, 2), ((3, ONE), (4, rat(2)))),
    ))
    net = Fnn((first, second))
    prog = net.program
    assert len(prog.rows) == 2
    assert prog.outputs[0] == prog.outputs[1] == prog.outputs[3] != prog.outputs[2]
    v = [rat(1, 3), rat(5, 7)]
    want = rat(1, 2) + v[0] + 2 * v[1]
    assert fnn_eval(net, v) == [want, want, want - rat(1, 6), want]


# ---------------------------------------------------------------------------
# Boolean layer (the builders' write_flags)


def _single_node(bits):
    return PointedGraph(
        Graph(1, len(bits), frozenset(), (tuple(bits),)), 0
    )


def test_boolean_layer_example():
    f = And(Not(Prop(0)), Prop(1))
    net = boolean_layer([f], 2)
    assert net.input_dim == 8
    assert fnn_eval(net, [0, 1] + [0] * 6) == [ONE]
    assert fnn_eval(net, [1, 1] + [0] * 6) == [ZERO]


def test_boolean_layer_ignores_aggregation_inputs():
    f = parse_formula("(p0 | p1)")
    net = boolean_layer([f], 2)
    junk = [rat(7, 3), rat(9), rat(1, 13), rat(4), rat(5), rat(6)]
    assert fnn_eval(net, [1, 0] + junk) == fnn_eval(net, [1, 0] + [0] * 6)


def test_boolean_layer_rejects_modal_formulas():
    with pytest.raises(ValueError):
        boolean_layer([parse_formula("<top>{x1 <= 0}(p0)")], 1)


@pytest.mark.parametrize("colours", [1, 2, 3, 4])
def test_boolean_layer_matches_oracle_on_all_labels(colours):
    rng = random.Random(f"boolean-layer-{colours}")
    formulas = [Prop(0), Not(Prop(0))]
    if colours >= 2:
        formulas.append(parse_formula("(p0 | p1)"))
        formulas.append(And(Prop(0), Not(Prop(1))))
    formulas.extend(random_boolean(rng, colours) for _ in range(4))
    formulas = list(dict.fromkeys(formulas))  # one flag dim per formula
    net = boolean_layer(formulas, colours)
    for mask in range(2 ** colours):
        bits = [(mask >> i) & 1 for i in range(colours)]
        pg = _single_node(bits)
        got = fnn_eval(net, layer_inputs(bits))
        for f, value in zip(formulas, got):
            assert value in (ZERO, ONE)
            assert (value == ONE) == models(pg, f)


def test_boolean_layer_output_order_matches_input_order():
    net = boolean_layer([Prop(1), Prop(0)], 2)
    assert fnn_eval(net, [1, 0] + [0] * 6) == [ZERO, ONE]


# ---------------------------------------------------------------------------
# Global nonnegativity


def test_every_gadget_output_is_nonnegative_on_random_inputs():
    rng = random.Random("nonneg")
    atom = PeanoAtom((Monomial(2, (1,)), Monomial(-1, (2,))), 3)
    gadgets = [
        (NOT_AT, 2),
        (AND_AT, 3),
        (MASK01, 2),
        (MIN, 2),
        (FLAG_AT, 2),
        (atom_check_layer(atom), 16),
    ]
    for net, arity in gadgets:
        for _ in range(50):
            inputs = [rat(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(arity)]
            for value in fnn_eval(net, inputs):
                assert value >= 0
