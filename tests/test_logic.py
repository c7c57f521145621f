"""Parser, printer, normalization, metrics, traces, and fragment tags."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from pmlc.logic import (
    And,
    BOT_FORMULA,
    Modal,
    Modality,
    Monomial,
    Not,
    ParseError,
    PeanoAnd,
    PeanoAtom,
    PeanoNot,
    Prop,
    TOP_FORMULA,
    classify,
    degree,
    flatten_global,
    max_prop,
    modal_depth,
    parse_formula,
    parse_peano,
    peano_arity,
    peano_degree,
    print_formula,
    print_peano,
    subformulas_ordered,
    trace_index,
    traces,
)

EX_CUBIC = "<top,top,top>{x1*x1*x1 - x2*x2*x3 <= 0}(p0,p1,p2)"
EX_EDGE = "<in,out>{x1*x1 - x2*x2*x2 <= 1}(p0,(p1 & !p2))"
EX_MIXED = (
    "<in,top,id>{((x1*x1 + x2*x3 >= 16) & (x2*x2*x2 + x1*(1 - x3) <= 64))}"
    "((p0 & p1),p1,(p2 | p3))"
)
EX_NESTED = "<out>{x1 >= 1}(<out>{x1 >= 1}(p0))"


# ---------------------------------------------------------------------------
# Parsing and normalization


def test_parse_prop_and_booleans():
    assert parse_formula("p0") == Prop(0)
    assert parse_formula("!p3") == Not(Prop(3))
    assert parse_formula("(p0 & p1)") == And(Prop(0), Prop(1))
    # Disjunction is sugar for !(!a & !b).
    assert parse_formula("(p0 | p1)") == Not(And(Not(Prop(0)), Not(Prop(1))))


def test_parse_accepts_redundant_parentheses():
    assert parse_formula("((p0))") == Prop(0)
    assert parse_formula("(((p0 & p1)))") == And(Prop(0), Prop(1))
    assert parse_peano("((x1 <= 2))") == parse_peano("x1 <= 2")


def test_parse_modal_node():
    phi = parse_formula("<in,out>{x1 + x2 <= 3}(p0,p1)")
    assert isinstance(phi, Modal)
    assert phi.modalities == (Modality.E_IN, Modality.E_OUT)
    assert phi.children == (Prop(0), Prop(1))
    assert phi.constraint == PeanoAtom(
        (Monomial(1, (1,)), Monomial(1, (2,))), 3
    )


def test_parse_all_modalities():
    phi = parse_formula("<id,in,out,top>{x4 <= 1}(p0,p0,p0,p0)")
    assert isinstance(phi, Modal)
    assert phi.modalities == (
        Modality.ID,
        Modality.E_IN,
        Modality.E_OUT,
        Modality.TOP,
    )


def test_comparison_rewrites():
    # ζ >= c  ↦  !(ζ <= c-1)
    assert parse_peano("x1 >= 2") == PeanoNot(PeanoAtom((Monomial(1, (1,)),), 1))
    # ζ < c  ↦  ζ <= c-1
    assert parse_peano("x1 < 3") == PeanoAtom((Monomial(1, (1,)),), 2)
    # ζ > c  ↦  !(ζ <= c)
    assert parse_peano("x1 > 3") == PeanoNot(PeanoAtom((Monomial(1, (1,)),), 3))
    # ζ = c  ↦  (ζ <= c) & !(ζ <= c-1)
    assert parse_peano("x1 = 2") == PeanoAnd(
        PeanoAtom((Monomial(1, (1,)),), 2),
        PeanoNot(PeanoAtom((Monomial(1, (1,)),), 1)),
    )


def test_atom_normalization_merges_and_sorts():
    # x2*x1 and x1*x2 are the same monomial; constants move to the bound.
    assert parse_peano("x1*x2 + x2*x1 <= 3") == PeanoAtom(
        (Monomial(2, (1, 2)),), 3
    )
    assert parse_peano("x1 + 1 <= 3") == PeanoAtom((Monomial(1, (1,)),), 2)
    assert parse_peano("x2 + x1 <= 0") == PeanoAtom(
        (Monomial(1, (1,)), Monomial(1, (2,))), 0
    )
    # Monomials sort by degree first, then variables.
    assert parse_peano("x3*x3 + x1 <= 5") == PeanoAtom(
        (Monomial(1, (1,)), Monomial(1, (3, 3))), 5
    )
    # Cancellation may leave a constant atom.
    assert parse_peano("x1 - x1 <= 0") == PeanoAtom((), 0)


def test_parse_distributes_products():
    # x1*(1 - x3) = x1 - x1*x3
    psi = parse_peano("x1*(1 - x3) <= 4")
    assert psi == PeanoAtom((Monomial(1, (1,)), Monomial(-1, (1, 3))), 4)


def test_parse_constant_comparisons():
    assert parse_peano("2 <= 3") == PeanoAtom((), 1)
    assert parse_peano("0 <= 0") == PeanoAtom((), 0)


@pytest.mark.parametrize(
    "text",
    [
        "p0 &",  # trailing operator
        "(p0 & p1",  # unbalanced
        "<zap>{x1 <= 1}(p0)",  # unknown modality
        "<in>{x2 <= 1}(p0)",  # constraint variable beyond positions
        "<in,out>{x1 <= 1}(p0)",  # modality/child count mismatch
        "<in>{x1 <= x2}(p0,p1)",  # non-constant right-hand side
        "<in>{x1 ! 2}(p0)",  # not a comparison
        "p0 p1",  # trailing input
        "q0",  # unknown word
        "",  # empty input
        "<>{x1 <= 1}(p0)",  # no modalities
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("(p0 & q1)")
    assert exc.value.pos == 6


# ---------------------------------------------------------------------------
# Printing round-trips


@pytest.mark.parametrize("text", [EX_CUBIC, EX_EDGE, EX_MIXED, EX_NESTED])
def test_examples_round_trip(text):
    phi = parse_formula(text)
    assert parse_formula(print_formula(phi)) == phi


def test_print_canonical_forms():
    assert print_formula(parse_formula("p2")) == "p2"
    assert print_formula(parse_formula("(p0 | p1)")) == "!(!p0 & !p1)"
    assert print_peano(parse_peano("x1 >= 2")) == "!x1 <= 1"
    # Negative monomials print after positive ones; no unary minus needed.
    assert print_peano(parse_peano("0 - x1 + x2 <= 1")) == "x2 - x1 <= 1"
    assert print_peano(parse_peano("0 - x1 <= 2")) == "0 - x1 <= 2"
    assert print_peano(parse_peano("2*x1*x2 <= 0")) == "2*x1*x2 <= 0"
    assert print_peano(parse_peano("x1 - x1 <= 0")) == "0 <= 0"
    # Negative bounds (from rewrites) survive the round trip.
    assert parse_peano(print_peano(parse_peano("x1 < 0"))) == parse_peano("x1 < 0")


# ---------------------------------------------------------------------------
# Metrics


def test_modal_depth_and_degree():
    assert modal_depth(parse_formula("p0")) == 0
    assert modal_depth(parse_formula("(!p0 & p1)")) == 0
    assert modal_depth(parse_formula(EX_CUBIC)) == 1
    assert modal_depth(parse_formula(EX_NESTED)) == 2
    assert degree(parse_formula("p0")) == 0
    assert degree(parse_formula(EX_CUBIC)) == 3
    assert degree(parse_formula(EX_EDGE)) == 3
    assert degree(parse_formula(EX_MIXED)) == 3
    assert degree(parse_formula(EX_NESTED)) == 1


def test_peano_arity_and_degree():
    assert peano_arity(parse_peano("x1*x3 <= 2")) == 3
    assert peano_arity(parse_peano("0 <= 1")) == 0
    assert peano_degree(parse_peano("x1*x1 + x2 <= 0")) == 2


def test_max_prop():
    assert max_prop(parse_formula("p0")) == 0
    assert max_prop(parse_formula(EX_MIXED)) == 3


def test_deep_formulas_need_no_recursion():
    # Built through the constructors, far past the parser's nesting bound:
    # hashing, comparing, listing, measuring and printing must not recurse.
    chains = []
    for _ in range(2):
        phi = Prop(2)
        for _ in range(5000):
            phi = Not(phi)
        chains.append(phi)
    phi, twin = chains
    assert twin is phi and twin == phi and hash(twin) == hash(phi)
    assert phi != Not(phi) and phi in {twin}
    order = subformulas_ordered(phi)
    assert len(order) == 5001 and order[0] is Prop(2) and order[-1] is phi
    assert modal_depth(phi) == 0 and max_prop(phi) == 2
    wrapped = Modal((Modality.TOP,), parse_peano("x1 >= 1"), (phi,))
    assert modal_depth(wrapped) == 1 and degree(wrapped) == 1
    assert print_formula(wrapped) == "<top>{!x1 <= 0}(" + "!" * 5000 + "p2)"
    # Interning: equal formulas are one object, however they were built.
    assert parse_formula(EX_MIXED) is parse_formula(EX_MIXED)
    assert parse_peano("x1*x2 <= 3") is parse_peano("x2*x1 <= 3")
    assert Modal([Modality.E_IN], PeanoAtom((), 0), [Prop(0)]) is parse_formula(
        "<in>{0 <= 0}(p0)"
    )
    with pytest.raises(AttributeError):
        Prop(0).index = 1


# ---------------------------------------------------------------------------
# Subformula order


@pytest.mark.parametrize("text", [EX_CUBIC, EX_EDGE, EX_MIXED, EX_NESTED])
def test_subformulas_ordered_properties(text):
    phi = parse_formula(text)
    order = subformulas_ordered(phi)
    assert order[-1] == phi
    assert len(set(order)) == len(order)
    pos = {s: i for i, s in enumerate(order)}
    flat_zone = True
    for i, s in enumerate(order):
        if modal_depth(s) > 0:
            flat_zone = False
        else:
            assert flat_zone, "modal-free entries must precede modal ones"
        if isinstance(s, Not):
            assert pos[s.operand] < i
        elif isinstance(s, And):
            assert pos[s.left] < i and pos[s.right] < i
        elif isinstance(s, Modal):
            assert all(pos[c] < i for c in s.children)


def test_subformulas_ordered_deduplicates():
    phi = parse_formula("(p0 & p0)")
    assert subformulas_ordered(phi) == (Prop(0), phi)


# ---------------------------------------------------------------------------
# Traces


IN, OUT = Modality.E_IN, Modality.E_OUT


def test_traces_single_layer():
    phi = parse_formula(EX_EDGE)
    assert tuple(traces(phi)) == ((IN,), (OUT,))


def test_traces_skip_non_edge_positions():
    phi = parse_formula(EX_MIXED)
    assert tuple(traces(phi)) == ((IN,),)
    phi = parse_formula(EX_CUBIC)
    assert tuple(traces(phi)) == ()


def test_traces_nested():
    phi = parse_formula(EX_NESTED)
    assert tuple(traces(phi)) == ((OUT,), (OUT, OUT))


def test_traces_require_critical_depth():
    # The inner modal node sits under a depth-0 gap: its own chain is the
    # only depth-critical one, and non-critical nesting adds no traces.
    phi = parse_formula("(<in>{x1 >= 1}(p0) & <out>{x1 >= 1}(<out>{x1 >= 1}(p0)))")
    assert modal_depth(phi) == 2
    assert tuple(traces(phi)) == ((OUT,), (OUT, OUT))


def test_traces_prefix_closed():
    phi = parse_formula(
        "<in>{x1 >= 1}(<out>{x1 >= 1}(<in>{x1 >= 1}(p0)))"
    )
    assert tuple(traces(phi)) == ((IN,), (IN, OUT), (IN, OUT, IN))


def test_traces_come_in_length_then_lexicographic_order():
    phi = parse_formula(
        "<out,in>{x1 + x2 >= 1}(<in,out>{x1 - x2 >= 0}(p0,p1),<out>{x1 >= 1}(p1))"
    )
    assert tuple(traces(phi)) == (
        (IN,), (OUT,), (IN, OUT), (OUT, IN), (OUT, OUT)
    )


def test_trace_index_order():
    phi = parse_formula(EX_NESTED)
    assert tuple(trace_index(phi)) == ((), (OUT,))


def test_trace_enumeration_is_lazy():
    # 2^k traces of each length k up to 40: only a lazy enumeration starts.
    phi = Prop(0)
    for _ in range(40):
        phi = Modal((IN, OUT), parse_peano("x1 + x2 >= 1"), (phi, phi))
    assert tuple(islice(trace_index(phi), 5)) == (
        (), (IN,), (OUT,), (IN, IN), (IN, OUT)
    )


# ---------------------------------------------------------------------------
# Classification


def test_classify_examples():
    from pmlc.logic import FragmentTags

    tags = classify(parse_formula(EX_CUBIC))
    assert tags == FragmentTags(
        max_modal_depth=1, only_top=True, only_edges=False, homogeneous=True
    )
    tags = classify(parse_formula(EX_EDGE))
    assert tags.only_edges and not tags.only_top and not tags.homogeneous
    tags = classify(parse_formula(EX_MIXED))
    assert not tags.only_top and not tags.only_edges


def test_classify_homogeneous_needs_bare_atom_and_zero_bound():
    # The >= rewrite introduces a negation, so this is not homogeneous.
    assert not classify(parse_formula("<top>{x1 >= 2}(p0)")).homogeneous
    assert classify(parse_formula("<top,top>{x1 - 2*x2 <= 0}(p0,p1)")).homogeneous
    assert not classify(parse_formula("<top>{x1 <= 1}(p0)")).homogeneous
    # Mixed monomial degrees break homogeneity.
    assert not classify(parse_formula("<top,top>{x1*x1 - x2 <= 0}(p0,p1)")).homogeneous
    # Modal-free formulas are vacuously in every modality fragment.
    tags = classify(parse_formula("(p0 & !p1)"))
    assert tags.only_top and tags.only_edges and tags.homogeneous


# ---------------------------------------------------------------------------
# Flattening and constant folding


def test_flatten_global_identity_below_depth_two():
    phi = parse_formula(EX_CUBIC)
    assert flatten_global(phi) is phi
    phi = parse_formula("(p0 & p1)")
    assert flatten_global(phi) is phi


def test_flatten_global_requires_top_fragment():
    with pytest.raises(ValueError):
        flatten_global(parse_formula(EX_EDGE))


def test_flatten_global_structure():
    phi = parse_formula("<top>{x1 >= 1}(<top>{x1 >= 1}(p0))")
    flat = flatten_global(phi)
    assert modal_depth(flat) == 1
    assert classify(flat).only_top
    # One strict modal subformula -> two guesses.
    inner = parse_formula("<top>{x1 >= 1}(p0)")
    guessed_true = Modal(
        (Modality.TOP,), phi.constraint, (TOP_FORMULA,)
    )
    guessed_false = Modal(
        (Modality.TOP,), phi.constraint, (BOT_FORMULA,)
    )
    expected = Not(
        And(
            Not(And(guessed_false, Not(inner))),
            Not(And(guessed_true, inner)),
        )
    )
    assert flat == expected


# ---------------------------------------------------------------------------
# Random round-trips


def _monomials(max_var):
    return st.dictionaries(
        st.lists(st.integers(1, max_var), min_size=1, max_size=3)
        .map(sorted)
        .map(tuple),
        st.integers(-3, 3).filter(lambda c: c != 0),
        min_size=1,
        max_size=3,
    )


def _atoms(max_var):
    from pmlc.logic import normalize_atom

    return st.builds(
        normalize_atom,
        _monomials(max_var),
        st.sampled_from(["<=", "<", ">=", ">", "="]),
        st.integers(-4, 9),
    )


def _peano(max_var):
    return st.recursive(
        _atoms(max_var),
        lambda inner: st.one_of(
            st.builds(PeanoNot, inner), st.builds(PeanoAnd, inner, inner)
        ),
        max_leaves=4,
    )


def _formulas():
    props = st.builds(Prop, st.integers(0, 3))

    def modal(inner):
        return st.lists(
            st.sampled_from(list(Modality)), min_size=1, max_size=3
        ).flatmap(
            lambda mods: st.builds(
                Modal,
                st.just(tuple(mods)),
                _peano(len(mods)),
                st.tuples(*([inner] * len(mods))).map(tuple),
            )
        )

    return st.recursive(
        props,
        lambda inner: st.one_of(
            st.builds(Not, inner), st.builds(And, inner, inner), modal(inner)
        ),
        max_leaves=6,
    )


@given(_formulas())
@settings(max_examples=150, deadline=None)
def test_random_print_parse_round_trip(phi):
    assert parse_formula(print_formula(phi)) == phi


@given(_formulas())
@settings(max_examples=60, deadline=None)
def test_random_subformula_order(phi):
    order = subformulas_ordered(phi)
    assert order[-1] == phi
    pos = {s: i for i, s in enumerate(order)}
    boundary = sum(1 for s in order if modal_depth(s) == 0)
    assert all(modal_depth(s) == 0 for s in order[:boundary])
    assert all(modal_depth(s) > 0 for s in order[boundary:])
    for i, s in enumerate(order):
        if isinstance(s, Not):
            assert pos[s.operand] < i
        elif isinstance(s, And):
            assert pos[s.left] < i and pos[s.right] < i
        elif isinstance(s, Modal):
            assert all(pos[c] < i for c in s.children)
