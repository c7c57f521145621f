"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its seed and uses only pmlc's public
API (``parse_formula`` and the class generators), so the same seed always
gives the same formulas and graphs.  The formula banks of the test suite are
deliberately not imported: a later change to the tests must not change a
workload.
"""

from __future__ import annotations

import random

from pmlc.graphs import (
    gen_marked,
    gen_pointed,
    gen_regular_strongly_marked,
    gen_strongly_marked,
    gen_tree_like,
)
from pmlc.logic import parse_formula

# The paper's three worked examples: a homogeneous cubic over global counts,
# a directional square-vs-cube comparison, and a three-modality conjunction.
CUBIC_GLOBAL = "<top,top,top>{x1*x1*x1 - x2*x2*x3 <= 0}(p0, p1, p2)"
SQUARE_VS_CUBE_LOCAL = "<in,out>{x1*x1 - x2*x2*x2 <= 1}(p0, (p1 & !p2))"
THREE_MODALITY_MIXED = (
    "<in,top,id>{(x1*x1 + x2*x3 >= 16 & x2*x2*x2 + x1 - x1*x3 <= 64)}"
    "((p0 & p1), p1, !(!p2 & !p3))"
)
# A depth-2 out-only formula: its tree-like members are out-trees of depth 2,
# so their size grows with the square of the branching factor.
NESTED_OUT_OUT = (
    "<out,out>{x1*x2 - x2 <= 2}(<out>{x1 >= 1}(p0), <out>{2*x1 - x1*x1 <= 0}(!p1))"
)

# Target family -> the worked examples its fragment admits.
_WORKED = {
    "global-homogeneous": (CUBIC_GLOBAL,),
    "global-shallow": (CUBIC_GLOBAL,),
    "global-deep": (CUBIC_GLOBAL,),
    "local": (SQUARE_VS_CUBE_LOCAL,),
    "shallow": (CUBIC_GLOBAL, SQUARE_VS_CUBE_LOCAL, THREE_MODALITY_MIXED),
    "nested": (SQUARE_VS_CUBE_LOCAL,),
}

ALL_MODS = ("id", "in", "out", "top")
EDGE_MODS = ("in", "out")


def family(target: str) -> str:
    for prefix in ("local", "shallow", "nested"):
        if target.startswith(prefix):
            return prefix
    return target


def worked_examples(target: str) -> tuple[str, ...]:
    return _WORKED[family(target)]


# ---------------------------------------------------------------------------
# Formula text


def _literal_pair(rng: random.Random) -> str:
    a, b = rng.randrange(2), rng.randrange(2)
    return rng.choice(
        [f"(p{a} & p{b})", f"(p{a} & !p{b})", f"(!p{a} & p{b})", f"(!p{a} & !p{b})"]
    )


def _monomials(rng: random.Random, arity: int, degrees) -> list[str]:
    """Monomials of the given degrees that together mention every one of the
    ``arity`` variables, as far as their degrees leave room, and differ from
    each other where ``arity`` allows.  So no position goes unused and no
    pair of monomials cancels, and a formula's network size follows from its
    shape, not from what the seed draws."""
    need = min(arity, sum(degrees))
    distinct = arity > 1 or len(set(degrees)) == len(degrees)
    while True:
        monos = [[rng.randint(1, arity) for _ in range(d)] for d in degrees]
        keys = {tuple(sorted(m)) for m in monos}
        if len({v for m in monos for v in m}) >= need and (
            len(keys) == len(monos) or not distinct
        ):
            return ["*".join(f"x{v}" for v in m) for m in monos]


def _binomial(rng: random.Random, first: str, second: str) -> str:
    """``c1*first +/- c2*second`` with coefficients 1 or 2; never ``m - m``."""
    sign = rng.choice("+-") if first != second else "+"
    return f"{rng.choice([1, 2])}*{first} {sign} {rng.choice([1, 2])}*{second}"


def _atom(rng: random.Random, arity: int, degree: int) -> str:
    """Two monomials, the first of exactly ``degree``; a random comparison."""
    first, second = _monomials(rng, arity, (degree, rng.randint(1, degree)))
    op = rng.choice(["<=", "<", ">=", ">"])
    return f"{_binomial(rng, first, second)} {op} {rng.randint(0, 4)}"


def _constraint(rng: random.Random, arity: int, degree: int, compound: bool) -> str:
    psi = _atom(rng, arity, degree)
    if compound:
        psi = f"({psi} {rng.choice('&|')} {_atom(rng, arity, degree)})"
    return f"!{psi}" if rng.random() < 0.25 else psi


def _modal(rng: random.Random, mods, constraint: str, children: list[str]) -> str:
    pis = ",".join(rng.choice(mods) for _ in children)
    return f"<{pis}>{{{constraint}}}({', '.join(children)})"


# The random formulas of a bank have a fixed schedule of shapes (positions,
# degree, depth) indexed by their place in the bank; the seed draws their
# content.  So two seeds give banks of equal size and the workload's cost
# does not swing with how many large formulas a seed happens to draw.


def shallow_formula(rng: random.Random, mods, i: int) -> str:
    """A depth-1 formula over ``mods``; the ``i``-th shape of the schedule."""
    m, degree, compound = 1 + i % 2, 1 + i // 2 % 2, i // 4 % 2 == 1
    kids = [_literal_pair(rng) for _ in range(m)]
    phi = _modal(rng, mods, _constraint(rng, m, degree, compound), kids)
    return f"!{phi}" if i % 4 == 3 else phi


def homogeneous_formula(rng: random.Random, i: int) -> str:
    """A depth-1 ``top`` formula with one bound-0 atom whose monomials share
    one degree; positions and degree follow the schedule."""
    m, degree = 1 + i % 3, 1 + i // 3 % 3
    poly = _binomial(rng, *_monomials(rng, m, (degree, degree)))
    kids = [_literal_pair(rng) for _ in range(m)]
    # Only "<= 0" stays a single bound-0 atom; the parser rewrites ">= 0"
    # into a negated "<= -1".
    return _modal(rng, ("top",), f"{poly} <= 0", kids)


def top_formula(rng: random.Random, depth: int, width: int) -> str:
    """A ``top``-only formula of modal depth exactly ``depth``.

    The first child of every modal node carries the nesting; further
    children (up to ``width`` positions) are Boolean.  Every modal node has
    one two-monomial atom and every Boolean leaf is a literal pair, so
    formulas of one shape differ in content, not in size.
    """
    if depth == 0:
        return _literal_pair(rng)
    kids = [top_formula(rng, depth - 1, 1)]
    kids += [_literal_pair(rng) for _ in range(width - 1)]
    return _modal(rng, ("top",), _constraint(rng, width, 2, False), kids)


def layered_formula(rng: random.Random, depth: int, width: int, turn: int = 0) -> str:
    """An edge-only formula whose nesting is depth-critical.

    Every modal node has ``width`` children of modal depth exactly one less.
    Level 0 is a single literal, so no modal subformula recurs at two depths
    (what the nested construction requires).  Positions alternate between
    ``in`` and ``out``, starting at ``turn``: the trace set, and with it the
    size of the nested network, is fixed by the shape.
    """
    if depth == 0:
        p = f"p{rng.randrange(2)}"
        return f"!{p}" if rng.random() < 0.4 else p
    kids = [layered_formula(rng, depth - 1, width, turn + 1) for _ in range(width)]
    pis = ",".join(EDGE_MODS[(turn + j) % 2] for j in range(width))
    phi = f"<{pis}>{{{_constraint(rng, width, 2, False)}}}({', '.join(kids)})"
    return f"!{phi}" if rng.random() < 0.25 else phi


def random_fill(target: str, rng: random.Random, i: int) -> str:
    """The ``i``-th random formula of ``target``'s bank, inside its fragment."""
    fam = family(target)
    if fam == "global-homogeneous":
        return homogeneous_formula(rng, i)
    if fam == "global-shallow":
        return shallow_formula(rng, ("top",), i)
    if fam == "global-deep":
        return top_formula(rng, 1 + i % 2, 1 + i // 2 % 2)
    if fam == "local":
        return shallow_formula(rng, EDGE_MODS, i)
    if fam == "shallow":
        return shallow_formula(rng, ALL_MODS, i)
    return layered_formula(rng, 1 + i % 2, 1 + i // 2 % 2, i // 4)


def target_bank(target: str, seed: int, random_count: int):
    """The worked examples admitted by ``target`` plus seeded random fills."""
    rng = random.Random(f"bank-{seed}-{target}")
    texts = list(worked_examples(target))
    texts += [random_fill(target, rng, i) for i in range(random_count)]
    return [parse_formula(t) for t in texts]


# ---------------------------------------------------------------------------
# Graphs


def class_member(net, phi, seed: int, n: int, edge_prob: float, branching: int = 1):
    """A member of ``net``'s required class with ``n`` nodes (or, for the
    tree-like classes, the member ``gen_tree_like`` builds at ``branching``)."""
    tag, colours = net.required_class, net.colours
    if tag == "any":
        return gen_pointed(seed, n, colours, edge_prob)
    if net.mark_colour != colours - 1:
        raise ValueError(f"mark colour {net.mark_colour} is not the last of {colours}")
    if tag == "marked":
        return gen_marked(seed, n, colours, edge_prob)
    if tag == "strong":
        return gen_strongly_marked(seed, n, colours, edge_prob)
    if tag == "regular-strong":
        d = max(1, min(n, round(edge_prob * n)))
        return gen_regular_strongly_marked(seed, n, colours, d, d)
    return gen_tree_like(seed, phi, branching, colours, tag == "regular-tree-like")


def small_member(net, phi, seed: int, n: int, edge_prob: float):
    """A verify-sized class member (``pmlc verify`` draws 1 to 10 nodes)."""
    return class_member(net, phi, seed, n, edge_prob, 1 + seed % 2)
