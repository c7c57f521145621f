"""Reference semantics the benchmark checks pmlc against.

A direct-counting model checker over the public formula AST.  It shares no
code with ``pmlc.oracle`` or ``pmlc.graphs.neigh``: neighbourhoods are read
straight from the edge set, constraints are evaluated over Python integers,
and nothing is cached across calls.  Every check is exact; no float is
involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from pmlc.logic import And, Modal, Modality, Not, PeanoAnd, PeanoAtom, PeanoNot, Prop


def peano_holds(psi, counts) -> bool:
    """Truth of a normalized constraint at the counts x1 = counts[0], ..."""
    if isinstance(psi, PeanoAtom):
        total = 0
        for mono in psi.monomials:
            term = mono.coeff
            for var in mono.variables:
                term *= counts[var - 1]
            total += term
        return total <= psi.bound
    if isinstance(psi, PeanoNot):
        return not peano_holds(psi.operand, counts)
    if isinstance(psi, PeanoAnd):
        return peano_holds(psi.left, counts) and peano_holds(psi.right, counts)
    raise TypeError(f"not a constraint: {psi!r}")


def holds(pg, phi) -> bool:
    """Does ``phi`` hold at the focus of the pointed graph ``pg``?"""
    g = pg.graph
    n = g.node_count
    ins = [[] for _ in range(n)]
    outs = [[] for _ in range(n)]
    for s, d in g.edges:
        outs[s].append(d)
        ins[d].append(s)
    everyone = range(n)
    memo: dict[tuple[int, int], bool] = {}

    def extension(pi, v):
        if pi is Modality.ID:
            return (v,)
        if pi is Modality.E_IN:
            return ins[v]
        if pi is Modality.E_OUT:
            return outs[v]
        return everyone

    def sat(v: int, f) -> bool:
        if isinstance(f, Prop):
            return g.labels[v][f.index] == 1
        if isinstance(f, Not):
            return not sat(v, f.operand)
        if isinstance(f, And):
            return sat(v, f.left) and sat(v, f.right)
        if not isinstance(f, Modal):
            raise TypeError(f"not a formula: {f!r}")
        key = (v, id(f))
        if key not in memo:
            counts = [
                sum(1 for u in extension(pi, v) if sat(u, child))
                for pi, child in zip(f.modalities, f.children)
            ]
            memo[key] = peano_holds(f.constraint, counts)
        return memo[key]

    return sat(pg.focus, phi)


def modal_depth(phi) -> int:
    if isinstance(phi, Prop):
        return 0
    if isinstance(phi, Not):
        return modal_depth(phi.operand)
    if isinstance(phi, And):
        return max(modal_depth(phi.left), modal_depth(phi.right))
    return 1 + max(modal_depth(c) for c in phi.children)


def accept_value(exponent: int, inverted: bool, node_count: int) -> Fraction:
    """The exact output an accepting network must produce: n^(-e), or 0."""
    return Fraction(0) if inverted else Fraction(1, node_count**exponent)


def verdict_error(net, pg, verdict, truth: bool):
    """Why a judge verdict is wrong for the known truth, or None if it is right.

    A normal network must output exactly n^(-e) on a satisfying graph and
    exactly 0 otherwise; an inverted one exactly 0 on a satisfying graph and
    at least n^(-e) otherwise.
    """
    n = pg.graph.node_count
    e, inverted = net.certainty.exponent, net.inverted
    want = "accept" if truth else "reject"
    if verdict.kind != want:
        return f"verdict {verdict.kind}, truth {want} (n={n})"
    value = Fraction(verdict.value.numerator, verdict.value.denominator)
    if truth:
        if value != accept_value(e, inverted, n):
            return f"accepting value {value} is not {accept_value(e, inverted, n)}"
    elif inverted:
        if value < Fraction(1, n**e):
            return f"inverted reject value {value} below 1/{n}^{e}"
    elif value != 0:
        return f"rejecting value {value} is not 0"
    return None
