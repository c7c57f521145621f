"""Brute-force reference semantics for formulas over pointed graphs.

This module is the ground truth the compiled networks are verified
against.  It evaluates constraints over exact arbitrary-precision integers
and the modal satisfaction relation by direct counting, with no shortcuts
beyond per-call memoization on (node, subformula).
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, PointedGraph, neigh
from .logic import (
    And,
    Modality,
    Not,
    PeanoAtom,
    PeanoFormula,
    PeanoNot,
    PmlFormula,
    Prop,
    max_prop,
    peano_arity,
)


def eval_peano(psi: PeanoFormula, assignment: Sequence[int]) -> bool:
    """Truth of a constraint at natural-number counts (x1 = assignment[0])."""
    if peano_arity(psi) > len(assignment):
        raise ValueError(
            f"constraint uses x{peano_arity(psi)} but got "
            f"{len(assignment)} values"
        )
    try:
        return _eval_peano(psi, assignment)
    except RecursionError:
        return _eval_peano_stack(psi, assignment)


def _eval_peano(psi: PeanoFormula, n: Sequence[int]) -> bool:
    if isinstance(psi, PeanoAtom):
        total = 0
        for m in psi.monomials:
            term = m.coeff
            for v in m.variables:
                term *= n[v - 1]
            total += term
        return total <= psi.bound
    if isinstance(psi, PeanoNot):
        return not _eval_peano(psi.operand, n)
    return _eval_peano(psi.left, n) and _eval_peano(psi.right, n)


def _eval_peano_stack(psi: PeanoFormula, n: Sequence[int]) -> bool:
    """``_eval_peano`` without recursion, for constraints deeper than the
    interpreter's stack (only the constructors build them): a node stays
    on the stack until every operand it needs has a truth value."""
    truth: dict[PeanoFormula, bool] = {}
    stack = [psi]
    while stack:
        f = stack[-1]
        if f in truth:
            stack.pop()
            continue
        if isinstance(f, PeanoAtom):
            truth[f] = _eval_peano(f, n)
        elif isinstance(f, PeanoNot):
            if f.operand not in truth:
                stack.append(f.operand)
                continue
            truth[f] = not truth[f.operand]
        else:
            if f.left not in truth:
                stack.append(f.left)
                continue
            if truth[f.left] and f.right not in truth:
                stack.append(f.right)
                continue
            truth[f] = truth[f.left] and truth[f.right]
        stack.pop()
    return truth[psi]


def modality_extension(pi: Modality, pg: PointedGraph) -> tuple[int, ...]:
    """Nodes a modality ranges over at the focus (sorted)."""
    if pi is Modality.ID:
        return (pg.focus,)
    if pi is Modality.E_IN:
        return neigh(pg.graph, pg.focus, "in")
    if pi is Modality.E_OUT:
        return neigh(pg.graph, pg.focus, "out")
    return tuple(range(pg.graph.node_count))


def models(pg: PointedGraph, phi: PmlFormula) -> bool:
    """The satisfaction relation: does the formula hold at the focus?"""
    g = pg.graph
    if max_prop(phi) >= g.colours:
        raise ValueError(
            f"formula mentions p{max_prop(phi)} but the graph has "
            f"{g.colours} colours"
        )
    # Structural keys let shared/duplicated subtrees (e.g. from flattening)
    # collapse into one evaluation per node.
    memo: dict[tuple[int, PmlFormula], bool] = {}

    def sat(v: int, f: PmlFormula) -> bool:
        key = (v, f)
        if key in memo:
            return memo[key]
        if isinstance(f, Prop):
            result = g.labels[v][f.index] == 1
        elif isinstance(f, Not):
            result = not sat(v, f.operand)
        elif isinstance(f, And):
            result = sat(v, f.left) and sat(v, f.right)
        else:
            counts = []
            for pi, child in zip(f.modalities, f.children):
                extension = modality_extension(pi, PointedGraph(g, v))
                counts.append(sum(1 for u in extension if sat(u, child)))
            result = _eval_peano(f.constraint, counts)
        memo[key] = result
        return result

    try:
        return sat(pg.focus, phi)
    except RecursionError:
        # A formula or constraint deeper than the interpreter's stack:
        # finish with an explicit stack over the same memo, which keeps
        # every finished entry.
        return _sat_stack(g, memo, pg.focus, phi)


def _sat_stack(
    g: Graph, memo: dict[tuple[int, PmlFormula], bool], v: int, phi: PmlFormula
) -> bool:
    """``sat`` of ``models`` without recursion: a pair stays on the stack
    until every pair it needs is in ``memo``."""
    stack = [(v, phi)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        u, f = key
        if isinstance(f, Prop):
            memo[key] = g.labels[u][f.index] == 1
        elif isinstance(f, Not):
            sub = (u, f.operand)
            if sub not in memo:
                stack.append(sub)
                continue
            memo[key] = not memo[sub]
        elif isinstance(f, And):
            left, right = (u, f.left), (u, f.right)
            if left not in memo:
                stack.append(left)
                continue
            if memo[left] and right not in memo:
                stack.append(right)
                continue
            memo[key] = memo[left] and memo[right]
        else:
            needs = [
                [(w, child) for w in modality_extension(pi, PointedGraph(g, u))]
                for pi, child in zip(f.modalities, f.children)
            ]
            missing = [pair for pairs in needs for pair in pairs if pair not in memo]
            if missing:
                stack.extend(missing)
                continue
            counts = [sum(1 for pair in pairs if memo[pair]) for pairs in needs]
            memo[key] = _eval_peano_stack(f.constraint, counts)
        stack.pop()
    return memo[(v, phi)]


def all_pointed_graphs(max_nodes: int, colours: int, edges: bool = True):
    """Yield every pointed graph up to a size, optionally edge-free.

    Exhaustive ground for small-scale equivalence sweeps; the count grows
    brutally fast, so callers keep max_nodes tiny (<= 4 with edges).
    """
    from itertools import combinations, product

    for n in range(1, max_nodes + 1):
        all_labels = list(product([0, 1], repeat=colours))
        pairs = [(s, d) for s in range(n) for d in range(n)]
        edge_sets = (
            [frozenset(c) for k in range(len(pairs) + 1) for c in combinations(pairs, k)]
            if edges
            else [frozenset()]
        )
        for labelling in product(all_labels, repeat=n):
            for es in edge_sets:
                g = Graph(n, colours, es, labelling)
                for v in range(n):
                    yield PointedGraph(g, v)
