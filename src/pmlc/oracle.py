"""Brute-force reference semantics for formulas over pointed graphs.

This module is the ground truth the compiled networks are verified
against.  It evaluates constraints over exact arbitrary-precision integers
and the modal satisfaction relation by direct counting.

Each formula or constraint is turned once into a plan: one small tuple per
distinct subterm, in ``logic.postorder``, naming its operands by position.
Plans hold ints and strings, never formulas, and are cached weakly per
interned formula.  ``models`` walks a plan twice, without recursion: a
demand pass, parents first, gives each subformula the nodes it is needed
at, and a truth pass, operands first, gives the nodes where it holds.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from .graphs import Graph, PointedGraph, neigh
from .logic import (
    And,
    Modal,
    Not,
    PeanoAtom,
    PeanoFormula,
    PeanoNot,
    PmlFormula,
    Prop,
    max_prop,
    peano_arity,
    postorder,
)

# Plan step tags: formula steps, then constraint steps.
PROP, NOT, AND, MODAL, ATOM, PNOT, PAND = range(7)

_PLANS: "weakref.WeakKeyDictionary[object, list]" = weakref.WeakKeyDictionary()


def _plan(phi) -> list:
    """The cached plan of a formula or constraint."""
    plan = _PLANS.get(phi)
    if plan is None:
        plan = _PLANS[phi] = _steps(phi)
    return plan


def _steps(phi) -> list:
    """One step per distinct subterm, in postorder: ``(PROP, index)``,
    ``(NOT, i)``, ``(AND, i, j)``, ``(MODAL, ((way, i), ...),
    constraint_plan)``, ``(ATOM, ((coeff, (variable - 1, ...)), ...),
    bound)``, ``(PNOT, i)`` and ``(PAND, i, j)``, where ``i`` and ``j`` are
    earlier positions, and ``way`` is a modality's surface name (``id``,
    ``in``, ``out`` or ``top``, which ``neigh`` takes as its direction).
    A constraint holds no modal node, so ``_plan`` and ``_steps`` nest at
    most twice."""
    order = postorder(phi)
    at = {s: i for i, s in enumerate(order)}
    plan = []
    for s in order:
        if isinstance(s, Prop):
            plan.append((PROP, s.index))
        elif isinstance(s, Modal):
            ways = (pi.surface for pi in s.modalities)
            positions = tuple(zip(ways, (at[c] for c in s.children)))
            plan.append((MODAL, positions, _plan(s.constraint)))
        elif isinstance(s, PeanoAtom):
            monomials = tuple(
                (m.coeff, tuple(v - 1 for v in m.variables)) for m in s.monomials
            )
            plan.append((ATOM, monomials, s.bound))
        elif isinstance(s, (Not, PeanoNot)):
            plan.append((NOT if isinstance(s, Not) else PNOT, at[s.operand]))
        else:
            plan.append((AND if isinstance(s, And) else PAND, at[s.left], at[s.right]))
    return plan


def _holds(plan: list, counts: Sequence[int]) -> bool:
    """Truth of a constraint plan at natural-number counts."""
    truth: list[bool] = []
    for step in plan:
        if step[0] == ATOM:
            total = 0
            for coeff, variables in step[1]:
                for x in variables:
                    coeff *= counts[x]
                total += coeff
            truth.append(total <= step[2])
        elif step[0] == PNOT:
            truth.append(not truth[step[1]])
        else:
            truth.append(truth[step[1]] and truth[step[2]])
    return truth[-1]


def eval_peano(psi: PeanoFormula, assignment: Sequence[int]) -> bool:
    """Truth of a constraint at natural-number counts (x1 = assignment[0])."""
    if peano_arity(psi) > len(assignment):
        raise ValueError(
            f"constraint uses x{peano_arity(psi)} but got "
            f"{len(assignment)} values"
        )
    return _holds(_plan(psi), assignment)


def models(pg: PointedGraph, phi: PmlFormula) -> bool:
    """The satisfaction relation: does the formula hold at the focus?"""
    g = pg.graph
    if max_prop(phi) >= g.colours:
        raise ValueError(
            f"formula mentions p{max_prop(phi)} but the graph has "
            f"{g.colours} colours"
        )
    plan = _plan(phi)
    # Demand, parents first: the nodes each subformula is needed at.
    need: list = [frozenset()] * len(plan)
    need[-1] = {pg.focus}
    for i in range(len(plan) - 1, -1, -1):
        step, here = plan[i], need[i]
        if step[0] == PROP or not here:
            continue
        if step[0] == MODAL:
            for way, j in step[1]:
                nodes = _reach(g, way, here)
                need[j] = need[j] | nodes if need[j] else nodes
        else:
            for j in step[1:]:
                need[j] = need[j] | here if need[j] else here
    # Truth, operands first: the needed nodes where each subformula holds.
    labels = g.labels
    true: list = []
    for step, here in zip(plan, need):
        if step[0] == PROP:
            colour = step[1]
            true.append({v for v in here if labels[v][colour]})
        elif step[0] == NOT:
            true.append(here - true[step[1]])
        elif step[0] == AND:
            true.append(here & true[step[1]] & true[step[2]])
        else:
            verdicts: dict = {}
            holds = set()
            for v in here:
                counts = tuple([_count(g, way, true[j], v) for way, j in step[1]])
                verdict = verdicts.get(counts)
                if verdict is None:
                    verdict = verdicts[counts] = _holds(step[2], counts)
                if verdict:
                    holds.add(v)
            true.append(holds)
    return pg.focus in true[-1]


def _reach(g: Graph, way: str, nodes):
    """The nodes a modality ranges over from any of ``nodes``."""
    if way == "id":
        return nodes
    if way == "top":
        return set(range(g.node_count))
    return {u for v in nodes for u in neigh(g, v, way)}


def _count(g: Graph, way: str, true: set, v: int) -> int:
    """How many nodes of ``true`` a modality ranges over from ``v``."""
    if way == "top":
        return len(true)
    if way == "id":
        return int(v in true)
    return len(true.intersection(neigh(g, v, way)))


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
