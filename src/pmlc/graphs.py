"""Directed labelled graphs, pointed-graph classes, and generators.

A graph carries ``colours`` label bits per node.  Pointed graphs single out
a focus node.  The compilation targets restrict inputs to graph classes:

* marked — the focus is the unique holder of a designated label colour;
* strongly marked — marked, and the focus has a self-loop;
* regular — all in-degrees equal and all out-degrees equal;
* trace-tree-like (relative to a formula) — marked focus, self-loops along
  trace-respecting walk prefixes, and no two same-side neighbours of a walk
  endpoint share a trace set.

Predicates here are the ground truth the network judges re-check; the
generators are self-validating (each emitted graph is re-checked against
its class predicate, with deterministic fallbacks on infeasible draws).
"""

from __future__ import annotations

import functools
import random
import weakref
from dataclasses import dataclass
from typing import Optional, Union

from .logic import Modality, PmlFormula, max_prop, modal_depth, traces


@dataclass(frozen=True)
class Graph:
    node_count: int
    colours: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.node_count < 0:
            raise ValueError("negative node count")
        if self.colours < 1:
            raise ValueError("at least one colour is required")
        if len(self.labels) != self.node_count:
            raise ValueError("one label bitvector per node is required")
        for bits in self.labels:
            if len(bits) != self.colours or any(b not in (0, 1) for b in bits):
                raise ValueError("labels must be 0/1 vectors of length colours")
        for s, d in self.edges:
            if not (0 <= s < self.node_count and 0 <= d < self.node_count):
                raise ValueError(f"edge ({s},{d}) out of range")

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Sorted (in-neighbours, out-neighbours) of every node, built on
        first use and kept with the graph (outside equality and hashing)."""
        ins: list[list[int]] = [[] for _ in range(self.node_count)]
        outs: list[list[int]] = [[] for _ in range(self.node_count)]
        for s, d in sorted(self.edges):
            outs[s].append(d)
            ins[d].append(s)
        return tuple(tuple(x) for x in ins), tuple(tuple(x) for x in outs)


@dataclass(frozen=True)
class PointedGraph:
    graph: Graph
    focus: int

    def __post_init__(self) -> None:
        if not 0 <= self.focus < self.graph.node_count:
            raise ValueError("focus out of range")


def neigh(g: Graph, v: int, direction: str) -> tuple[int, ...]:
    """Neighbourhood of ``v``: sources of edges into v (``in``) or targets
    of edges out of v (``out``); sorted."""
    if not 0 <= v < g.node_count:
        raise ValueError("node out of range")
    ins, outs = g.adjacency
    if direction == "in":
        return ins[v]
    if direction == "out":
        return outs[v]
    raise ValueError(f"unknown direction {direction!r}")


def is_regular(g: Graph) -> bool:
    """True iff all in-degrees agree and all out-degrees agree."""
    ins, outs = g.adjacency
    return (
        len({len(x) for x in ins}) <= 1 and len({len(x) for x in outs}) <= 1
    )


def is_marked(g: Graph, v: int, colour: int) -> bool:
    """True iff ``v`` is the unique node with label bit ``colour`` set."""
    if not 0 <= colour < g.colours:
        raise ValueError("colour out of range")
    return g.labels[v][colour] == 1 and all(
        g.labels[u][colour] == 0 for u in range(g.node_count) if u != v
    )


def is_strongly_marked(g: Graph, v: int, colour: int) -> bool:
    """Marked, and ``v`` carries a self-loop."""
    return is_marked(g, v, colour) and (v, v) in g.edges


# ---------------------------------------------------------------------------
# Trace sets and the tree-like class


_TRACES: "weakref.WeakKeyDictionary[PmlFormula, tuple]" = weakref.WeakKeyDictionary()


def _traces(phi: PmlFormula) -> tuple[tuple[Modality, ...], ...]:
    """Every trace of ``phi``, in the order of ``logic.traces``, listed once
    per interned formula: the tree-like check and generator walk them all."""
    family = _TRACES.get(phi)
    if family is None:
        family = _TRACES[phi] = tuple(traces(phi))
    return family


def _reach_maps(phi: PmlFormula, pg: PointedGraph) -> tuple[
    dict[tuple[Modality, ...], set[int]],
    dict[tuple[Modality, ...], dict[int, Optional[int]]],
]:
    """Nodes reachable from the focus along each trace of ``phi``, plus
    one walk-predecessor per reached node (for witness walks)."""
    g = pg.graph
    reach: dict[tuple[Modality, ...], set[int]] = {(): {pg.focus}}
    parent: dict[tuple[Modality, ...], dict[int, Optional[int]]] = {
        (): {pg.focus: None}
    }
    for t in _traces(phi):  # prefix-closed, so reach[t[:-1]] is already set
        # A trace element records which neighbourhood the counting step
        # used: E_out at u sees out-neighbours of u, E_in sees in-neighbours,
        # so a walk step along E_in traverses an edge backwards.
        direction = t[-1].surface
        found: dict[int, Optional[int]] = {}
        for q in sorted(reach[t[:-1]]):
            for w in neigh(g, q, direction):
                found.setdefault(w, q)
        reach[t] = set(found)
        parent[t] = found
    return reach, parent


@dataclass(frozen=True)
class TreeLikeWitness:
    """Why a pointed graph fails the tree-like check.

    ``kind`` is one of ``not_marked``, ``missing_self_loop`` or
    ``indistinct_pair``.  For the walk-based kinds, ``walk`` lists the
    offending trace-respecting walk (focus first) and ``trace`` the trace it
    respects; ``pair`` names the two same-side neighbours of the walk's
    endpoint whose trace sets coincide.
    """

    kind: str
    trace: Optional[tuple[Modality, ...]] = None
    walk: Optional[tuple[int, ...]] = None
    pair: Optional[tuple[int, int]] = None


def _witness_walk(
    parent: dict[tuple[Modality, ...], dict[int, Optional[int]]],
    t: tuple[Modality, ...],
    end: int,
) -> tuple[int, ...]:
    nodes = [end]
    cur = end
    for j in range(len(t), 0, -1):
        prev = parent[t[:j]][cur]
        if prev is None:
            raise RuntimeError(f"walk for trace {t} breaks off at node {cur}")
        nodes.append(prev)
        cur = prev
    return tuple(reversed(nodes))


def check_tree_like(
    phi: PmlFormula, pg: PointedGraph, colour: int
) -> tuple[bool, Optional[TreeLikeWitness]]:
    """Decide membership in the formula's tree-like graph class.

    Requirements: the focus is marked by ``colour``; for every walk from the
    focus respecting a trace of length i, the walk's penultimate node has a
    self-loop, and no two distinct neighbours of the endpoint on the side
    opposite the final trace element share their level-(i-1) trace sets.
    """
    g = pg.graph
    if not is_marked(g, pg.focus, colour):
        return False, TreeLikeWitness(kind="not_marked")
    reach, parent = _reach_maps(phi, pg)
    # ids[u] names u's set of reaching traces up to length ``level``: two
    # nodes share an id exactly when they share that set.  A level adds to
    # a node's id the positions in ``_traces(phi)`` of the traces of that
    # length that reach it (``reached``).
    ids = [0] * g.node_count
    ids[pg.focus] = 1
    names: dict[tuple[int, tuple[int, ...]], int] = {}
    level, reached = 0, {}
    for i, t in enumerate(_traces(phi)):
        if len(t) > level:
            for u, positions in reached.items():
                ids[u] = names.setdefault((ids[u], tuple(positions)), len(names) + 2)
            level, reached = len(t), {}
        prefix = t[:-1]
        direction = t[-1].surface
        for q in sorted(reach[prefix]):
            successors = neigh(g, q, direction)
            if successors and (q, q) not in g.edges:
                walk = _witness_walk(parent, prefix, q) + (successors[0],)
                return False, TreeLikeWitness(
                    kind="missing_self_loop", trace=t, walk=walk
                )
        side = "in" if t[-1] is Modality.E_OUT else "out"
        for w in sorted(reach[t]):
            groups: dict[int, list[int]] = {}
            for u in neigh(g, w, side):
                groups.setdefault(ids[u], []).append(u)
            pair = next((grp for grp in groups.values() if len(grp) > 1), None)
            if pair is not None:
                return False, TreeLikeWitness(
                    kind="indistinct_pair",
                    trace=t,
                    walk=_witness_walk(parent, t, w),
                    pair=(pair[0], pair[1]),
                )
            reached.setdefault(w, []).append(i)
    return True, None


# ---------------------------------------------------------------------------
# Serialization


class GraphFormatError(ValueError):
    pass


def print_graph(obj: Union[Graph, PointedGraph]) -> str:
    """Render the line-oriented text format (deterministic ordering)."""
    if isinstance(obj, PointedGraph):
        g, focus = obj.graph, obj.focus
    else:
        g, focus = obj, None
    lines = [f"graph {g.node_count} {g.colours}"]
    for v in range(g.node_count):
        bits = "".join(str(b) for b in g.labels[v])
        lines.append(f"node {v} {bits}")
    for s, d in sorted(g.edges):
        lines.append(f"edge {s} {d}")
    if focus is not None:
        lines.append(f"focus {focus}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Union[Graph, PointedGraph]:
    """Parse the text format; returns a PointedGraph iff a focus line exists."""
    header: Optional[tuple[int, int]] = None
    labels: dict[int, tuple[int, ...]] = {}
    edges: set[tuple[int, int]] = set()
    focus: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "graph" and len(parts) == 3:
                if header is not None:
                    raise GraphFormatError(f"line {lineno}: duplicate header")
                header = (int(parts[1]), int(parts[2]))
            elif parts[0] == "node" and len(parts) == 3:
                if int(parts[1]) in labels:
                    raise GraphFormatError(f"line {lineno}: duplicate node")
                if not set(parts[2]) <= {"0", "1"}:
                    raise GraphFormatError(f"line {lineno}: labels must be 0/1")
                labels[int(parts[1])] = tuple(int(b) for b in parts[2])
            elif parts[0] == "edge" and len(parts) == 3:
                edges.add((int(parts[1]), int(parts[2])))
            elif parts[0] == "focus" and len(parts) == 2:
                if focus is not None:
                    raise GraphFormatError(f"line {lineno}: duplicate focus")
                focus = int(parts[1])
            else:
                raise GraphFormatError(f"line {lineno}: unrecognized line {line!r}")
        except ValueError as exc:
            if isinstance(exc, GraphFormatError):
                raise
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise GraphFormatError("missing 'graph <node_count> <colours>' header")
    n, colours = header
    # The count first: ``range(n)`` is only built for as many ids as lines.
    if len(labels) != n or sorted(labels) != list(range(n)):
        raise GraphFormatError("node lines must cover ids 0..node_count-1")
    try:
        g = Graph(
            node_count=n,
            colours=colours,
            edges=frozenset(edges),
            labels=tuple(labels[v] for v in range(n)),
        )
        return g if focus is None else PointedGraph(g, focus)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Generators (deterministic in the seed; self-validating)


def _random_labels(
    rng: random.Random, node_count: int, colours: int, mark_focus: Optional[int]
) -> tuple[tuple[int, ...], ...]:
    """Random bits everywhere except the last colour, which marks the focus
    (when requested) and is cleared elsewhere."""
    out = []
    for v in range(node_count):
        bits = [rng.randint(0, 1) for _ in range(colours)]
        if mark_focus is not None:
            bits[colours - 1] = 1 if v == mark_focus else 0
        out.append(tuple(bits))
    return tuple(out)


def gen_pointed(
    rng_seed: int, node_count: int, colours: int, edge_prob: float
) -> PointedGraph:
    """Random pointed graph with no class constraints."""
    if node_count < 1:
        raise ValueError("need at least one node")
    rng = random.Random(f"pointed-{rng_seed}")
    edges = frozenset(
        (s, d)
        for s in range(node_count)
        for d in range(node_count)
        if rng.random() < edge_prob
    )
    g = Graph(node_count, colours, edges, _random_labels(rng, node_count, colours, None))
    return PointedGraph(g, rng.randrange(node_count))


def gen_marked(
    rng_seed: int, node_count: int, colours: int, edge_prob: float
) -> PointedGraph:
    """Random pointed graph whose focus is marked by the last colour."""
    if node_count < 1:
        raise ValueError("need at least one node")
    rng = random.Random(f"marked-{rng_seed}")
    focus = rng.randrange(node_count)
    edges = frozenset(
        (s, d)
        for s in range(node_count)
        for d in range(node_count)
        if rng.random() < edge_prob
    )
    g = Graph(node_count, colours, edges, _random_labels(rng, node_count, colours, focus))
    if not is_marked(g, focus, colours - 1):
        raise RuntimeError("generated focus is not marked")
    return PointedGraph(g, focus)


def gen_strongly_marked(
    rng_seed: int, node_count: int, colours: int, edge_prob: float
) -> PointedGraph:
    """Like gen_marked, with a self-loop forced at the focus."""
    pg = gen_marked(rng_seed, node_count, colours, edge_prob)
    g = pg.graph
    if (pg.focus, pg.focus) not in g.edges:
        g = Graph(
            g.node_count,
            g.colours,
            g.edges | {(pg.focus, pg.focus)},
            g.labels,
        )
        pg = PointedGraph(g, pg.focus)
    if not is_strongly_marked(pg.graph, pg.focus, g.colours - 1):
        raise RuntimeError("generated focus is not strongly marked")
    return pg


def gen_regular_strongly_marked(
    rng_seed: int, node_count: int, colours: int, in_degree: int, out_degree: int
) -> PointedGraph:
    """Circulant digraph (offset 0 forces self-loops everywhere) with a
    marked focus.  In a graph where all in-degrees and all out-degrees are
    uniform the two values necessarily agree, so distinct arguments are
    rejected as infeasible."""
    if in_degree != out_degree:
        raise ValueError("uniform in/out degrees must agree (degree sums match)")
    d = in_degree
    if not 1 <= d <= node_count:
        raise ValueError("degree must be between 1 and node_count")
    rng = random.Random(f"regular-{rng_seed}")
    offsets = [0] + rng.sample(range(1, node_count), d - 1)
    edges = frozenset(
        (v, (v + o) % node_count) for v in range(node_count) for o in offsets
    )
    focus = rng.randrange(node_count)
    g = Graph(
        node_count, colours, edges, _random_labels(rng, node_count, colours, focus)
    )
    if not (is_regular(g) and is_strongly_marked(g, focus, colours - 1)):
        raise RuntimeError("generated graph is not regular and strongly marked")
    return PointedGraph(g, focus)


def _single_node_member(rng: random.Random, colours: int) -> PointedGraph:
    """One marked, self-looped node: a member of every tree-like class."""
    g = Graph(
        1,
        colours,
        frozenset({(0, 0)}),
        _random_labels(rng, 1, colours, 0),
    )
    return PointedGraph(g, 0)


def _circulant_member(
    rng: random.Random, phi: PmlFormula, colours: int
) -> PointedGraph:
    """Directed cycle with self-loops everywhere, wide enough that
    trace-respecting walks never wrap; marked focus at node 0."""
    n = 2 * modal_depth(phi) + 2
    edges = frozenset(
        (v, (v + o) % n) for v in range(n) for o in (0, 1)
    )
    g = Graph(n, colours, edges, _random_labels(rng, n, colours, 0))
    return PointedGraph(g, 0)


# Most nodes a trace tree may have; a larger one is not built, and the
# class member falls back to the circulant one.  ``gen_tree_like`` also
# checks a candidate only when its node count times the formula's trace
# count stays within it.
MAX_TREE_NODES = 4096


def _side_nodes(branching: int, depth: int) -> int:
    """``b + b**2 + ... + b**depth`` for ``b = branching``, counted only
    until it passes ``MAX_TREE_NODES``."""
    total, level = 0, 1
    for _ in range(depth):
        level *= branching
        total += level
        if total > MAX_TREE_NODES:
            break
    return total


def _two_sided_tree(
    rng: random.Random, phi: PmlFormula, branching: int, colours: int
) -> Optional[PointedGraph]:
    """Trace tree for families whose traces are direction-homogeneous.

    Out-traces grow an out-tree below the focus, in-traces an in-tree; a
    side keeps the requested branching only when the other side is absent
    (otherwise converging siblings would share trace sets).  None when the
    traces are mixed or the tree would pass ``MAX_TREE_NODES`` nodes.
    Nodes are numbered in preorder, each subtree before the next sibling.
    """
    fam = _traces(phi)
    if any(len(set(t)) > 1 for t in fam):
        return None
    out_depth = max((len(t) for t in fam if t and t[0] is Modality.E_OUT), default=0)
    in_depth = max((len(t) for t in fam if t and t[0] is Modality.E_IN), default=0)
    b_out = branching if in_depth == 0 else 1
    b_in = branching if out_depth == 0 else 1
    if 1 + _side_nodes(b_out, out_depth) + _side_nodes(b_in, in_depth) > MAX_TREE_NODES:
        return None
    edges = {(0, 0)}  # focus self-loop (walk prefixes may stall here)
    n = 1
    for limit, b, side in ((out_depth, b_out, Modality.E_OUT), (in_depth, b_in, Modality.E_IN)):
        # Each entry is one child still to grow: (its parent, its depth).
        todo = [(0, 1)] * b if limit else []
        while todo:
            at, depth = todo.pop()
            child, n = n, n + 1
            edges.add((at, child) if side is Modality.E_OUT else (child, at))
            if depth < limit:
                edges.add((child, child))
                todo.extend([(child, depth + 1)] * b)
    g = Graph(
        n, colours, frozenset(edges), _random_labels(rng, n, colours, 0)
    )
    return PointedGraph(g, 0)


def gen_tree_like(
    rng_seed: int,
    phi: PmlFormula,
    branching: int,
    colours: int,
    regular: bool,
) -> PointedGraph:
    """Member of the formula's tree-like class (re-checked; falls back to a
    self-looped cycle and finally a single node when the richer shapes are
    rejected).  With ``regular=True`` the result is additionally regular.
    Only the single node is checked past ``MAX_TREE_NODES`` (see there)."""
    if branching < 1:
        raise ValueError("branching must be positive")
    rng = random.Random(f"tree-like-{rng_seed}")
    mark = colours - 1
    candidates: list[PointedGraph] = []
    if not regular:
        tree = _two_sided_tree(rng, phi, branching, colours)
        if tree is not None:
            candidates.append(tree)
    candidates.append(_circulant_member(rng, phi, colours))
    candidates.append(_single_node_member(rng, colours))
    work = len(_traces(phi))
    for pg in candidates:
        if regular and not is_regular(pg.graph):
            continue
        if pg.graph.node_count > 1 and pg.graph.node_count * work > MAX_TREE_NODES:
            continue
        ok, _ = check_tree_like(phi, pg, mark)
        if ok:
            return pg
    raise AssertionError("no tree-like candidate validated")  # pragma: no cover


# Largest node count ``class_instance`` draws unless the caller says.
DEFAULT_MAX_NODES = 8


def class_instance(
    tag: str,
    seed: int,
    rng: random.Random,
    phi: PmlFormula,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> PointedGraph:
    """One member of the graph class named by a class tag, sized for ``phi``.

    ``rng`` draws the node count (1..``max_nodes``), the edge probability
    and, per class, the degree or the tree branching; ``seed`` drives the
    class generator itself.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    n = rng.randint(1, max_nodes)
    p = rng.choice([0.2, 0.5, 0.8])
    if tag == "any":
        return gen_pointed(seed, n, max_prop(phi) + 1, p)
    colours = max_prop(phi) + 2
    if tag == "marked":
        return gen_marked(seed, n, colours, p)
    if tag == "strong":
        return gen_strongly_marked(seed, n, colours, p)
    if tag == "regular-strong":
        d = rng.randint(1, n)
        return gen_regular_strongly_marked(seed, n, colours, d, d)
    return gen_tree_like(
        seed, phi, rng.randint(1, 2), colours, tag == "regular-tree-like"
    )
