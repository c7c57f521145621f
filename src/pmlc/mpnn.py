"""Message-passing networks: data model, exact evaluator, judge, file format.

A network is a stack of layers, each pairing a combination Fnn with three
aggregators — one over in-neighbour states, one over out-neighbour states,
one over all node states.  Evaluation is synchronous and exact: every node's
next state is the comb applied to

    [previous state || in-aggregate || out-aggregate || global aggregate]

so the comb input width is always four times the state width.

The evaluator holds a layer's state as columns, one per state dim: the
integer numerators of that dim at every node over one denominator.  Each
comb's lowered program (``Fnn.program``) runs once per layer over all
nodes; only the dims it reads are aggregated, one column per port dim,
and each output column is reduced by one gcd.  Values become ``Fraction``
only where the API returns them.  Every comb input is nonnegative (labels
are 0/1, states are ReLU outputs, and aggregates are means, sums or maxima
of those), which the programs' copy lanes and kernels need.

A network whose combs read no neighbour port (the global constructions)
runs on its label classes instead of its nodes: one entry per distinct
label vector, weighted by how many nodes carry it.  Such a comb reads a
node's own state and the global aggregate only, so nodes with equal
labels hold equal states at every layer; the classes follow from the
programs' reads, never from a size.  Only the tables the API returns are
expanded to nodes.

Aggregation scatters along edges rather than gathering over each node's
neighbourhood: it visits only a column's nonzero nodes and adds each value
into every group that holds its node (or compares it, for max).  Since
columns are nonnegative that is exact, and it is cheap on the streams the
local constructions mask by the focus mark, which are zero almost
everywhere.  An all-zero column costs nothing, and the global port is one
weighted sum, mean or maximum over the entries, broadcast to them all.

Judgement reads the focus node's last state dimension and compares it
against the recognition value n^(-e): compiled networks either hit it
exactly or land on exactly 0, and anything else is reported as malformed
rather than rounded.  Networks carry their own acceptance contract (certainty exponent,
inverted flag, required graph class, mark colour, source formula), so a
serialized network file is self-describing.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from collections import Counter
from itertools import compress
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .graphs import (
    Graph,
    PointedGraph,
    check_tree_like,
    is_marked,
    is_regular,
    is_strongly_marked,
    neigh,
)
from .logic import PmlFormula, parse_formula
from .net import (
    Column,
    Fnn,
    FnnLayer,
    Rational,
    ZERO,
    format_rational,
    parse_rational,
    rat,
)

class Aggregator(enum.Enum):
    MEAN = "mean"
    SUM = "sum"
    MAX = "max"


def mean_scale(groups: Sequence[Sequence[int]]) -> tuple[int, Optional[list[int]]]:
    """``(L, factors)`` for means over ``groups``: ``L`` is the lcm of the
    nonzero group sizes, and ``factors[k]`` is ``L // len(groups[k])``
    (0 for an empty group), or None when all nonzero sizes are equal."""
    sizes = [len(grp) for grp in groups]
    distinct = set(sizes)
    distinct.discard(0)
    top = lcm(*distinct)
    if len(distinct) <= 1:
        return top, None
    return top, [top // k if k else 0 for k in sizes]


def aggregate(
    a: Aggregator,
    col: Column,
    members: Optional[Sequence[Sequence[int]]],
    width: int,
    scale: tuple[int, Optional[list[int]]],
    weights: Optional[Sequence[int]] = None,
) -> Column:
    """Combine the column ``col`` over ``width`` groups of nodes: one
    numerator per group, over one denominator.  ``members[u]`` lists the
    groups that hold node ``u``; an empty group gives 0.  With ``members``
    None there is one group, of every node (the global port), and entry
    ``u`` of the column stands for ``weights[u]`` nodes, or for one when
    ``weights`` is None.

    Only the column's nonzero entries are read: each is added into, or
    for a maximum compared with, every group that holds its node, and a
    column with none gives a zero column at once.  That is exact because
    every column is nonnegative, so the zeros add nothing and a maximum
    over the nonzero entries, 0 when there are none, is the maximum over
    the whole group.

    Sums and maxima keep the column's denominator ``d``.  A mean has the
    denominator ``d * L`` and scales group ``k`` by ``L / size_k`` as its
    entries are added in; ``scale`` is ``mean_scale`` of the groups,
    computed once per graph and read only by means.
    """
    nums, den = col
    if members is not None and len(nums) != len(members):
        raise ValueError(
            f"the column has {len(nums)} nodes, the member lists {len(members)}"
        )
    top, factors = scale
    if a is Aggregator.MEAN:
        den *= top
    if not any(nums):
        return [0] * width, den
    if members is None:
        if a is Aggregator.MAX:
            return [max(nums)], den
        return [sum(nums) if weights is None else sum(map(mul, nums, weights))], den
    out = [0] * width
    try:
        if a is Aggregator.MAX:
            for u in compress(range(len(nums)), nums):
                x = nums[u]
                for k in members[u]:
                    if out[k] < x:
                        out[k] = x
        elif a is Aggregator.MEAN and factors is not None:
            for u in compress(range(len(nums)), nums):
                x = nums[u]
                for k in members[u]:
                    out[k] += x * factors[k]
        else:
            for u in compress(range(len(nums)), nums):
                x = nums[u]
                for k in members[u]:
                    out[k] += x
    except IndexError:
        raise ValueError("a node is a member of a group past the width") from None
    return out, den


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class CertaintyDescriptor:
    """Recognition certainty c(n) = n^(-exponent); exponent 0 means 1."""

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("certainty exponent must be a natural number")

    def value(self, node_count: int) -> Rational:
        return rat(1, node_count ** self.exponent)


@dataclass(frozen=True)
class MpnnLayer:
    comb: Fnn
    loc_in: Aggregator
    loc_out: Aggregator
    glob: Aggregator
    in_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        if self.comb.input_dim != 4 * self.in_dim:
            raise ValueError(
                "comb input width must be 4 * state width "
                f"({self.comb.input_dim} != {4 * self.in_dim})"
            )
        if self.comb.output_dim != self.out_dim:
            raise ValueError("comb output width disagrees with out_dim")


CLASS_TAGS = (
    "any",
    "marked",
    "strong",
    "regular-strong",
    "tree-like",
    "regular-tree-like",
)


@dataclass(frozen=True)
class Mpnn:
    colours: int
    layers: tuple[MpnnLayer, ...]
    certainty: CertaintyDescriptor
    inverted: bool
    required_class: str
    mark_colour: Optional[int] = None
    formula_text: Optional[str] = None
    dimension_names: Optional[tuple[tuple[str, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.colours < 1:
            raise ValueError("need at least one colour")
        if self.required_class not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.required_class!r}")
        width = self.colours
        for layer in self.layers:
            if layer.in_dim != width:
                raise ValueError("layer input widths do not chain")
            width = layer.out_dim
        if self.dimension_names is not None:
            if len(self.dimension_names) != len(self.layers):
                raise ValueError("dimension names must cover every layer")
            for names, layer in zip(self.dimension_names, self.layers):
                if len(names) != layer.out_dim:
                    raise ValueError("dimension name row width mismatch")
                for name in names:
                    if name.split() != [name]:  # empty, or holds whitespace
                        raise ValueError(f"bad dimension name {name!r}")
        needs_mark = self.required_class not in ("any",)
        if needs_mark and self.mark_colour is None:
            raise ValueError(f"class {self.required_class!r} needs a mark colour")
        if self.mark_colour is not None and not 0 <= self.mark_colour < self.colours:
            raise ValueError("mark colour out of range")
        if self.required_class in ("tree-like", "regular-tree-like"):
            if self.formula_text is None:
                raise ValueError("tree-like classes need the source formula")

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim if self.layers else self.colours

    @functools.cached_property
    def formula(self) -> Optional[PmlFormula]:
        """The parsed source formula, parsed on first use and kept with the
        network (outside equality and hashing)."""
        return None if self.formula_text is None else parse_formula(self.formula_text)

    @functools.cached_property
    def reads_neighbours(self) -> bool:
        """Whether some comb reads the in or out port, found once from
        the lowered programs and kept like ``formula``."""
        return any(
            layer.in_dim <= i < 3 * layer.in_dim
            for layer in self.layers
            for i in layer.comb.program.reads
        )


# ---------------------------------------------------------------------------
# Evaluation


def fnn_eval(comb: Fnn, cols: Sequence[Column], n: int) -> list[Column]:
    """One layer's comb over ``n`` entries (nodes or label classes), on
    the columns its program reads; the column form of
    ``pmlc.net.fnn_eval``."""
    return comb.program.run(cols, n)


def _states_after(
    m: Mpnn, g: Graph, keep_trace: bool
) -> tuple[list[list[Column]], Optional[list[int]]]:
    """The column tables from the labels to the last layer, or only the
    last one unless ``keep_trace``, and each node's entry in them (None
    when entry ``v`` is node ``v``).

    A network that reads no neighbour port runs on its label classes: one
    entry per distinct label vector, in first-seen order, weighted by the
    number of nodes that carry it.  Its combs read only a node's own state
    and the global aggregate, so by induction over the layers nodes with
    equal labels hold equal states, and the weighted global sums, means
    and maxima are those over the nodes.  Any other network, and a graph
    whose labels are all distinct, runs on its nodes."""
    if g.colours != m.colours:
        raise ValueError(
            f"graph has {g.colours} colours, network expects {m.colours}"
        )
    n = g.node_count
    nodes = range(n)
    labels, weights, cls = g.labels, None, None
    if not m.reads_neighbours:
        counts = Counter(labels)
        if len(counts) < n:
            labels, weights = list(counts), list(counts.values())
            cls = list(map(dict(zip(labels, range(len(labels)))).__getitem__, g.labels))
    k = len(labels)
    # The first comb reads only some colours, so only their label columns
    # are built, unless the trace or a network without layers returns them.
    if keep_trace or not m.layers:
        colours = range(m.colours)
    else:
        colours = {i % m.colours for i in m.layers[0].comb.program.reads}
    cols = {c: ([lab[c] for lab in labels], 1) for c in colours}
    tables = [list(cols.values())]
    # The in and out ports as (members, group count, mean scale): node u's
    # value goes to the nodes it has edges into on the in port, and to
    # those it has edges from on the out port.  They are built on their
    # first read; the global networks never read them.  The global port
    # is the one group of all n nodes.
    hoods = [None, None, (None, 1, mean_scale((nodes,)))]
    for layer in m.layers:
        aggregators = (layer.loc_in, layer.loc_out, layer.glob)
        inputs = []
        for i in layer.comb.program.reads:
            port, dim = divmod(i, layer.in_dim)
            if port == 0:
                inputs.append(cols[dim])
                continue
            if hoods[port - 1] is None:
                ins = [neigh(g, v, "in") for v in nodes]
                outs = [neigh(g, v, "out") for v in nodes]
                hoods[:2] = (outs, n, mean_scale(ins)), (ins, n, mean_scale(outs))
            members, width, scale = hoods[port - 1]
            nums, den = aggregate(
                aggregators[port - 1], cols[dim], members, width, scale, weights
            )
            inputs.append((nums * k if port == 3 else nums, den))
        cols = fnn_eval(layer.comb, inputs, k)
        if not keep_trace:
            tables.clear()
        tables.append(cols)
    return tables, cls


def _fractions(cols: list[Column], cls: Optional[list[int]]) -> list[list[Rational]]:
    """A column table as one row of ``Fraction`` per node, node ``v``
    reading entry ``cls[v]`` (entry ``v`` when ``cls`` is None); each
    distinct numerator of a column becomes one ``Fraction``."""
    per_col = []
    for nums, den in cols:
        value = {x: rat(x, den) for x in set(nums)}
        entries = nums if cls is None else map(nums.__getitem__, cls)
        per_col.append(map(value.__getitem__, entries))
    return [list(row) for row in zip(*per_col)]


def mpnn_eval(m: Mpnn, g: Graph) -> list[list[Rational]]:
    """Final state vector of every node after all synchronous rounds."""
    (cols,), cls = _states_after(m, g, keep_trace=False)
    return _fractions(cols, cls)


def mpnn_eval_traced(m: Mpnn, g: Graph) -> list[list[list[Rational]]]:
    """All intermediate state tables: entry 0 is the labels, entry L is final."""
    tables, cls = _states_after(m, g, keep_trace=True)
    return [_fractions(cols, cls) for cols in tables]


# ---------------------------------------------------------------------------
# Judgement


class ClassViolation(Exception):
    """The judged graph is outside the network's required class."""


@dataclass(frozen=True)
class Verdict:
    kind: str  # "accept" | "reject" | "malformed"
    value: Rational

    @property
    def accepted(self) -> bool:
        return self.kind == "accept"


def check_required_class(m: Mpnn, pg: PointedGraph) -> None:
    """Raise ClassViolation unless pg belongs to m.required_class."""
    tag = m.required_class
    if tag == "any":
        return
    g, v, colour = pg.graph, pg.focus, m.mark_colour
    if tag == "marked":
        if not is_marked(g, v, colour):
            raise ClassViolation(f"focus {v} is not uniquely marked")
        return
    if tag in ("strong", "regular-strong"):
        if not is_strongly_marked(g, v, colour):
            raise ClassViolation(f"focus {v} is not strongly marked")
        if tag == "regular-strong" and not is_regular(g):
            raise ClassViolation("graph is not regular")
        return
    # tree-like variants
    ok, witness = check_tree_like(m.formula, pg, colour)
    if not ok:
        raise ClassViolation(f"graph is not tree-like for the formula: {witness}")
    if tag == "regular-tree-like" and not is_regular(g):
        raise ClassViolation("graph is not regular")


def judge(m: Mpnn, pg: PointedGraph) -> Verdict:
    """Read the focus's last dimension and map it to a verdict.

    Normal networks accept at exactly n^(-e) and reject at exactly 0.
    Inverted networks (the homogeneous construction) accept at 0, reject at
    any value >= n^(-e), and values strictly in between are malformed.
    """
    check_required_class(m, pg)
    states = mpnn_eval(m, pg.graph)
    value = states[pg.focus][-1]
    target = m.certainty.value(pg.graph.node_count)
    if m.inverted:
        if value == ZERO:
            return Verdict("accept", value)
        if value >= target:
            return Verdict("reject", value)
        return Verdict("malformed", value)
    if value == target:
        return Verdict("accept", value)
    if value == ZERO:
        return Verdict("reject", value)
    return Verdict("malformed", value)


# ---------------------------------------------------------------------------
# Serialization


class MpnnFormatError(ValueError):
    pass


def print_mpnn(m: Mpnn) -> str:
    lines = ["mpnn"]
    lines.append(f"colours {m.colours}")
    lines.append(f"certainty {m.certainty.exponent}")
    lines.append(f"inverted {1 if m.inverted else 0}")
    lines.append(f"class {m.required_class}")
    lines.append(f"markcolour {'-' if m.mark_colour is None else m.mark_colour}")
    lines.append(f"formula {'-' if m.formula_text is None else m.formula_text}")
    lines.append(f"layers {len(m.layers)}")
    for i, layer in enumerate(m.layers):
        lines.append(
            f"layer {i} {layer.loc_in.value} {layer.loc_out.value} "
            f"{layer.glob.value} {layer.in_dim} {layer.out_dim}"
        )
        if m.dimension_names is not None:
            lines.append("dims " + " ".join(m.dimension_names[i]))
        lines.append(f"fnn {len(layer.comb.layers)}")
        for fl in layer.comb.layers:
            lines.append(f"fnnlayer {fl.input_dim} {len(fl.neurons)}")
            for bias, weights in fl.neurons:
                parts = [f"neuron {format_rational(bias)}"]
                parts.extend(f"{idx}:{format_rational(w)}" for idx, w in weights)
                lines.append(" ".join(parts))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = [
            ln.strip()
            for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        self.pos = 0

    def next(self, expect: Optional[str] = None) -> str:
        if self.pos >= len(self.lines):
            raise MpnnFormatError("unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        if expect is not None and not line.startswith(expect):
            raise MpnnFormatError(f"expected {expect!r}, found {line!r}")
        return line

    def peek(self) -> Optional[str]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None


def _int_field(line: str, name: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != name:
        raise MpnnFormatError(f"malformed {name!r} line: {line!r}")
    try:
        return int(parts[1])
    except ValueError as exc:
        raise MpnnFormatError(f"bad integer in {line!r}") from exc


def parse_mpnn(text: str) -> Mpnn:
    r = _LineReader(text)
    if r.next() != "mpnn":
        raise MpnnFormatError("missing mpnn header")
    colours = _int_field(r.next("colours"), "colours")
    exponent = _int_field(r.next("certainty"), "certainty")
    inverted_flag = _int_field(r.next("inverted"), "inverted")
    if inverted_flag not in (0, 1):
        raise MpnnFormatError("inverted flag must be 0 or 1")
    class_line = r.next("class").split()
    if len(class_line) != 2:
        raise MpnnFormatError("malformed class line")
    required_class = class_line[1]
    mark_line = r.next("markcolour").split()
    if len(mark_line) != 2:
        raise MpnnFormatError("malformed markcolour line")
    try:
        mark_colour = None if mark_line[1] == "-" else int(mark_line[1])
    except ValueError as exc:
        raise MpnnFormatError(f"bad mark colour {mark_line[1]!r}") from exc
    formula_line = r.next("formula")
    formula_rest = formula_line[len("formula"):].strip()
    formula_text = None if formula_rest == "-" else formula_rest
    layer_count = _int_field(r.next("layers"), "layers")
    if layer_count < 0:
        raise MpnnFormatError(f"negative layer count {layer_count}")
    # A layer divides by a node count at most once (in its means), so the
    # compiled networks reach n^(-e) only with e <= layers; a larger exponent
    # would only make ``judge`` compute n ** e without bound.
    if exponent > layer_count:
        raise MpnnFormatError(
            f"certainty exponent {exponent} exceeds the layer count {layer_count}"
        )
    # One table per parse and per kind (a weight ``1/1`` is not the term
    # ``1/1``): a repeated neuron line, term or rational is parsed once,
    # and the network holds one object for all its copies.
    rationals: dict[str, Rational] = {}
    terms: dict[str, tuple[int, Rational]] = {}
    lines: dict[str, tuple] = {}

    def share(table: dict, text: str, make):
        value = table.get(text)
        if value is None:
            value = table[text] = make(text)
        return value

    def term(text: str) -> tuple[int, Rational]:
        idx_text, _, num_text = text.partition(":")
        return int(idx_text), share(rationals, num_text, parse_rational)

    def neuron(line: str):
        parts = line.split()
        return share(rationals, parts[1], parse_rational), tuple(
            share(terms, w, term) for w in parts[2:]
        )

    layers = []
    dim_rows: list[tuple[str, ...]] = []
    saw_dims = False
    try:
        for i in range(layer_count):
            head = r.next("layer").split()
            if len(head) != 7 or int(head[1]) != i:
                raise MpnnFormatError(f"malformed layer header: {head!r}")
            loc_in, loc_out, glob = (Aggregator(x) for x in head[2:5])
            in_dim, out_dim = int(head[5]), int(head[6])
            nxt = r.peek()
            if nxt is not None and nxt.startswith("dims"):
                saw_dims = True
                dim_rows.append(tuple(r.next().split()[1:]))
            elif saw_dims:
                raise MpnnFormatError("dims rows must cover all layers or none")
            fnn_layers = _int_field(r.next("fnn"), "fnn")
            fls = []
            for _ in range(fnn_layers):
                fh = r.next("fnnlayer").split()
                if len(fh) != 3:
                    raise MpnnFormatError(f"malformed fnnlayer line: {fh!r}")
                input_dim, neuron_count = int(fh[1]), int(fh[2])
                if neuron_count < 0:
                    raise MpnnFormatError(f"negative neuron count {neuron_count}")
                neurons = tuple(
                    share(lines, r.next("neuron"), neuron)
                    for _ in range(neuron_count)
                )
                fls.append(FnnLayer(input_dim, neurons))
            layers.append(
                MpnnLayer(Fnn(tuple(fls)), loc_in, loc_out, glob, in_dim, out_dim)
            )
        if r.next() != "end":
            raise MpnnFormatError("missing end line")
        if r.peek() is not None:
            raise MpnnFormatError(f"trailing content: {r.peek()!r}")
        return Mpnn(
            colours=colours,
            layers=tuple(layers),
            certainty=CertaintyDescriptor(exponent),
            inverted=bool(inverted_flag),
            required_class=required_class,
            mark_colour=mark_colour,
            formula_text=formula_text,
            dimension_names=tuple(dim_rows) if saw_dims else None,
        )
    except MpnnFormatError:
        raise
    except (ValueError, IndexError) as exc:
        raise MpnnFormatError(f"malformed network file: {exc}") from exc


# ---------------------------------------------------------------------------
# Random networks (for the inexpressibility demo and invariance tests)


def random_mpnn(
    rng: random.Random,
    colours: int,
    max_layers: int = 3,
    max_dim: int = 3,
    aggregators: Sequence[Aggregator] = (Aggregator.MEAN,),
) -> Mpnn:
    """A dense random network with rational weights; class-free metadata."""

    def coeff() -> Rational:
        return rat(rng.randint(-3, 3), rng.randint(1, 4))

    layers = []
    width = colours
    for _ in range(rng.randint(1, max_layers)):
        out_dim = rng.randint(1, max_dim)
        neurons = tuple(
            (
                coeff(),
                tuple((i, coeff()) for i in range(4 * width)),
            )
            for _ in range(out_dim)
        )
        comb = Fnn((FnnLayer(4 * width, neurons),))
        layers.append(
            MpnnLayer(
                comb,
                rng.choice(list(aggregators)),
                rng.choice(list(aggregators)),
                rng.choice(list(aggregators)),
                width,
                out_dim,
            )
        )
        width = out_dim
    return Mpnn(
        colours=colours,
        layers=tuple(layers),
        certainty=CertaintyDescriptor(0),
        inverted=False,
        required_class="any",
    )
