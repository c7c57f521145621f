"""Feedforward ReLU networks over exact rationals, and the circuit builder.

Everything here is exact: weights, biases and values are
``fractions.Fraction``, so threshold and min gadgets hit their target
values with zero error — the recognition certainty of the compiled
networks depends on exact equality at the focus.

The building blocks:

* ``FnnLayer`` / ``Fnn`` — sparse neurons ``relu(bias + sum w_i x_i)``.
* ``Program`` — an Fnn lowered once (cached as ``Fnn.program``) to integer
  rows over the columns of all nodes, one denominator per column.
  Identity carries become copy lanes, neurons with the same bias and
  merged terms share one row, rows that feed no output, also through
  weights that cancel, are dropped, and the program records which inputs
  it reads.  It runs as its kernel: a generated function, built on first
  use and shared by equal programs, that walks the nodes once and runs
  every row at each node as straight-line integer code.  ``fnn_eval`` (on
  one-node columns) and the message-passing evaluator both run it.
* ``Circuit`` — a named-port builder that assembles neurons into one Fnn,
  padding depth mismatches with identity ReLUs (sound because every
  routed value is nonnegative).  The Fnn's last layer is the output
  neurons themselves, in declaration order; no layer follows only to
  re-emit them, and it holds only neurons that feed an output (found by
  ``backward_live``).  It carries the one gadget
  set the compilers use: ``min_``, ``mask01``, ``flag_at``, ``not_at``,
  ``and_at`` and ``sum_of``.  Every scale a gadget works at is a ref.
"""

from __future__ import annotations

import builtins
import functools
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

Rational = Fraction
RationalLike = Union[int, Rational]
rat = Fraction

ZERO = rat(0)
ONE = rat(1)


def format_rational(q: RationalLike) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Rational:
    parts = text.split("/")
    if len(parts) == 1:
        return rat(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return rat(num, den)
    raise ValueError(f"not a rational: {text!r}")


# ---------------------------------------------------------------------------
# Networks


@dataclass(frozen=True)
class FnnLayer:
    """One ReLU layer; neurons store (bias, ((input_index, weight), ...))."""

    input_dim: int
    neurons: tuple[tuple[Rational, tuple[tuple[int, Rational], ...]], ...]

    def __post_init__(self) -> None:
        for bias, weights in self.neurons:
            for idx, _w in weights:
                if not 0 <= idx < self.input_dim:
                    raise ValueError(f"weight index {idx} out of range")

    @property
    def output_dim(self) -> int:
        return len(self.neurons)


@dataclass(frozen=True)
class Fnn:
    layers: tuple[FnnLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("an Fnn needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.input_dim != a.output_dim:
                raise ValueError("adjacent layer dimensions do not compose")

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    @functools.cached_property
    def program(self) -> Program:
        """The lowered program, built on first use and kept with the
        network (outside equality and hashing)."""
        return lower(self)


# A column: one nonnegative numerator per node over one shared denominator.
Column = tuple[list[int], int]


@dataclass(frozen=True)
class Program:
    """An Fnn as integer rows over columns, for nonnegative inputs.

    A program runs once over all nodes of a graph: every register holds a
    column, the numerators of one value at every node over one
    denominator.  Registers ``0 .. len(reads)-1`` hold the input columns
    listed in ``reads``; row ``k`` writes register ``len(reads) + k``.

    A row ``(bias, ((r, c), ...), scale)`` is the neuron
    ``relu(bias/scale + sum (c/scale) * x_r)``, with ``scale`` the least
    static scale that makes its coefficients integers, and every row feeds
    an output (``lower`` keeps no other).  Output ``j`` is
    register ``outputs[j]`` itself, so a copy lane costs nothing and hands
    on its source column object; no column is changed in place.

    ``run`` calls the kernel, which equal programs share (see
    ``_segment``).  Per call it brings the input columns to one
    denominator ``D``, the lcm of theirs; ReLU is positively homogeneous,
    so every row holds its value times ``D`` and a static scale in
    integers, with no division.  Only the row outputs are reduced, by one
    gcd each, so every output column is in lowest terms and the same as a
    row-by-row evaluation would give.
    """

    reads: tuple[int, ...]
    rows: tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]
    outputs: tuple[int, ...]

    @functools.cached_property
    def kernel(self) -> Callable[[Sequence[Column], int], list[Column]]:
        """The generated function that runs the program, built on first
        use and shared by every program with the same input count, rows
        and outputs."""
        key = (len(self.reads), self.rows, self.outputs)
        kernel = _KERNELS.get(key)
        if kernel is None:
            kernel = _KERNELS[key] = _kernel(*key)
        return kernel

    def run(self, cols: Sequence[Column], n: int) -> list[Column]:
        """The output columns for input columns ``cols`` (one per entry of
        ``reads``, each with ``n`` numerators, all >= 0)."""
        return self.kernel(cols, n)


# Rows per generated function, terms per generated statement, and bits a
# row's static scale may exceed its own by: compile time and memory stay
# linear in a program's size, no expression nests deep enough to exhaust
# the compiler's stack, and no register grows far past its reduced value.
SEGMENT_ROWS = 256
STATEMENT_TERMS = 64
SCALE_BITS = 64

# Kernels by (input count, rows, outputs), in a weak table, so equal
# programs compile one kernel and it lives only while a program uses it.
_KERNELS: "weakref.WeakValueDictionary[tuple, Callable]" = weakref.WeakValueDictionary()


def _kernel(width: int, rows, outputs) -> Callable[[Sequence[Column], int], list[Column]]:
    """The kernel of a program with ``width`` inputs (see ``Program``).

    The rows are cut into segments, each one generated function from
    columns to columns: a segment holds at most ``SEGMENT_ROWS`` of them,
    and a row whose static scale there (see ``_scale``) would be more than
    ``SCALE_BITS`` bits longer than its own row scale starts a new one.  A
    segment hands on, as reduced columns, exactly the registers that a
    later row reads or that are outputs, so the next segment takes them as
    its inputs, at scale 1.
    """
    # Each segment as (its first row, {its rows' registers: scale}).
    segments: list[tuple[int, dict[int, int]]] = [(0, {})]
    for k, row in enumerate(rows):
        scale = segments[-1][1]
        r_scale = _scale(row, scale)
        grown = r_scale.bit_length() - row[2].bit_length() > SCALE_BITS
        if len(scale) == SEGMENT_ROWS or grown:
            segments.append((k, {}))
            scale, r_scale = segments[-1][1], _scale(row, {})
        scale[width + k] = r_scale
    handed = [tuple(outputs)]  # each segment's outputs, last segment first
    need = set(outputs)
    for start, scale in reversed(segments[1:]):
        need = {r for r in need if r < width + start}
        need.update(s for r in scale for s, _c in rows[r - width][1] if s < width + start)
        handed.append(tuple(sorted(need)))
    handed.reverse()
    steps = []
    ins = tuple(range(width))
    ends = [start for start, _s in segments[1:]] + [len(rows)]
    for (start, scale), end, outs in zip(segments, ends, handed):
        steps.append(_segment(ins, width + start, rows[start:end], scale, outs))
        ins = outs
    if len(steps) == 1:
        return steps[0]

    def run(cols: Sequence[Column], n: int) -> list[Column]:
        for step in steps:
            cols = step(cols, n)
        return cols

    return run


def _scale(row, scale: dict[int, int]) -> int:
    """The static scale of ``row`` over registers at ``scale`` (1 where
    absent): the least integer ``t`` that makes ``t * bias / f`` and, for
    each term ``(s, c)``, ``t * c / (f * scale[s])`` integers, ``f`` being
    the row's own scale."""
    bias, terms, f = row
    dens = [f // gcd(bias, f)]
    for s, c in terms:
        d = f * scale.get(s, 1)
        dens.append(d // gcd(c, d))
    return lcm(*dens)


def _reduced(nums: list[int], den: int) -> Column:
    """The column ``nums / den`` divided by ``gcd(den, *nums)``; an
    all-zero column is ``(nums, 1)``."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    if g == den and not any(nums):
        return nums, 1
    return [x // g for x in nums], den // g


# The globals of every kernel: only the builtins.
_KERNEL_GLOBALS = {"__builtins__": builtins}


def _segment(ins: tuple[int, ...], base: int, rows, scale: dict[int, int], outs: tuple[int, ...]):
    """One generated function: the input columns hold registers ``ins``,
    ``rows`` write registers ``base, base+1, ...``, and it returns the
    columns of registers ``outs``.  ``scale`` maps each row's register to
    its static scale.

    Per call it brings the columns its rows read to one denominator ``D``
    (the lcm of theirs): ``D // d`` is folded into the coefficient of an
    input that one term reads, and applied once per node to an input that
    several terms read.  Every register has a static scale: 1 for an
    input, and ``scale[r]`` for a row, the least that keeps its
    coefficients over its operands' scales integers.  A row holds its
    value times ``D`` times its scale, in integers and never reduced, and
    the rows run one node at a time as straight-line code.  Every value is
    nonnegative, so a row with no positive term or bias is 0, and one with
    no negative term or bias needs no ReLU.  Only output rows are reduced,
    by one gcd each; an input named in ``outs`` is returned as its own
    column object.

    Numbers from the program enter as default arguments of the generated
    function, never as source text, so no integer is ever formatted.
    """
    consts: dict[int, str] = {}  # constant -> its default argument

    def const(value: int) -> str:
        name = consts.get(value)
        if name is None:
            name = consts[value] = f"K{len(consts)}"
        return name

    pos = {r: i for i, r in enumerate(ins)}
    placed = list(enumerate(rows, base))
    read = {pos[s] for _r, (_b, terms, _s) in placed for s, _c in terms if s < base}
    used = sorted(read)
    handed = {pos[r] for r in outs if r < base}
    returned = set(outs)
    # Per call: the columns, D, and each input's multiplier D // d.  An
    # input the rows read is unpacked; one handed on keeps its column name.
    unpack = "".join(
        f"(n{i}, d{i}), " if i in read and i not in handed else f"c{i}, "
        for i in range(len(ins))
    )
    call = [f"({unpack}) = cols"] if ins else []
    call += [f"n{i}, d{i} = c{i}" for i in used if i in handed]
    dens = ", ".join(f"d{i}" for i in used)
    call.append(f"D = lcm({dens})" if len(used) > 1 else f"D = {dens or 1}")
    call += [f"m{i} = D // d{i}" for i in used]
    named: dict[tuple, str] = {}  # (constant, multiplier) -> per-call name

    def per_call(value: int, by: str) -> str:
        """The name of ``value * by``, computed once per call."""
        if value == 1:
            return by
        name = named.get((value, by))
        if name is None:
            name = named[value, by] = f"k{len(named)}"
            call.append(f"{name} = {const(value)} * {by}")
        return name

    # An input that several terms read is scaled to D once per node.
    uses = Counter(pos[s] for _r, (_b, terms, _s) in placed for s, _c in terms if s < base)
    node: list[str] = []
    reduced: dict[int, str] = {}  # output row -> its reduced column
    read_here = {s for _r, (_b, terms, _s) in placed for s, _c in terms if s >= base}
    for r, (bias, terms, row_scale) in placed:
        signed: list[tuple[int, str]] = []  # (sign, term)
        if bias:
            signed.append((bias, per_call(abs(bias) * scale[r] // row_scale, "D")))
        for s, c in terms:
            w = abs(c) * scale[r] // (row_scale * scale.get(s, 1))
            if s < base and uses[pos[s]] == 1:
                signed.append((c, f"{per_call(w, f'm{pos[s]}')} * a{pos[s]}"))
            elif s < base:
                signed.append((c, f"b{pos[s]}" if w == 1 else f"{const(w)} * b{pos[s]}"))
            else:
                signed.append((c, f"x{s}" if w == 1 else f"{const(w)} * x{s}"))
        plus = [x for c, x in signed if c > 0]
        minus = [x for c, x in signed if c < 0]
        pieces = [" + " + x for x in plus] + [" - " + x for x in minus]
        stored = r in returned
        if stored:
            call.append(f"o{r} = [0] * n")
            den = "D" if scale[r] == 1 else per_call(scale[r], "D")
            reduced[r] = f"R(o{r}, {den})"
        if not plus:
            # never positive: the value is 0, and an output stays all 0
            if r in read_here:
                node.append(f"x{r} = 0")
        elif stored and r not in read_here and not minus and len(pieces) <= STATEMENT_TERMS:
            node.append(f"o{r}[v] = {''.join(pieces)[3:]}")
        else:
            for j in range(0, len(pieces), STATEMENT_TERMS):
                expr = "".join(pieces[j:j + STATEMENT_TERMS])
                node.append(f"x{r} {'+=' if j else '='} {expr[1:] if j else expr[3:]}")
            if minus and r not in read_here:
                node.append(f"if x{r} > 0: o{r}[v] = x{r}")
            else:
                if minus:
                    node.append(f"if x{r} < 0: x{r} = 0")
                if stored:
                    node.append(f"o{r}[v] = x{r}")
    if node:
        node[:0] = [f"b{i} = m{i} * a{i}" for i in used if uses[i] > 1]
        if not used:
            head = "for v in range(n):"
        elif len(used) == 1:
            head = f"for v, a{used[0]} in enumerate(n{used[0]}):"
        else:
            head = (f"for v, ({', '.join(f'a{i}' for i in used)}) in "
                    f"enumerate(zip({', '.join(f'n{i}' for i in used)})):")
        call.append(head)
        call += ["    " + line for line in node]
    result = ", ".join(f"c{pos[r]}" if r < base else reduced[r] for r in outs)
    source = "\n".join([
        f"def kernel({', '.join(['cols', 'n', 'lcm', 'R', *consts.values()])}):",
        *("    " + line for line in call),
        f"    return [{result}]",
    ])
    (code,) = [c for c in compile(source, "<pmlc.net kernel>", "exec").co_consts
               if isinstance(c, CodeType)]
    return FunctionType(code, _KERNEL_GLOBALS, "kernel", (lcm, _reduced, *consts))


def backward_live(stages, need) -> tuple[list[list[int]], set[int]]:
    """Backward liveness over a stack of neuron stages, last stage first.

    A stage lists neurons ``(bias, ((index, weight), ...))`` over the
    stage before it (the inputs, for the first stage), and ``need`` the
    indices of the last stage's neurons that are used.  Returns, per
    stage, the sorted indices of the neurons that feed a needed one
    through a nonzero weight, and the set of inputs those read.  Each
    neuron's terms are taken as merged, one per index, as ``Circuit``
    keeps them.
    """
    live: list[list[int]] = []
    need = set(need)
    for stage in reversed(stages):
        live.append(sorted(need))
        need = {i for j in need for i, w in stage[j][1] if w}
    live.reverse()
    return live, need


def lower(n: Fnn) -> Program:
    """Lower ``n`` to a Program (see there).

    An identity carry ``relu(1*x)`` becomes a copy lane: it names its
    source register instead of taking one, which is exact because every
    input, and so every value, is nonnegative.  Each other neuron becomes
    a row at the least scale that makes its coefficients integers, over
    its terms merged by register, and neurons with the same bias and the
    same merged terms share one row.  Then only the rows that an output
    reaches through those merged terms are kept, and only the inputs they
    read, so a neuron read only through weights that cancel is dropped.
    """
    width = n.input_dim
    rows = []  # over registers 0 .. width-1 for every input
    written: dict[tuple, int] = {}  # row -> the register it writes
    reg = range(width)  # each neuron of the stage before -> its register
    for layer in n.layers:
        nxt = []
        for bias, weights in layer.neurons:
            merged: dict[int, Rational] = {}
            for i, w in weights:
                if w:
                    r = reg[i]
                    merged[r] = merged[r] + w if r in merged else w
            merged = {r: w for r, w in merged.items() if w}
            if bias == 0 and list(merged.values()) == [1]:
                nxt.extend(merged)  # copy lane
                continue
            f = lcm(bias.denominator, *(w.denominator for w in merged.values()))
            row = (int(bias * f), tuple(sorted((r, int(w * f)) for r, w in merged.items())), f)
            if row not in written:
                rows.append(row)
                written[row] = width + len(rows) - 1
            nxt.append(written[row])
        reg = nxt
    live = set(reg)
    for k in reversed(range(len(rows))):
        if width + k in live:
            live.update(r for r, _c in rows[k][1])
    reads = tuple(sorted(r for r in live if r < width))
    # Renumber: the reads, then the live rows.  The order is kept, so
    # each row's terms stay sorted.
    new = {r: i for i, r in enumerate(reads)}
    kept = []
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # one object per term
    for k, (bias, terms, f) in enumerate(rows):
        if width + k in live:
            row = (bias, tuple(pairs.setdefault(t, t) for t in ((new[r], c) for r, c in terms)), f)
            new[width + k] = len(reads) + len(kept)
            kept.append(row)
    return Program(reads, tuple(kept), tuple(new[r] for r in reg))


def fnn_eval(n: Fnn, inputs: Sequence[RationalLike]) -> list[Rational]:
    """Exact forward pass.

    Every input must be >= 0 (``Circuit`` networks are only sound there,
    and the lowered program's copy lanes rely on it); a negative input
    raises ValueError.  The program runs on one-node columns.
    """
    if len(inputs) != n.input_dim:
        raise ValueError(
            f"expected {n.input_dim} inputs, got {len(inputs)}"
        )
    if any(x < 0 for x in inputs):
        raise ValueError("fnn_eval needs nonnegative inputs")
    cols = [([inputs[i].numerator], inputs[i].denominator) for i in n.program.reads]
    return [rat(nums[0], den) for nums, den in n.program.run(cols, 1)]


# ---------------------------------------------------------------------------
# Circuit builder


# The gadgets weigh by a handful of small integers, tens of thousands of
# times per bank of networks; each of them is built as a Fraction once.
_int_rational = functools.lru_cache(maxsize=64)(rat)


def _exact(w: RationalLike) -> Rational:
    return _int_rational(w) if type(w) is int else rat(w)


class Ref(NamedTuple):
    """Handle to a value inside a circuit: an input port or a neuron."""

    kind: str  # "in" | "neuron"
    index: int
    depth: int  # 0 for inputs; neurons sit at depth >= 1


class Circuit:
    """Assembles ReLU neurons into an Fnn with named input ports.

    Values flow only forward; a term read from an earlier depth is carried
    through memoized identity ReLUs.  That identity trick — and therefore
    the whole builder — is only sound for nonnegative values, which all
    compiled constructions maintain by design.  Input ports are numbered
    in order of first use and placed only when the Fnn is built.
    """

    def __init__(self, inputs: Mapping[str, int]):
        self._inputs = dict(inputs)
        self._ports: dict = {}  # each input port's Ref, built on first use
        # neurons[d] = list of (bias, [(index, weight), ...]) at depth d+1,
        # each index that of a ref at depth d
        self._neurons: list[list[tuple[Rational, list[tuple[int, Rational]]]]] = []
        self._identity: dict[Ref, Ref] = {}
        self._outputs: dict[str, Ref] = {}

    def input(self, name) -> Ref:
        ref = self._ports.get(name)
        if ref is None:
            ref = self._ports[name] = Ref("in", len(self._ports), 0)
        return ref

    def _alloc(
        self, depth: int, bias: Rational, terms: list[tuple[int, Rational]]
    ) -> Ref:
        while len(self._neurons) < depth:
            self._neurons.append([])
        self._neurons[depth - 1].append((bias, terms))
        return Ref("neuron", len(self._neurons[depth - 1]) - 1, depth)

    def _lift(self, ref: Ref, depth: int) -> Ref:
        while ref.depth < depth:
            nxt = self._identity.get(ref)
            if nxt is None:
                nxt = self._identity[ref] = self._alloc(
                    ref.depth + 1, ZERO, [(ref.index, ONE)]
                )
            ref = nxt
        return ref

    def relu(
        self,
        terms: Iterable[tuple[RationalLike, Ref]],
        bias: RationalLike = 0,
    ) -> Ref:
        """The neuron ``relu(bias + sum w*x)``.  Terms on one ref are added
        and zero weights dropped, so a neuron reads only what it uses."""
        weights: dict[Ref, Rational] = {}
        for w, r in terms:
            w = _exact(w)
            weights[r] = weights[r] + w if r in weights else w
        used = [(r, w) for r, w in weights.items() if w]
        depth = 1 + max((r.depth for r, _w in used), default=0)
        lifted = [(self._lift(r, depth - 1).index, w) for r, w in used]
        return self._alloc(depth, _exact(bias), lifted)

    # -- gadgets ------------------------------------------------------
    # Flags are 0/1; a truth value "at scale s" lies in {0, s}.  Scales
    # arrive as refs, never as biases, because the compiled scales depend
    # on the graph size.

    def min_(self, x: Ref, y: Ref) -> Ref:
        """min(x, y) for nonnegative x, y: relu(x - relu(x - y))."""
        over = self.relu([(1, x), (-1, y)])
        return self.relu([(1, x), (-1, over)])

    def mask01(self, y: Ref, flag: Ref) -> Ref:
        """y * flag for y in [0, 1] and a 0/1 flag: relu(y + flag - 1)."""
        return self.relu([(1, y), (1, flag)], -1)

    def flag_at(self, scale: Ref, flag: Ref) -> Ref:
        """Lift a 0/1 flag to {0, scale} for a scale in (0, 1]."""
        return self.mask01(scale, flag)

    def not_at(self, scale: Ref, x: Ref) -> Ref:
        """Negation at a scale: relu(scale - x)."""
        return self.relu([(1, scale), (-1, x)])

    def and_at(self, scale: Ref, x: Ref, y: Ref) -> Ref:
        """Conjunction at a scale: relu(x + y - scale)."""
        return self.relu([(1, x), (1, y), (-1, scale)])

    def sum_of(self, refs: Sequence[Ref]) -> Ref:
        return self.relu([(1, r) for r in refs])

    def output(self, name: str, ref: Ref) -> None:
        self._outputs[name] = ref

    def output_names(self) -> tuple[str, ...]:
        return tuple(self._outputs)

    def build(self, names: Optional[Sequence[str]] = None, ports=None) -> Fnn:
        """The Fnn computing the outputs ``names`` (by default every
        declared output), in order, from only the neurons that feed them.

        Its depth is the deepest output's; shallower outputs are carried
        there through identity ReLUs.  The last layer holds the output
        refs' own neurons, and a neuron named twice appears twice.
        ``ports`` takes the set of input ports the kept neurons read and
        returns each one's index and the input width; by default the ports
        have the indices given at construction, and the width is one past
        the largest.
        """
        outs = [self._outputs[nm] for nm in (self._outputs if names is None else names)]
        if not outs:
            raise ValueError("circuit has no outputs")
        depth = max(max(r.depth for r in outs), 1)
        finals = [self._lift(r, depth) for r in outs]
        live, read = backward_live(self._neurons[:depth], [r.index for r in finals])
        names_of = list(self._ports)
        if ports is None:
            index = self._inputs
            width = max(index.values(), default=-1) + 1
        else:
            index, width = ports({names_of[i] for i in read})
        place = {i: index[names_of[i]] for i in read}
        layers = []
        for d, alive in enumerate(live):
            stage = self._neurons[d]
            if d == depth - 1:
                kept = [stage[r.index] for r in finals]
            else:
                kept = [stage[j] for j in alive]
            neurons = tuple(
                (bias, tuple(sorted([(place[i], w) for i, w in terms])))
                for bias, terms in kept
            )
            layers.append(FnnLayer(width, neurons))
            width = len(alive)
            place = {j: k for k, j in enumerate(alive)}
        return Fnn(tuple(layers))
