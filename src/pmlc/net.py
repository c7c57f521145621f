"""Feedforward ReLU networks over exact rationals, and the circuit builder.

Everything here is exact: weights, biases and values are
``fractions.Fraction``, so threshold and min gadgets hit their target
values with zero error — the recognition certainty of the compiled
networks depends on exact equality at the focus.

The building blocks:

* ``FnnLayer`` / ``Fnn`` — sparse neurons ``relu(bias + sum w_i x_i)``.
* ``Program`` — an Fnn lowered once (cached as ``Fnn.program``) to integer
  rows that run once over the columns of all nodes, one denominator per
  column.  Identity carries become copy lanes, neurons that feed no output
  are dropped, neurons with the same bias and terms share one row, and
  the program records which inputs it reads.
  ``fnn_eval`` (on one-node columns) and the message-passing evaluator
  both run it.
* ``Circuit`` — a named-port builder that assembles neurons into one Fnn,
  padding depth mismatches with identity ReLUs (sound because every
  routed value is nonnegative).  The Fnn's last layer is the output
  neurons themselves, in declaration order; no layer follows only to
  re-emit them, and it holds only neurons that feed an output (the same
  ``backward_live`` walk that ``lower`` runs).  It carries the one gadget
  set the compilers use: ``min_``, ``mask01``, ``flag_at``, ``not_at``,
  ``and_at`` and ``sum_of``.  Every scale a gadget works at is a ref.
"""

from __future__ import annotations

import functools
from itertools import repeat
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

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
    static scale that makes its coefficients integers.  It brings its input
    columns to the lcm ``D`` of their denominators and computes
    ``relu(bias*D + sum c*(D/d_r)*nums_r)`` at every node: ReLU is
    positively homogeneous, so that is the neuron's value times
    ``D * scale``, and the new column is reduced by one gcd.  Output ``j``
    is register ``outputs[j]`` itself, so a copy lane costs nothing and
    hands on its source column object; no column is changed in place.
    """

    reads: tuple[int, ...]
    rows: tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]
    outputs: tuple[int, ...]

    def run(self, cols: Sequence[Column], n: int) -> list[Column]:
        """The output columns for input columns ``cols`` (one per entry of
        ``reads``, each with ``n`` numerators, all >= 0)."""
        regs = list(cols)
        for bias, terms, scale in self.rows:
            den = 1
            for r, _c in terms:
                if den % regs[r][1]:
                    den = lcm(den, regs[r][1])
            # The bias enters with the first term's pass and the ReLU with
            # the last term's; a row with no terms is relu(bias).
            acc = repeat(bias * den, n)
            for r, c in terms[:-1]:
                xs, d = regs[r]
                c *= den // d
                acc = [a + c * x for a, x in zip(acc, xs)]
            if terms:
                r, c = terms[-1]
                xs, d = regs[r]
                c *= den // d
                nums = [y if (y := a + c * x) > 0 else 0 for a, x in zip(acc, xs)]
            else:
                nums = [bias if bias > 0 else 0] * n
            den *= scale
            if den > 1:
                g = gcd(den, *nums)
                if g > 1:
                    nums = [x // g for x in nums]
                    den //= g
            regs.append((nums, den))
        return [regs[r] for r in self.outputs]


def backward_live(stages, need) -> tuple[list[list[int]], set[int]]:
    """Backward liveness over a stack of neuron stages, last stage first.

    A stage lists neurons ``(bias, ((index, weight), ...))`` over the
    stage before it (the inputs, for the first stage), and ``need`` the
    indices of the last stage's neurons that are used.  Returns, per
    stage, the sorted indices of the neurons that feed a needed one
    through a nonzero weight, and the set of inputs those read.
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

    A neuron that feeds no output is dropped.  An identity carry
    ``relu(1*x)`` becomes a copy lane: it names its source register
    instead of taking one, which is exact because every input, and so
    every value, is nonnegative.  Each remaining neuron becomes a row at
    the least scale that makes its coefficients integers, and neurons with
    the same bias and the same merged terms over the same registers share
    one row.
    """
    stages = [layer.neurons for layer in n.layers]
    live, need = backward_live(stages, range(n.output_dim))
    reads = tuple(sorted(need))
    reg = {i: r for r, i in enumerate(reads)}
    rows = []
    written: dict[tuple, int] = {}  # row -> the register it writes
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # one object per term
    for layer, alive in zip(n.layers, live):
        nxt = {}
        for j in alive:
            bias, weights = layer.neurons[j]
            merged: dict[int, Rational] = {}
            for i, w in weights:
                if w:
                    r = reg[i]
                    merged[r] = merged[r] + w if r in merged else w
            merged = {r: w for r, w in merged.items() if w}
            if bias == 0 and list(merged.values()) == [1]:
                (nxt[j],) = merged  # copy lane
                continue
            f = lcm(bias.denominator, *(w.denominator for w in merged.values()))
            terms = tuple(pairs.setdefault(t, t) for t in sorted(
                (r, int(w * f)) for r, w in merged.items()
            ))
            row = (int(bias * f), terms, f)
            if row not in written:
                rows.append(row)
                written[row] = len(reads) + len(rows) - 1
            nxt[j] = written[row]
        reg = nxt
    return Program(reads, tuple(rows), tuple(reg[j] for j in range(n.output_dim)))


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

    def __init__(self, inputs: Mapping[str, int], width: Optional[int] = None):
        self._inputs = dict(inputs)
        self._ports: dict = {}  # each input port's Ref, built on first use
        used = max(self._inputs.values(), default=-1) + 1
        self._width = used if width is None else width
        if self._width < used:
            raise ValueError("declared width smaller than the largest port index")
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
        have the indices and the width given at construction.
        """
        outs = [self._outputs[nm] for nm in (self._outputs if names is None else names)]
        if not outs:
            raise ValueError("circuit has no outputs")
        depth = max(max(r.depth for r in outs), 1)
        finals = [self._lift(r, depth) for r in outs]
        live, read = backward_live(self._neurons[:depth], [r.index for r in finals])
        names_of = list(self._ports)
        if ports is None:
            index, width = self._inputs, self._width
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
