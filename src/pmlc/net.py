"""Feedforward ReLU networks over exact rationals, and the circuit builder.

Everything here is exact: weights, biases, and states are rationals
(gmpy2 when available, stdlib fractions otherwise), so threshold and
min gadgets hit their target values with zero error — the recognition
certainty of the compiled networks depends on exact equality at the focus.

The building blocks:

* ``FnnLayer`` / ``Fnn`` — sparse neurons ``relu(bias + sum w_i x_i)``.
* ``Circuit`` — a named-port builder that assembles neurons into one Fnn,
  padding depth mismatches with identity ReLUs (sound because every
  routed value is nonnegative).  It carries the one gadget set the
  compilers use: ``min_``, ``mask01``, ``flag_at``, ``not_at``,
  ``and_at`` and ``sum_of``.  Every scale a gadget works at is a ref.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

try:  # pragma: no cover - environment-dependent import
    from gmpy2 import mpq as _ratctor
except ImportError:  # pragma: no cover
    from fractions import Fraction as _ratctor

Rational = type(_ratctor(0))
RationalLike = Union[int, Rational]


def rat(numerator: RationalLike, denominator: RationalLike = 1) -> Rational:
    return _ratctor(numerator, denominator)


ZERO = rat(0)
ONE = rat(1)


def format_rational(q: RationalLike) -> str:
    q = rat(q)
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


def _layer_eval(layer: FnnLayer, values: Sequence[Rational]) -> list[Rational]:
    out = []
    for bias, weights in layer.neurons:
        acc = bias
        for idx, w in weights:
            acc += w * values[idx]
        out.append(acc if acc > 0 else ZERO)
    return out


def fnn_eval(n: Fnn, inputs: Sequence[RationalLike]) -> list[Rational]:
    """Exact forward pass."""
    if len(inputs) != n.input_dim:
        raise ValueError(
            f"expected {n.input_dim} inputs, got {len(inputs)}"
        )
    values: list[Rational] = [rat(x) for x in inputs]
    for layer in n.layers:
        values = _layer_eval(layer, values)
    return values


# ---------------------------------------------------------------------------
# Circuit builder


@dataclass(frozen=True)
class Ref:
    """Handle to a value inside a circuit: an input port or a neuron."""

    kind: str  # "in" | "neuron"
    index: int
    depth: int  # 0 for inputs; neurons sit at depth >= 1


class Circuit:
    """Assembles ReLU neurons into an Fnn with named input ports.

    Values flow only forward; a term read from an earlier depth is carried
    through memoized identity ReLUs.  That identity trick — and therefore
    the whole builder — is only sound for nonnegative values, which all
    compiled constructions maintain by design.
    """

    def __init__(self, inputs: Mapping[str, int], width: Optional[int] = None):
        self._inputs = dict(inputs)
        used = max(self._inputs.values(), default=-1) + 1
        self._width = used if width is None else width
        if self._width < used:
            raise ValueError("declared width smaller than the largest port index")
        # neurons[d] = list of (bias, [(ref, weight), ...]) at depth d+1
        self._neurons: list[list[tuple[Rational, list[tuple[Ref, Rational]]]]] = []
        self._identity: dict[Ref, Ref] = {}
        self._outputs: list[tuple[str, Ref]] = []

    def input(self, name: str) -> Ref:
        return Ref("in", self._inputs[name], 0)

    def _alloc(
        self, depth: int, bias: Rational, terms: list[tuple[Ref, Rational]]
    ) -> Ref:
        while len(self._neurons) < depth:
            self._neurons.append([])
        self._neurons[depth - 1].append((bias, terms))
        return Ref("neuron", len(self._neurons[depth - 1]) - 1, depth)

    def _lift(self, ref: Ref, depth: int) -> Ref:
        while ref.depth < depth:
            nxt = self._identity.get(ref)
            if nxt is None or nxt.depth > ref.depth + 1:
                nxt = self._alloc(ref.depth + 1, ZERO, [(ref, ONE)])
                self._identity[ref] = nxt
            ref = nxt
        return ref

    def relu(
        self,
        terms: Iterable[tuple[RationalLike, Ref]],
        bias: RationalLike = 0,
    ) -> Ref:
        terms = [(rat(w), r) for w, r in terms]
        depth = 1 + max((r.depth for _w, r in terms), default=0)
        lifted = [(self._lift(r, depth - 1), w) for w, r in terms]
        return self._alloc(depth, rat(bias), lifted)

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
        self._outputs.append((name, ref))

    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ref in self._outputs)

    def build(self) -> Fnn:
        if not self._outputs:
            raise ValueError("circuit has no outputs")
        depth = max(max((r.depth for _n, r in self._outputs), default=0), 1)
        finals = [(name, self._lift(r, depth)) for name, r in self._outputs]
        layers = []
        for d, stage in enumerate(self._neurons):
            in_dim = self._width if d == 0 else len(self._neurons[d - 1])
            neurons = []
            for bias, terms in stage:
                weights: dict[int, Rational] = {}
                for ref, w in terms:
                    weights[ref.index] = weights.get(ref.index, ZERO) + w
                neurons.append(
                    (bias, tuple(sorted(weights.items())))
                )
            layers.append(FnnLayer(in_dim, tuple(neurons)))
        # Final selection layer re-emits the outputs in declaration order.
        sel = FnnLayer(
            len(self._neurons[depth - 1]),
            tuple((ZERO, ((r.index, ONE),)) for _name, r in finals),
        )
        layers = layers[:depth] + [sel]
        return Fnn(tuple(layers))
