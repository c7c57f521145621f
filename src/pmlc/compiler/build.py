"""Shared layer-assembly machinery for the formula compilers.

Networks are assembled layer by layer over *named dimensions*.  Each layer
is a combination Fnn reading the standard concatenated port layout
[previous state, in-aggregate, out-aggregate, global aggregate]; the
builder tracks dimension names so a value written under a name in one
layer can be read back (directly or through an aggregation port) in the
next.  All intermediate values are nonnegative by construction, which is
what keeps the ReLU identity-carries and the masking gadgets sound.

``LayerPlan`` is a :class:`~pmlc.net.Circuit`, so every builder uses the
one gadget set defined there.  Scale conventions used throughout:

* flags are 0/1; ``mask01(y, flag)`` multiplies a value ``y`` in [0, 1] by
  a 0/1 flag; ``write_flags`` computes the first layer's flags for every
  modal-free subformula from the label bits;
* truth values at a scale ``s`` (held in a reference dimension, never in a
  bias, because ``s`` depends on the graph size) live in {0, s}; the
  Boolean gadgets ``not_at``/``and_at`` and the flag lift ``flag_at``
  operate at such a scale;
* ``atom_check`` turns accumulated monomial values (all scaled by a common
  unit ``u``) into a truth value at scale ``r2``; integrality of the
  underlying counts guarantees a violated atom overshoots ``r2``;
* before the check every monomial pipeline and the unit must share one
  denominator: a ``Ledger`` counts the mean divisions a pipeline still
  owes, and ``LayerPlan.hop`` pays one of them or carries the value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..logic import (
    And,
    Modal,
    Not,
    PeanoAnd,
    PeanoAtom,
    PeanoNot,
    PmlFormula,
    Prop,
    max_prop,
    modal_depth,
    print_formula,
    subformulas_ordered,
)
from ..mpnn import Aggregator, CertaintyDescriptor, Mpnn, MpnnLayer
from ..net import Circuit, Ref


class FragmentMismatch(ValueError):
    """The formula lies outside the fragment a target can compile."""


class TraceLimitExceeded(FragmentMismatch):
    """The nested construction would need more trace dimensions than the
    configured cap allows."""


# ---------------------------------------------------------------------------
# Layer assembly

_AGG_BLOCKS = {"in": 1, "out": 2, "glob": 3}


class LayerPlan(Circuit):
    """One message-passing layer under construction.

    A :class:`Circuit` whose inputs are the 4*D combination ports of the
    previous layer's D named dimensions.  Outputs are declared in order;
    the dimension written last is the network's verdict dimension when
    this is the final layer.
    """

    def __init__(
        self,
        builder: "NetBuilder",
        in_names: Sequence[str],
        loc_in: Aggregator,
        loc_out: Aggregator,
        glob: Aggregator,
    ):
        self.D = len(in_names)
        super().__init__({f"q{i}": i for i in range(4 * self.D)}, width=4 * self.D)
        self._b = builder
        self._index = {nm: i for i, nm in enumerate(in_names)}
        self.loc_in = loc_in
        self.loc_out = loc_out
        self.glob_agg = glob
        self._declared: set = set()

    # -- ports --------------------------------------------------------

    def _port(self, block: int, name: str) -> Ref:
        try:
            i = self._index[name]
        except KeyError:
            raise KeyError(f"dimension {name!r} does not exist at this layer")
        return self.input(f"q{block * self.D + i}")

    def prev(self, name: str) -> Ref:
        return self._port(0, name)

    def agg_in(self, name: str) -> Ref:
        return self._port(1, name)

    def agg_out(self, name: str) -> Ref:
        return self._port(2, name)

    def glob(self, name: str) -> Ref:
        return self._port(3, name)

    def agg(self, port: str, name: str) -> Ref:
        """``name``'s aggregate on port ``in``, ``out`` or ``glob``."""
        if port not in _AGG_BLOCKS:
            raise ValueError(f"unknown port {port!r}")
        return self._port(_AGG_BLOCKS[port], name)

    # -- outputs ------------------------------------------------------

    def set(self, name: str, ref: Ref) -> None:
        if name in self._declared:
            raise ValueError(f"dimension {name!r} written twice in one layer")
        self._declared.add(name)
        self.output(name, ref)

    def carry(self, *names: str) -> None:
        """Re-emit previous-layer values unchanged (they are nonnegative)."""
        for nm in names:
            self.set(nm, self.relu([(1, self.prev(nm))]))

    def hop(self, name: str, port: Optional[str], gate: Callable[[Ref], Ref]) -> None:
        """Write ``gate`` of ``name``'s aggregate on ``port`` (one mean
        division), or carry ``name`` when ``port`` is None."""
        if port is None:
            self.carry(name)
        else:
            self.set(name, gate(self.agg(port, name)))

    def done(self) -> None:
        self._b._commit(self, self.build(), self.output_names())

    # -- constraint gadgets -------------------------------------------

    def atom_check(
        self,
        atom: PeanoAtom,
        mono_ref: Callable[[Tuple[int, ...]], Ref],
        unit: Ref,
        r2: Ref,
    ) -> Ref:
        """Truth of ``sum a_i m_i <= b`` at scale r2.

        ``mono_ref`` maps a monomial's variable multiset to the dimension
        holding ``unit * product-of-counts``; the bound rides on the unit
        reference so the check stays valid for graph-size-dependent
        scales.  Requires r2 <= unit wherever the inputs are nonzero;
        count integrality then separates satisfied (x = 0 .. below r2 is
        impossible) from violated (x >= unit >= r2).
        """
        terms: List[Tuple[object, Ref]] = [
            (m.coeff, mono_ref(m.variables)) for m in atom.monomials
        ]
        terms.append((-atom.bound, unit))
        x = self.relu(terms)
        y = self.min_(x, r2)
        return self.relu([(1, r2), (-1, y)])

    def peano_truth(self, psi, atom_ref: Callable[[PeanoAtom], Ref], scale: Ref) -> Ref:
        """Evaluate a constraint over atom truth refs at a common scale."""
        if isinstance(psi, PeanoAtom):
            return atom_ref(psi)
        if isinstance(psi, PeanoNot):
            return self.not_at(scale, self.peano_truth(psi.operand, atom_ref, scale))
        if isinstance(psi, PeanoAnd):
            return self.and_at(
                scale,
                self.peano_truth(psi.left, atom_ref, scale),
                self.peano_truth(psi.right, atom_ref, scale),
            )
        raise TypeError(f"not a constraint: {psi!r}")

    def skeleton_truth(
        self, phi: PmlFormula, leaf: Callable[[PmlFormula], Ref], scale: Ref
    ) -> Ref:
        """Evaluate a formula's Boolean skeleton at a scale.

        ``leaf`` supplies truth refs (already at the scale) for modal
        nodes and for maximal modal-free subformulas; only the Not/And
        structure above them is evaluated here.
        """
        if isinstance(phi, Modal) or modal_depth(phi) == 0:
            return leaf(phi)
        if isinstance(phi, Not):
            return self.not_at(scale, self.skeleton_truth(phi.operand, leaf, scale))
        if isinstance(phi, And):
            return self.and_at(
                scale,
                self.skeleton_truth(phi.left, leaf, scale),
                self.skeleton_truth(phi.right, leaf, scale),
            )
        raise TypeError(f"not a formula: {phi!r}")


class NetBuilder:
    """Accumulates message-passing layers over named dimensions."""

    def __init__(self, colours: int):
        self.colours = colours
        self.layers: List[MpnnLayer] = []
        self.dim_names: List[Tuple[str, ...]] = []
        self._names: Tuple[str, ...] = tuple(f"c{i}" for i in range(colours))

    @property
    def names(self) -> Tuple[str, ...]:
        """Dimension names of the most recent layer (colour bits before
        the first layer is committed)."""
        return self._names

    def layer(
        self,
        loc_in: Aggregator = Aggregator.MEAN,
        loc_out: Aggregator = Aggregator.MEAN,
        glob: Aggregator = Aggregator.MEAN,
    ) -> LayerPlan:
        return LayerPlan(self, self._names, loc_in, loc_out, glob)

    def _commit(self, plan: LayerPlan, fnn, out_names: Tuple[str, ...]) -> None:
        self.layers.append(
            MpnnLayer(
                comb=fnn,
                loc_in=plan.loc_in,
                loc_out=plan.loc_out,
                glob=plan.glob_agg,
                in_dim=plan.D,
                out_dim=len(out_names),
            )
        )
        self._names = out_names
        self.dim_names.append(out_names)

    def finish(
        self,
        *,
        exponent: int,
        inverted: bool,
        required_class: str,
        mark_colour: Optional[int],
        formula_text: str,
    ) -> Mpnn:
        return Mpnn(
            colours=self.colours,
            layers=tuple(self.layers),
            certainty=CertaintyDescriptor(exponent),
            inverted=inverted,
            required_class=required_class,
            mark_colour=mark_colour,
            formula_text=formula_text,
            dimension_names=tuple(self.dim_names),
        )


# ---------------------------------------------------------------------------
# Shared formula bookkeeping


def marked_colours(phi: PmlFormula) -> Tuple[int, int]:
    """(colour count, mark colour index) with one colour appended for the
    focus mark."""
    base = max_prop(phi) + 1
    return base + 1, base


def opposite(direction: str) -> str:
    """The port on which a hop's receiver sees its sender."""
    return "out" if direction == "in" else "in"


def split_subformulas(phi: PmlFormula):
    """(all subformulas, modal-free ones, modal nodes) in canonical order."""
    subs = subformulas_ordered(phi)
    flats = [s for s in subs if modal_depth(s) == 0]
    modals = [s for s in subs if isinstance(s, Modal)]
    return subs, flats, modals


def flat_names(flats: Sequence[PmlFormula]) -> Dict[PmlFormula, str]:
    return {s: f"f{i}" for i, s in enumerate(flats)}


def write_flags(
    plan: LayerPlan, flats: Sequence[PmlFormula], names: Dict[PmlFormula, str]
) -> Dict[PmlFormula, Ref]:
    """First-layer 0/1 truth flags, read from the label bits ``c<i>``.

    Writes one dimension per formula of ``flats`` (named by ``names``) and
    returns the truth ref of every subformula it evaluated.
    """
    memo: Dict[PmlFormula, Ref] = {}

    def truth(f: PmlFormula) -> Ref:
        if f not in memo:
            if isinstance(f, Prop):
                memo[f] = plan.relu([(1, plan.prev(f"c{f.index}"))])
            elif isinstance(f, Not):
                memo[f] = plan.relu([(-1, truth(f.operand))], 1)
            elif isinstance(f, And):
                memo[f] = plan.relu([(1, truth(f.left)), (1, truth(f.right))], -1)
            else:
                raise ValueError("the Boolean layer only evaluates modal-free formulas")
        return memo[f]

    for s in flats:
        plan.set(names[s], truth(s))
    return memo


class Ledger:
    """Mean divisions one pipeline still owes before the check layer.

    Each aligned layer pays at most one division, taken from the first
    port, in the fixed order glob, in, out, that still has some owed.
    """

    def __init__(self, glob: int = 0, ins: int = 0, outs: int = 0):
        self.owed = {"glob": glob, "in": ins, "out": outs}

    def pay(self) -> Optional[str]:
        """The port of the next owed division (now paid), or None."""
        for port, left in self.owed.items():
            if left > 0:
                self.owed[port] = left - 1
                return port
        return None

    def close(self) -> None:
        """Raise unless every owed division has been paid exactly."""
        if any(self.owed.values()):
            raise RuntimeError(f"alignment ledger not settled: {self.owed}")


def monomial_streams(modals: Sequence[Modal]):
    """Deterministic (modal index, variable multiset) stream table.

    Monomials repeated across atoms of one modal node share a stream; the
    same multiset under a different modal node does not (its positions may
    carry different modalities or children).
    """
    streams: List[Tuple[int, Tuple[int, ...]]] = []
    seen: set = set()
    for j, chi in enumerate(modals):
        for atom in _atoms(chi.constraint):
            for m in atom.monomials:
                key = (j, m.variables)
                if key not in seen:
                    seen.add(key)
                    streams.append(key)
    return streams


def _atoms(psi) -> List[PeanoAtom]:
    if isinstance(psi, PeanoAtom):
        return [psi]
    if isinstance(psi, PeanoNot):
        return _atoms(psi.operand)
    return _atoms(psi.left) + _atoms(psi.right)


class EdgeStream:
    """One monomial's hop pipeline over edge modalities: its accumulator
    ``dim``, the ``recv`` dim its pushes land on, and per factor the child
    and the port (``in`` or ``out``) it counts on.  Nested stages keep one
    copy of each per trace class: ``acc(ii)`` and ``rcv(ii)``."""

    def __init__(self, name: str, j: int, variables: Tuple[int, ...], chi: Modal):
        self.dim = f"a{name}"
        self.recv = f"r{name}"
        self.j = j
        self.variables = variables
        self.children = [chi.children[v - 1] for v in variables]
        self.dirs = [chi.modalities[v - 1].surface for v in variables]
        self.deg = len(variables)

    def acc(self, ii: int) -> str:
        return f"{self.dim}.{ii}"

    def rcv(self, ii: int) -> str:
        return f"{self.recv}.{ii}"


def edge_streams(modals: Sequence[Modal], prefix: str = "") -> List[EdgeStream]:
    """One ``EdgeStream`` per row of ``monomial_streams(modals)``."""
    return [
        EdgeStream(f"{prefix}{h}", j, variables, modals[j])
        for h, (j, variables) in enumerate(monomial_streams(modals))
    ]


def degenerate_boolean(phi: PmlFormula, marked: bool) -> Mpnn:
    """Single Boolean layer for modal-free formulas: e = 0, not inverted;
    on marked colours and class ``marked``, or on plain colours and class
    ``any``."""
    colours, mark = marked_colours(phi) if marked else (max_prop(phi) + 1, None)
    nb = NetBuilder(colours)
    _subs, flats, _modals = split_subformulas(phi)
    names = flat_names(flats)
    plan = nb.layer()
    memo = write_flags(plan, flats, names)
    plan.set("out", memo[phi])
    plan.done()
    return nb.finish(
        exponent=0,
        inverted=False,
        required_class="marked" if marked else "any",
        mark_colour=mark,
        formula_text=print_formula(phi),
    )
