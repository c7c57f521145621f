"""Shared layer-assembly machinery for the formula compilers.

Networks are assembled layer by layer over *named dimensions*.  Each layer
is a combination Fnn reading the concatenated port layout
[previous state, in-aggregate, out-aggregate, global aggregate].  Builders
only write dims and read them; a value read several layers after its
write is routed there by the ``NetBuilder``, through identity carries in
the layers between, and at the end each layer emits exactly the dims the
next one reads (the last one only ``out``).  All intermediate values are
nonnegative by construction, which is what keeps the ReLU identity
carries and the masking gadgets sound.

``LayerPlan`` is a :class:`~pmlc.net.Circuit`, so every builder uses the
one gadget set defined there.  Every builder starts from one
``Scaffold``, the part all constructions share: colours and mark colour
from the target's class, the flag layer and ``mk``, the root check and
the ``n^(-e)`` contract.  Each monomial pipeline is one ``Stream``,
whatever modalities its factors count on.  Scale conventions used
throughout:

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
* ``LayerPlan.boolean`` evaluates a constraint over its atom checks, or
  a skeleton over its modal nodes and lifted flags, with those gadgets;
* before the check every monomial pipeline and the unit must share one
  denominator: a ``Ledger`` counts the mean divisions a pipeline still
  owes, and ``LayerPlan.hop`` pays one of them or leaves the value.  The
  unit is the empty monomial's ``Stream`` (``unit_stream``), so a builder
  keeps one stream list and one ledger table, the unit and the check
  scale included.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..logic import (
    And,
    Modal,
    Modality,
    Not,
    PeanoAtom,
    PeanoNot,
    PmlFormula,
    Prop,
    max_prop,
    modal_depth,
    postorder,
    print_formula,
    skeleton_operands,
    subformulas_ordered,
)
from ..mpnn import Aggregator, CertaintyDescriptor, Mpnn, MpnnLayer
from ..net import Circuit, Fnn, Ref


class FragmentMismatch(ValueError):
    """The formula lies outside the fragment a target can compile."""


class TraceLimitExceeded(FragmentMismatch):
    """The nested construction would need more trace dimensions than the
    configured cap allows."""


# ---------------------------------------------------------------------------
# Layer assembly

_AGG_BLOCKS = {"in": 1, "out": 2, "glob": 3}


class LayerPlan(Circuit):
    """Message-passing layer ``k`` (1-based) under construction.

    A :class:`Circuit` whose inputs are the previous layer's named dims on
    the combination ports: the state, the in and out aggregates, which use
    ``local``, and the global mean.  Reading a dim asks the builder to
    route it here from its latest write.  Which dims the layer outputs,
    and where each port sits, is settled by ``NetBuilder.assemble``.
    Check layers add the gadgets ``atom_check`` and ``boolean``.
    """

    def __init__(self, builder: "NetBuilder", k: int, local: Aggregator):
        super().__init__({})
        self._b = builder
        self.k = k
        self.local = local

    # -- ports --------------------------------------------------------

    def _port(self, block: int, name: str) -> Ref:
        key = (block, name)
        if key not in self._ports:
            self._b.route(name, self.k - 1)
        return self.input(key)

    def prev(self, name: str) -> Ref:
        return self._port(0, name)

    def glob(self, name: str) -> Ref:
        return self._port(3, name)

    def agg(self, port: str, name: str) -> Ref:
        """``name``'s aggregate on port ``in``, ``out`` or ``glob``."""
        if port not in _AGG_BLOCKS:
            raise ValueError(f"unknown port {port!r}")
        return self._port(_AGG_BLOCKS[port], name)

    # -- outputs ------------------------------------------------------

    def set(self, name: str, ref: Ref) -> None:
        if name in self._outputs:
            raise ValueError(f"dimension {name!r} written twice in one layer")
        self.output(name, ref)

    def hop(self, name: str, port: Optional[str], gate: Callable[[Ref], Ref]) -> None:
        """Write ``gate`` of ``name``'s aggregate on ``port`` (one mean
        division); with ``port`` None the value stays as it is."""
        if port is not None:
            self.set(name, gate(self.agg(port, name)))

    def comb(self, outs: Sequence[str]) -> Tuple[Fnn, Tuple[str, ...]]:
        """This layer's Fnn emitting ``outs``, and the previous layer's
        dims its neurons read, in that layer's order of writing; the
        label bits' ports sit at their colour."""
        ins: List[str] = []

        def ports(read):
            names = {name for _block, name in read}
            if self.k == 1:
                width, at = self._b.colours, {nm: int(nm[1:]) for nm in names}
            else:
                ins.extend(
                    nm for nm in self._b.plans[self.k - 2].output_names() if nm in names
                )
                width, at = len(ins), {nm: i for i, nm in enumerate(ins)}
            return {(b, nm): b * width + at[nm] for b, nm in read}, 4 * width

        return self.build(outs, ports), tuple(ins)

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

    def boolean(self, root, leaf: Callable[[object], Ref], scale: Ref) -> Ref:
        """The truth of a constraint or a formula's skeleton at ``scale``,
        over ``leaf``'s truth refs (at the scale) for its leaves; see
        ``skeleton_operands``.  One ``not_at`` or ``and_at`` per distinct
        Not or And, and one ``leaf`` call per distinct leaf."""
        truth: Dict[object, Ref] = {}
        for s in postorder(root, skeleton_operands):
            ops = [truth[c] for c in skeleton_operands(s)]
            if not ops:
                truth[s] = leaf(s)
            elif isinstance(s, (Not, PeanoNot)):
                truth[s] = self.not_at(scale, *ops)
            else:
                truth[s] = self.and_at(scale, *ops)
        return truth[root]


class NetBuilder:
    """Message-passing layers over named dims, routed on demand.

    Builders only write dims (``LayerPlan.set``) and read them (``prev``,
    ``agg``, ``glob``).  A read in layer j of a dim last written in layer
    i < j - 1 carries it through identity ReLUs in layers i+1 .. j-1,
    once per dim and layer; the label bits ``c<i>`` are layer 0.  The
    plans stay open until ``assemble``.
    """

    def __init__(self, colours: int):
        self.colours = colours
        self.plans: List[LayerPlan] = []

    def layer(self, extra: Optional[Aggregator] = None) -> LayerPlan:
        """A new layer whose in and out ports use ``extra`` (mean when
        unset); the global port is always mean."""
        plan = LayerPlan(self, len(self.plans) + 1, extra or Aggregator.MEAN)
        self.plans.append(plan)
        return plan

    def route(self, name: str, k: int) -> None:
        """Make layer ``k`` hold ``name``: carry it from its latest write."""
        i = k
        while i > 0 and name not in self.plans[i - 1]._outputs:
            i -= 1
        if i == 0 and not (
            name[:1] == "c" and name[1:].isdigit() and int(name[1:]) < self.colours
        ):
            raise KeyError(f"dimension {name!r} does not exist at layer {k}")
        for plan in self.plans[i:k]:
            plan.set(name, plan.input((0, name)))

    def assemble(
        self, outs: Sequence[str] = ("out",)
    ) -> Tuple[Tuple[MpnnLayer, ...], Tuple[Tuple[str, ...], ...]]:
        """The layers and their dim names.  The last layer outputs
        ``outs``, and every other one exactly the dims the next layer's
        neurons read."""
        layers: List[MpnnLayer] = []
        dims: List[Tuple[str, ...]] = []
        outs = tuple(outs)
        for plan in reversed(self.plans):
            fnn, ins = plan.comb(outs)
            layers.append(
                MpnnLayer(
                    comb=fnn,
                    loc_in=plan.local,
                    loc_out=plan.local,
                    glob=Aggregator.MEAN,
                    in_dim=fnn.input_dim // 4,
                    out_dim=len(outs),
                )
            )
            dims.append(outs)
            outs = ins
        return tuple(reversed(layers)), tuple(reversed(dims))


class Scaffold(NetBuilder):
    """The network part every construction shares, for one formula.

    The colours are the label bits of ``source`` (``phi`` itself unless
    ``phi`` is its flattened form) plus, unless the class is ``any``, one
    colour ``mark`` (label bit ``mark_bit``) for the focus mark.  ``flats``
    and ``modals`` list ``phi``'s modal-free subformulas and modal nodes in
    canonical order, and ``names`` names each flag.  ``first`` writes the
    flags and the mark dim ``mk``; ``finish`` builds the ``n^(-e)``
    contract.
    """

    def __init__(
        self, phi: PmlFormula, klass: str, source: Optional[PmlFormula] = None
    ):
        source = phi if source is None else source
        base = max_prop(source) + 1
        self.mark = None if klass == "any" else base
        self.mark_bit = f"c{self.mark}"
        super().__init__(base if self.mark is None else base + 1)
        self.phi = phi
        self.klass = klass
        self.text = print_formula(source)
        subs = subformulas_ordered(phi)
        self.flats = [s for s in subs if modal_depth(s) == 0]
        self.modals = [s for s in subs if isinstance(s, Modal)]
        self.names = {s: f"f{i}" for i, s in enumerate(self.flats)}

    def first(self) -> Tuple[LayerPlan, Dict[PmlFormula, Ref]]:
        """The first layer, holding every flag and (on marked classes)
        ``mk``; also the truth refs ``write_flags`` made."""
        plan = self.layer()
        memo = write_flags(plan, self.flats, self.names)
        if self.mark is not None:
            plan.set("mk", plan.prev(self.mark_bit))
        return plan, memo

    def check(self, plan: LayerPlan, modal: Callable[[Modal], Ref], scale: Ref) -> None:
        """Write ``out``: ``phi``'s skeleton at ``scale`` over the modal
        truths ``modal`` and the lifted flags, masked to the focus."""
        truth = plan.boolean(self.phi, self.leaf(plan, modal, scale), scale)
        plan.set("out", plan.mask01(truth, plan.prev("mk")))

    def leaf(
        self, plan: LayerPlan, modal: Callable[[Modal], Ref], scale: Ref
    ) -> Callable[[PmlFormula], Ref]:
        """Skeleton leaves at ``scale``: ``modal`` for modal nodes, the
        previous layer's flag lifted to the scale for modal-free ones."""

        def leaf(s: PmlFormula) -> Ref:
            if isinstance(s, Modal):
                return modal(s)
            return plan.flag_at(scale, plan.prev(self.names[s]))

        return leaf

    def finish(self, exponent: int, inverted: bool = False) -> Mpnn:
        layers, dims = self.assemble()
        return Mpnn(
            colours=self.colours,
            layers=layers,
            certainty=CertaintyDescriptor(exponent),
            inverted=inverted,
            required_class=self.klass,
            mark_colour=self.mark,
            formula_text=self.text,
            dimension_names=dims,
        )


# ---------------------------------------------------------------------------
# Shared formula bookkeeping


def opposite(direction: str) -> str:
    """The port on which a hop's receiver sees its sender."""
    return "out" if direction == "in" else "in"


def write_flags(
    plan: LayerPlan, flats: Sequence[PmlFormula], names: Dict[PmlFormula, str]
) -> Dict[PmlFormula, Ref]:
    """First-layer 0/1 truth flags, read from the label bits ``c<i>``.

    Evaluates the formulas of ``flats``, which lists every operand before
    its parent, writes a dimension for each one ``names`` names, and
    returns the truth ref of each.
    """
    memo: Dict[PmlFormula, Ref] = {}
    for f in flats:
        if isinstance(f, Prop):
            memo[f] = plan.relu([(1, plan.prev(f"c{f.index}"))])
        elif isinstance(f, Not):
            memo[f] = plan.relu([(-1, memo[f.operand])], 1)
        elif isinstance(f, And):
            memo[f] = plan.relu([(1, memo[f.left]), (1, memo[f.right])], -1)
        else:
            raise ValueError("the Boolean layer only evaluates modal-free formulas")
        if f in names:
            plan.set(names[f], memo[f])
    return memo


class Ledger:
    """Mean divisions one pipeline still owes before the check layer.

    Each aligned layer pays at most one division, taken from the first
    port, in the fixed order glob, in, out, that still has some owed.  A
    builder keeps one table of them by dim, in stream order, ``U`` and
    then the check scale ``R2`` last; the unit, with no factors, owes the
    whole common denominator.
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


class Stream:
    """One monomial's pipeline: the monomial over ``variables`` of modal
    node ``j``, its accumulator ``dim`` and the ``recv`` dim its pushes
    land on.  Its factors are split by modality: the children of global
    factors (``tops``) and identity factors (``ids``), and per edge factor
    the child and the port, ``in`` or ``out``, it counts on (``edges``).
    Nested stages keep one copy of each dim per trace class: ``acc(ii)``
    and ``rcv(ii)``.  The unit is the stream of the empty monomial, with
    no modal node and no factors (``unit_stream``)."""

    def __init__(
        self, dim: str, recv: str, j: int, variables: Tuple[int, ...], chi: Optional[Modal]
    ):
        self.dim = dim
        self.recv = recv
        self.j = j
        self.variables = variables
        self.tops: List[PmlFormula] = []
        self.ids: List[PmlFormula] = []
        self.edges: List[Tuple[PmlFormula, str]] = []
        for v in variables:
            child, m = chi.children[v - 1], chi.modalities[v - 1]
            if m is Modality.TOP:
                self.tops.append(child)
            elif m is Modality.ID:
                self.ids.append(child)
            else:
                self.edges.append((child, m.surface))

    def counted(self, direction: str) -> int:
        """Edge factors counting on port ``direction``."""
        return sum(1 for _child, d in self.edges if d == direction)

    def acc(self, ii: int) -> str:
        return f"{self.dim}.{ii}"

    def rcv(self, ii: int) -> str:
        return f"{self.recv}.{ii}"


def streams(modals: Sequence[Modal], dim: str = "a", prefix: str = "") -> List[Stream]:
    """One ``Stream`` per distinct (modal index, variable multiset), in a
    deterministic order; stream h has dims ``<dim><prefix>h`` and
    ``r<prefix>h``.

    Monomials repeated across atoms of one modal node share a stream; the
    same multiset under a different modal node does not (its positions may
    carry different modalities or children).
    """
    table: List[Stream] = []
    seen: set = set()
    for j, chi in enumerate(modals):
        for atom in postorder(chi.constraint):
            if not isinstance(atom, PeanoAtom):
                continue
            for m in atom.monomials:
                if (j, m.variables) not in seen:
                    seen.add((j, m.variables))
                    h = f"{prefix}{len(table)}"
                    table.append(Stream(f"{dim}{h}", f"r{h}", j, m.variables, chi))
    return table


def unit_stream(suffix: str = "") -> Stream:
    """The unit's stream ``U<suffix>`` (receiving on ``V<suffix>``), of the
    empty monomial: no modal node, no factors.  Builders append it last."""
    return Stream(f"U{suffix}", f"V{suffix}", -1, (), None)


def degenerate_boolean(phi: PmlFormula, marked: bool) -> Mpnn:
    """Single Boolean layer for modal-free formulas: e = 0, not inverted;
    on marked colours and class ``marked``, or on plain colours and class
    ``any``."""
    sc = Scaffold(phi, "marked" if marked else "any")
    plan = sc.layer()
    plan.set("out", write_flags(plan, sc.flats, {})[phi])
    return sc.finish(0)
