"""Builders for depth-bounded formulas.

Five constructions share one playbook.  The ``Scaffold`` writes the
first layer (every modal-free subformula as a 0/1 flag, plus the focus
mark); a later layer that reads one of those dims, or any other, has it
routed there from its latest write.  The middle layers accumulate each
constraint monomial (one ``Stream``) as a product of counts divided by a
known denominator, and the final layer runs the constraint checks and
the root's Boolean skeleton at the accumulated scale.  The constructions
differ only in which aggregations the middle layers may use and
therefore in which graph class the result is sound on:

* ``build_global_homogeneous`` — iterated global mean over a single
  homogeneous constraint; sound on every pointed graph, inverted verdict.
* ``build_global`` — global means with mark-masked alignment; needs a
  marked focus.  A deep all-top formula is first flattened to depth one.
* ``build_local_mean`` — directional means ping-ponging through the
  focus's neighbourhood; needs a regular graph and a strongly marked
  focus (the self-loop drives denominator alignment).
* ``build_local_mixed`` — sum or max on the outward hop removes the
  regularity requirement.
* ``build_shallow_mixed`` — all modalities (top/id/in/out) in one
  constraint; mean-only on regular graphs, or with sum/max support on
  irregular ones.

Every scale that depends on the graph size is carried in a dimension (the
unit ``U`` and check scale ``R2``) and referenced by weight, never baked
into a bias.  In the global and shallow-mixed builders the unit is the
empty monomial's ``Stream``, last in the stream list, so the stream loops
seed and move it; the local builders start it from the mark's in-mean
instead.  Each builder keeps one ledger table: its streams', then
``U``'s and ``R2``'s.

Each builder is called by ``pmlc.compiler.compile`` only, with a formula
that has a modal node and lies in the target's fragment, and with the
target's graph class.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..logic import (
    Modal,
    PmlFormula,
    degree,
    flatten_global,
)
from ..mpnn import Aggregator, Mpnn
from ..net import Ref
from .build import (
    FragmentMismatch,
    LayerPlan,
    Ledger,
    Scaffold,
    Stream,
    opposite,
    streams,
    unit_stream,
)


# ---------------------------------------------------------------------------
# Global homogeneous


def build_global_homogeneous(phi: PmlFormula, klass: str) -> Mpnn:
    """Mean-only network with an inverted verdict, sound on all graphs.

    The single homogeneous constraint (one atom, bound 0, all monomials of
    one degree k) is evaluated as relu(sum a_i * n^-k * prod counts); the
    uniform denominators n^-k make the signed comparison exact without any
    alignment, and integrality separates 0 from n^-k.  Layer count is
    exactly degree+1.
    """
    if not isinstance(phi, Modal):
        raise FragmentMismatch(
            "global homogeneous compilation needs a bare modal root of depth 1"
        )
    atom = phi.constraint  # homogeneous implies a single normalized atom
    monos = atom.monomials
    k = monos[0].degree if monos else 0
    sc = Scaffold(phi, klass)
    if k == 0:
        # No monomials, bound 0: the constraint reads 0 <= 0, so the
        # formula is a tautology; a constant-zero output accepts
        # everywhere under the inverted reading.
        plan = sc.layer()
        plan.set("out", plan.relu([]))
        return sc.finish(0, inverted=True)

    # The atom's monomials have distinct variable multisets, so stream h
    # is monomial h.
    ss = streams(sc.modals, "z")
    plan, memo = sc.first()
    for s in ss:
        plan.set(s.dim, memo[s.tops[0]])

    for t in range(2, k + 1):
        plan = sc.layer()
        for s in ss:
            gate = plan.prev(sc.names[s.tops[t - 1]])
            plan.set(s.dim, plan.mask01(plan.glob(s.dim), gate))

    plan = sc.layer()
    plan.set(
        "out",
        plan.relu([(m.coeff, plan.glob(s.dim)) for m, s in zip(monos, ss)]),
    )
    return sc.finish(k, inverted=True)


# ---------------------------------------------------------------------------
# Global shallow (and deep, via flattening)


def build_global(
    phi: PmlFormula, klass: str, flat: Optional[PmlFormula] = None
) -> Mpnn:
    """Only-top at any depth, onto marked pointed graphs; e = degree.

    The nesting is flattened first (formulas of depth <= 1 come back
    unchanged), so the network only ever evaluates depth-1 modal nodes.
    ``flat`` is ``flatten_global(phi)`` when the caller already has it.
    """
    flat = flatten_global(phi) if flat is None else flat
    return _global_net(Scaffold(flat, klass, phi))


def _global_net(sc: Scaffold) -> Mpnn:
    """Depth-1 compilation of ``sc.phi`` with gated global means.

    Every stream runs the gated cascade, the unit ``U`` last and gated by
    the mark alone.  At degree 0 the constraints count nothing, so the
    two layers built (flags, then checks against the mark as the unit)
    are sound for any modalities; the local builders use this for that
    case too.
    """
    K = degree(sc.phi)
    ss = streams(sc.modals, "z") + [unit_stream()]
    plan, memo = sc.first()
    if K >= 1:
        for s in ss:
            plan.set(s.dim, memo[s.tops[0]] if s.tops else plan.prev(sc.mark_bit))

    for t in range(2, K + 1):
        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if len(s.tops) >= t:
                gate = plan.prev(sc.names[s.tops[t - 1]])
            else:
                gate = mk
            plan.set(s.dim, plan.mask01(plan.glob(s.dim), gate))

    plan = sc.layer()
    uref = plan.glob("U") if K >= 1 else plan.prev("mk")
    _check_layer(plan, sc, ss, plan.glob, uref, uref)
    return sc.finish(K)


# ---------------------------------------------------------------------------
# Local builders (edge modalities, depth <= 1)


def _check_layer(
    plan: LayerPlan,
    sc: Scaffold,
    ss: List[Stream],
    read: Callable[[str], Ref],
    uref: Ref,
    r2ref: Ref,
) -> None:
    """Constraint checks + root skeleton from accumulated stream dims.

    ``read`` is the port (``plan.prev`` or ``plan.glob``) the stream dims
    are read on.  ``uref`` (the unit) and ``r2ref`` (the check scale) are
    nonzero only at the focus, so the whole verdict collapses to zero
    elsewhere even before the mark mask.
    """
    dims = {(s.j, s.variables): s.dim for s in ss}
    modal_truth: Dict[PmlFormula, Ref] = {}
    for j, chi in enumerate(sc.modals):
        def atom_ref(atom, j=j):
            return plan.atom_check(
                atom,
                lambda variables: read(dims[(j, variables)]),
                uref,
                r2ref,
            )
        modal_truth[chi] = plan.boolean(chi.constraint, atom_ref, r2ref)
    sc.check(plan, modal_truth.__getitem__, r2ref)


def _focus_verdict(sc: Scaffold, ss: List[Stream], exponent: int) -> Mpnn:
    """The local builders' verdict layer, checking the focus-held streams
    against the unit ``U`` and check scale ``R2``; then the contract."""
    plan = sc.layer()
    _check_layer(plan, sc, ss, plan.prev, plan.prev("U"), plan.prev("R2"))
    return sc.finish(exponent)


def _first_hop(sc: Scaffold, ss: List[Stream]) -> None:
    """The flag layer, then a mean layer where the focus reads each
    stream's first child count and starts ``U`` and ``R2``."""
    sc.first()
    plan = sc.layer()
    mk = plan.prev("mk")
    for s in ss:
        child, d = s.edges[0]
        plan.set(s.dim, plan.mask01(plan.agg(d, sc.names[child]), mk))
    plan.set("U", plan.mask01(plan.agg("in", "mk"), mk))
    plan.set("R2", plan.mask01(plan.glob("mk"), mk))


def _alignment_zone(sc: Scaffold, layers: int, table: Dict[str, Ledger]) -> None:
    """Mean layers that pay the owed divisions of every dim in ``table``
    (the streams, then ``U`` and ``R2``) through focus self-loop and
    global hops, masked to the focus; every ledger must come out settled."""
    for _zone in range(layers):
        plan = sc.layer()
        focus = partial(plan.mask01, flag=plan.prev("mk"))
        for dim, ledger in table.items():
            plan.hop(dim, ledger.pay(), focus)
    for ledger in table.values():
        ledger.close()


def build_local_mean(phi: PmlFormula, klass: str) -> Mpnn:
    """Edge modalities, depth <= 1, mean-only; sound on regular graphs
    with a strongly marked focus.

    Each monomial factor is one ping-pong block: push the focus-held
    partial product to the counted neighbourhood (one mean division),
    multiply by the child flag there, pull it back (second division).
    Regularity makes every division the same d_in or d_out, and the
    focus self-loop supplies alignment hops so all monomials finish at
    (d_in*d_out)^-degree; the unit stream U follows the same path from
    the bare mark.  e = 2*degree.
    """
    K = degree(phi)
    sc = Scaffold(phi, klass)
    if K == 0:
        return _global_net(sc)
    ss = streams(sc.modals)
    _first_hop(sc, ss)

    for t in range(2, K + 1):
        # Push: factor values travel to the counted neighbourhood and are
        # gated by the child flag there; finished streams spend the block
        # on one in-alignment and one out-alignment hop instead.
        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if len(s.edges) >= t:
                child, d = s.edges[t - 1]
                pushed = plan.agg(opposite(d), s.dim)
                plan.set(s.recv, plan.mask01(pushed, plan.prev(sc.names[child])))
            else:
                plan.set(s.dim, plan.mask01(plan.agg("in", s.dim), mk))
        plan.set("U", plan.mask01(plan.agg("in", "U"), mk))
        plan.set("R2", plan.mask01(plan.glob("R2"), mk))

        # Pull: the focus collects the gated values back.
        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if len(s.edges) >= t:
                plan.set(s.dim, plan.mask01(plan.agg(s.edges[t - 1][1], s.recv), mk))
            else:
                plan.set(s.dim, plan.mask01(plan.agg("out", s.dim), mk))
        plan.set("U", plan.mask01(plan.agg("out", "U"), mk))
        plan.set("R2", plan.mask01(plan.glob("R2"), mk))

    # Odd alignment hop: every pipeline did 2K-1 divisions so far; one
    # more levels all monomials and the unit at (d_in*d_out)^-K.
    plan = sc.layer()
    mk = plan.prev("mk")
    for s in ss:
        plan.set(s.dim, plan.mask01(plan.agg(opposite(s.edges[0][1]), s.dim), mk))
    plan.set("U", plan.mask01(plan.agg("out", "U"), mk))
    plan.set("R2", plan.mask01(plan.glob("R2"), mk))
    return _focus_verdict(sc, ss, 2 * K)


def build_local_mixed(phi: PmlFormula, extra: Aggregator, klass: str) -> Mpnn:
    """Edge modalities, depth <= 1, mean plus sum-or-max; sound on any
    graph with a strongly marked focus.

    The outward push uses the extra aggregator: only the focus holds a
    nonzero value, so sum and max both deliver it undivided and no
    regularity is needed.  Every pull back into the focus divides by one
    focus degree; alignment self-loop hops finish all monomials and the
    unit at d_in(v)^-K * d_out(v)^-K.  e = 2*degree.
    """
    K = degree(phi)
    sc = Scaffold(phi, klass)
    if K == 0:
        return _global_net(sc)
    ss = streams(sc.modals)

    # Alignment ledgers: each pull into the focus divides by one focus
    # degree, so a stream owes K divisions per direction less its own
    # factors in that direction.  The unit and check scales start with one
    # division on the first hop.
    table = {s.dim: Ledger(ins=K - s.counted("in"), outs=K - s.counted("out")) for s in ss}
    table["U"] = Ledger(ins=K - 1, outs=K)
    table["R2"] = Ledger(glob=2 * K - 1)

    _first_hop(sc, ss)
    for t in range(2, K + 1):
        # Push on the extra aggregator: the focus is the only nonzero
        # source, so sum and max both deliver its value undivided.
        plan = sc.layer(extra)
        for s in ss:
            if len(s.edges) >= t:
                child, d = s.edges[t - 1]
                pushed = plan.agg(opposite(d), s.dim)
                plan.set(s.recv, plan.mask01(pushed, plan.prev(sc.names[child])))
        plan.hop("R2", table["R2"].pay(), partial(plan.mask01, flag=plan.prev("mk")))

        # Pull on mean: one focus-degree division per live stream.
        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if len(s.edges) >= t:
                plan.set(s.dim, plan.mask01(plan.agg(s.edges[t - 1][1], s.recv), mk))
        focus = partial(plan.mask01, flag=mk)
        for dim in ("U", "R2"):
            plan.hop(dim, table[dim].pay(), focus)

    _alignment_zone(sc, 2 * K - 1, table)
    return _focus_verdict(sc, ss, 2 * K)


# ---------------------------------------------------------------------------
# Shallow mixed (all four modalities, depth <= 1)


def build_shallow_mixed(
    phi: PmlFormula, extra: Optional[Aggregator], klass: str
) -> Mpnn:
    """Depth <= 1 with all four modalities in one constraint.

    Phases per monomial, in a fixed factor order (global, identity,
    edge): global factors run the gated global-mean cascade and finish
    with a mark-masked collect; each identity factor AND-gates the
    focus-held value with its child flag and re-localizes through one
    global mean; each edge factor is a push/pull ping-pong through the
    counted neighbourhood.  A monomial's count is a product of per-factor
    counts, so the factors commute, and each phase can assume the
    invariant the previous one established (the global phase ends
    focus-localized, which the identity gates and edge pushes both
    require).  A trailing zone of 3*degree mean layers
    tops every pipeline up to the uniform denominator
    n^-K * d_in^-K * d_out^-K (K = degree); the unit stream U, the
    empty monomial with no factors, owes all of it and reaches it by
    K global + K in + K out self-loop hops; the check scale R2 takes 3K
    global hops to n^-3K.  e = 3*degree.

    With ``extra`` unset everything is mean and soundness needs a
    regular graph (pushes divide by receiver degrees); with sum or max
    the push delivers the focus value undivided and any strongly marked
    pointed graph works.
    """
    K = degree(phi)
    sc = Scaffold(phi, klass)
    if K == 0:
        return _global_net(sc)
    ss = streams(sc.modals, "z") + [unit_stream()]
    c_max = max(len(s.tops) for s in ss)
    i_max = max(len(s.ids) for s in ss)
    e_max = max(len(s.edges) for s in ss)

    # Alignment ledger: mean hops still owed per stream after its own
    # factors.  Mean-only edge blocks divide by one receiver in-degree
    # and one focus out-degree (or vice versa) per factor; with an extra
    # aggregator only the pull divides, by the hop direction's focus
    # degree.
    def _edge_divs(s: Stream, direction: str) -> int:
        return len(s.edges) if extra is None else s.counted(direction)

    table = {
        s.dim: Ledger(
            K - len(s.tops) - len(s.ids),
            K - _edge_divs(s, "in"),
            K - _edge_divs(s, "out"),
        )
        for s in ss
    }
    table["R2"] = Ledger(glob=3 * K)

    plan, memo = sc.first()
    mark = plan.prev(sc.mark_bit)
    for s in ss:
        plan.set(s.dim, memo[s.tops[0]] if s.tops else mark)
    plan.set("R2", mark)

    # Global phase: gated mean cascade, then one collect onto the focus.
    for t in range(2, c_max + 1):
        plan = sc.layer()
        for s in ss:
            if len(s.tops) >= t:
                gate = plan.prev(sc.names[s.tops[t - 1]])
                plan.set(s.dim, plan.mask01(plan.glob(s.dim), gate))
    if c_max >= 1:
        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if s.tops:
                plan.set(s.dim, plan.mask01(plan.glob(s.dim), mk))

    # Identity phase: one AND gate at the focus, one re-localizing mean.
    for t in range(1, i_max + 1):
        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if len(s.ids) >= t:
                plan.set(
                    s.dim,
                    plan.relu(
                        [
                            (1, plan.prev(s.dim)),
                            (1, plan.prev(sc.names[s.ids[t - 1]])),
                            (1, mk),
                        ],
                        bias=-2,
                    ),
                )
        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if len(s.ids) >= t:
                plan.set(s.dim, plan.mask01(plan.glob(s.dim), mk))

    # Edge phase: push to the counted neighbourhood, gate by the child
    # flag there, pull back into the focus.
    for t in range(1, e_max + 1):
        plan = sc.layer(extra)
        for s in ss:
            if len(s.edges) >= t:
                child, direction = s.edges[t - 1]
                pushed = plan.agg(opposite(direction), s.dim)
                plan.set(s.recv, plan.mask01(pushed, plan.prev(sc.names[child])))

        plan = sc.layer()
        mk = plan.prev("mk")
        for s in ss:
            if len(s.edges) >= t:
                plan.set(s.dim, plan.mask01(plan.agg(s.edges[t - 1][1], s.recv), mk))

    _alignment_zone(sc, 3 * K, table)
    return _focus_verdict(sc, ss, 3 * K)
