"""Builders for depth-bounded formulas.

Five constructions share one playbook: a first layer evaluates every
modal-free subformula into 0/1 flags, middle layers accumulate each
constraint monomial as a product of counts divided by a known denominator,
and a final layer runs the constraint checks and the root's Boolean
skeleton at the accumulated scale.  They differ in which aggregations the
middle layers may use and therefore in which graph class the result is
sound on:

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
unit stream ``U`` and check scale ``R2``) and referenced by weight, never
baked into a bias.

Each builder is called by ``pmlc.compiler.compile`` only, with a formula
that has a modal node and lies in the target's fragment, and with the
target's graph class.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..logic import (
    Modal,
    Modality,
    PmlFormula,
    degree,
    flatten_global,
    max_prop,
    print_formula,
)
from ..mpnn import Aggregator, Mpnn
from ..net import Ref
from .build import (
    FragmentMismatch,
    LayerPlan,
    Ledger,
    NetBuilder,
    edge_streams,
    flat_names,
    marked_colours,
    monomial_streams,
    opposite,
    split_subformulas,
    write_flags,
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
    colours = max_prop(phi) + 1
    atom = phi.constraint  # homogeneous implies a single normalized atom
    monos = atom.monomials
    k = monos[0].degree if monos else 0

    nb = NetBuilder(colours)
    if k == 0:
        # No monomials, bound 0: the constraint reads 0 <= 0, so the
        # formula is a tautology; a constant-zero output accepts
        # everywhere under the inverted reading.
        plan = nb.layer()
        plan.set("out", plan.relu([]))
        plan.done()
        return nb.finish(
            exponent=0,
            inverted=True,
            required_class=klass,
            mark_colour=None,
            formula_text=print_formula(phi),
        )

    _subs, flats, _modals = split_subformulas(phi)
    names = flat_names(flats)

    plan = nb.layer()
    memo = write_flags(plan, flats, names)
    for h, m in enumerate(monos):
        child = phi.children[m.variables[0] - 1]
        plan.set(f"z{h}", memo[child])
    plan.done()

    for t in range(2, k + 1):
        plan = nb.layer()
        plan.carry(*[names[s] for s in flats])
        for h, m in enumerate(monos):
            child = phi.children[m.variables[t - 1] - 1]
            plan.set(
                f"z{h}", plan.mask01(plan.glob(f"z{h}"), plan.prev(names[child]))
            )
        plan.done()

    plan = nb.layer()
    plan.set(
        "out",
        plan.relu([(m.coeff, plan.glob(f"z{h}")) for h, m in enumerate(monos)]),
    )
    plan.done()

    return nb.finish(
        exponent=k,
        inverted=True,
        required_class=klass,
        mark_colour=None,
        formula_text=print_formula(phi),
    )


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
    return _global_net(flatten_global(phi) if flat is None else flat, klass, phi)


def _global_net(phi: PmlFormula, klass: str, source: PmlFormula) -> Mpnn:
    """Depth-1 compilation of ``phi`` (``source`` or its flattened form)
    with gated global means.

    At degree 0 the constraints count nothing, so the two layers built
    (flags, then checks against the mark as the unit) are sound for any
    modalities; the local builders use this for that case too.
    """
    colours, mark = marked_colours(source)
    subs, flats, modals = split_subformulas(phi)
    names = flat_names(flats)
    K = degree(phi)
    streams = monomial_streams(modals)
    sname = {key: f"z{h}" for h, key in enumerate(streams)}

    nb = NetBuilder(colours)
    plan = nb.layer()
    memo = write_flags(plan, flats, names)
    plan.set("mk", plan.prev(f"c{mark}"))
    if K >= 1:
        for (j, variables) in streams:
            child = modals[j].children[variables[0] - 1]
            plan.set(sname[(j, variables)], memo[child])
        plan.set("U", plan.prev(f"c{mark}"))
    plan.done()

    flag_dims = [names[s] for s in flats]
    for t in range(2, K + 1):
        plan = nb.layer()
        plan.carry(*flag_dims, "mk")
        mk = plan.prev("mk")
        for (j, variables) in streams:
            dim = sname[(j, variables)]
            if len(variables) >= t:
                child = modals[j].children[variables[t - 1] - 1]
                gate = plan.prev(names[child])
            else:
                gate = mk
            plan.set(dim, plan.mask01(plan.glob(dim), gate))
        plan.set("U", plan.mask01(plan.glob("U"), mk))
        plan.done()

    plan = nb.layer()
    uref = plan.glob("U") if K >= 1 else plan.prev("mk")
    _final_check_layer(plan, phi, modals, names, plan.glob, sname, uref, uref)
    plan.done()

    return nb.finish(
        exponent=K,
        inverted=False,
        required_class=klass,
        mark_colour=mark,
        formula_text=print_formula(source),
    )


# ---------------------------------------------------------------------------
# Local builders (edge modalities, depth <= 1)


def _final_check_layer(
    plan: LayerPlan,
    phi: PmlFormula,
    modals: List[Modal],
    names: Dict[PmlFormula, str],
    read: Callable[[str], Ref],
    stream_dim: Dict[Tuple[int, Tuple[int, ...]], str],
    uref: Ref,
    r2ref: Ref,
) -> None:
    """Constraint checks + root skeleton from accumulated stream dims.

    ``read`` is the port (``plan.prev`` or ``plan.glob``) the stream dims
    are read on.  ``uref`` (the unit) and ``r2ref`` (the check scale) are
    nonzero only at the focus, so the whole verdict collapses to zero
    elsewhere even before the mark mask.
    """
    modal_truth: Dict[PmlFormula, Ref] = {}
    for j, chi in enumerate(modals):
        def atom_ref(atom, j=j):
            return plan.atom_check(
                atom,
                lambda variables: read(stream_dim[(j, variables)]),
                uref,
                r2ref,
            )
        modal_truth[chi] = plan.peano_truth(chi.constraint, atom_ref, r2ref)

    def leaf(s):
        if isinstance(s, Modal):
            return modal_truth[s]
        return plan.flag_at(r2ref, plan.prev(names[s]))

    plan.set(
        "out", plan.mask01(plan.skeleton_truth(phi, leaf, r2ref), plan.prev("mk"))
    )


def _alignment_zone(
    nb: NetBuilder,
    layers: int,
    flag_dims: List[str],
    need: Dict[str, Ledger],
    unit: Ledger,
    r2: Ledger,
) -> None:
    """Mean layers that pay every stream's, the unit's and the check
    scale's owed divisions through focus self-loop and global hops, masked
    to the focus; every ledger must come out settled."""
    for _zone in range(layers):
        plan = nb.layer()
        plan.carry(*flag_dims, "mk")
        focus = partial(plan.mask01, flag=plan.prev("mk"))
        for dim, ledger in need.items():
            plan.hop(dim, ledger.pay(), focus)
        plan.hop("U", unit.pay(), focus)
        plan.hop("R2", r2.pay(), focus)
        plan.done()
    for ledger in (unit, r2, *need.values()):
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
    if K == 0:
        return _global_net(phi, klass, phi)
    colours, mark = marked_colours(phi)
    subs, flats, modals = split_subformulas(phi)
    names = flat_names(flats)
    streams = edge_streams(modals)
    stream_dim = {(s.j, s.variables): s.dim for s in streams}
    flag_dims = [names[s] for s in flats]

    nb = NetBuilder(colours)
    plan = nb.layer()
    write_flags(plan, flats, names)
    plan.set("mk", plan.prev(f"c{mark}"))
    plan.done()

    # First hop: read each monomial's first child count directly.
    plan = nb.layer()
    plan.carry(*flag_dims, "mk")
    mk = plan.prev("mk")
    for s in streams:
        first = plan.agg(s.dirs[0], names[s.children[0]])
        plan.set(s.dim, plan.mask01(first, mk))
    plan.set("U", plan.mask01(plan.agg_in("mk"), mk))
    plan.set("R2", plan.mask01(plan.glob("mk"), mk))
    plan.done()

    for t in range(2, K + 1):
        # Push: factor values travel to the counted neighbourhood and are
        # gated by the child flag there; finished streams spend the block
        # on one in-alignment and one out-alignment hop instead.
        plan = nb.layer()
        plan.carry(*flag_dims, "mk")
        mk = plan.prev("mk")
        for s in streams:
            if s.deg >= t:
                pushed = plan.agg(opposite(s.dirs[t - 1]), s.dim)
                plan.set(s.recv, plan.mask01(pushed, plan.prev(names[s.children[t - 1]])))
            else:
                plan.set(s.dim, plan.mask01(plan.agg_in(s.dim), mk))
        plan.set("U", plan.mask01(plan.agg_in("U"), mk))
        plan.set("R2", plan.mask01(plan.glob("R2"), mk))
        plan.done()

        # Pull: the focus collects the gated values back.
        plan = nb.layer()
        plan.carry(*flag_dims, "mk")
        mk = plan.prev("mk")
        for s in streams:
            if s.deg >= t:
                plan.set(s.dim, plan.mask01(plan.agg(s.dirs[t - 1], s.recv), mk))
            else:
                plan.set(s.dim, plan.mask01(plan.agg_out(s.dim), mk))
        plan.set("U", plan.mask01(plan.agg_out("U"), mk))
        plan.set("R2", plan.mask01(plan.glob("R2"), mk))
        plan.done()

    # Odd alignment hop: every pipeline did 2K-1 divisions so far; one
    # more levels all monomials and the unit at (d_in*d_out)^-K.
    plan = nb.layer()
    plan.carry(*flag_dims, "mk")
    mk = plan.prev("mk")
    for s in streams:
        plan.set(s.dim, plan.mask01(plan.agg(opposite(s.dirs[0]), s.dim), mk))
    plan.set("U", plan.mask01(plan.agg_out("U"), mk))
    plan.set("R2", plan.mask01(plan.glob("R2"), mk))
    plan.done()

    plan = nb.layer()
    _final_check_layer(
        plan, phi, modals, names, plan.prev, stream_dim, plan.prev("U"), plan.prev("R2")
    )
    plan.done()

    return nb.finish(
        exponent=2 * K,
        inverted=False,
        required_class=klass,
        mark_colour=mark,
        formula_text=print_formula(phi),
    )


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
    if K == 0:
        return _global_net(phi, klass, phi)
    colours, mark = marked_colours(phi)
    subs, flats, modals = split_subformulas(phi)
    names = flat_names(flats)
    streams = edge_streams(modals)
    stream_dim = {(s.j, s.variables): s.dim for s in streams}
    flag_dims = [names[s] for s in flats]

    # Alignment ledgers: each pull into the focus divides by one focus
    # degree, so a stream owes K divisions per direction less its own
    # factors in that direction.  The unit and check scales start with one
    # division on the first hop.
    need = {
        s.dim: Ledger(ins=K - s.dirs.count("in"), outs=K - s.dirs.count("out"))
        for s in streams
    }
    unit = Ledger(ins=K - 1, outs=K)
    r2 = Ledger(glob=2 * K - 1)

    nb = NetBuilder(colours)
    plan = nb.layer()
    write_flags(plan, flats, names)
    plan.set("mk", plan.prev(f"c{mark}"))
    plan.done()

    # First hop (mean layer): direct neighbourhood read per stream.
    plan = nb.layer()
    plan.carry(*flag_dims, "mk")
    mk = plan.prev("mk")
    for s in streams:
        plan.set(s.dim, plan.mask01(plan.agg(s.dirs[0], names[s.children[0]]), mk))
    plan.set("U", plan.mask01(plan.agg_in("mk"), mk))
    plan.set("R2", plan.mask01(plan.glob("mk"), mk))
    plan.done()

    for t in range(2, K + 1):
        # Push on the extra aggregator: the focus is the only nonzero
        # source, so sum and max both deliver its value undivided.
        plan = nb.layer(loc_in=extra, loc_out=extra)
        plan.carry(*flag_dims, "mk", "U")
        mk = plan.prev("mk")
        for s in streams:
            if s.deg >= t:
                pushed = plan.agg(opposite(s.dirs[t - 1]), s.dim)
                plan.set(s.recv, plan.mask01(pushed, plan.prev(names[s.children[t - 1]])))
            else:
                plan.carry(s.dim)
        plan.hop("R2", r2.pay(), partial(plan.mask01, flag=mk))
        plan.done()

        # Pull on mean: one focus-degree division per live stream.
        plan = nb.layer()
        plan.carry(*flag_dims, "mk")
        mk = plan.prev("mk")
        for s in streams:
            if s.deg >= t:
                plan.set(s.dim, plan.mask01(plan.agg(s.dirs[t - 1], s.recv), mk))
            else:
                plan.carry(s.dim)
        focus = partial(plan.mask01, flag=mk)
        plan.hop("U", unit.pay(), focus)
        plan.hop("R2", r2.pay(), focus)
        plan.done()

    _alignment_zone(nb, 2 * K - 1, flag_dims, need, unit, r2)

    plan = nb.layer()
    _final_check_layer(
        plan, phi, modals, names, plan.prev, stream_dim, plan.prev("U"), plan.prev("R2")
    )
    plan.done()

    return nb.finish(
        exponent=2 * K,
        inverted=False,
        required_class=klass,
        mark_colour=mark,
        formula_text=print_formula(phi),
    )


# ---------------------------------------------------------------------------
# Shallow mixed (all four modalities, depth <= 1)


class _MixedStream:
    """One monomial's factors, partitioned by modality kind.

    A monomial's count is a product of per-factor counts, so the factors
    commute; processing all global factors first, then identity factors,
    then edge factors lets each phase assume the invariant the previous
    one established (global phase ends focus-localized, which the
    identity gates and edge pushes both require).
    """

    def __init__(self, h: int, j: int, variables: Tuple[int, ...], chi: Modal):
        self.dim = f"z{h}"
        self.recv = f"r{h}"
        self.j = j
        self.variables = variables
        self.tops: List[PmlFormula] = []
        self.ids: List[PmlFormula] = []
        self.edges: List[Tuple[PmlFormula, str]] = []
        for v in variables:
            child = chi.children[v - 1]
            m = chi.modalities[v - 1]
            if m is Modality.TOP:
                self.tops.append(child)
            elif m is Modality.ID:
                self.ids.append(child)
            else:
                self.edges.append((child, m.surface))


def build_shallow_mixed(
    phi: PmlFormula, extra: Optional[Aggregator], klass: str
) -> Mpnn:
    """Depth <= 1 with all four modalities in one constraint.

    Phases per monomial, in a fixed factor order (global, identity,
    edge): global factors run the gated global-mean cascade and finish
    with a mark-masked collect; each identity factor AND-gates the
    focus-held value with its child flag and re-localizes through one
    global mean; each edge factor is a push/pull ping-pong through the
    counted neighbourhood.  A trailing zone of 3*degree mean layers
    tops every pipeline up to the uniform denominator
    n^-K * d_in^-K * d_out^-K (K = degree), which the unit stream U
    reaches by K global + K in + K out self-loop hops; the check scale
    R2 takes 3K global hops to n^-3K.  e = 3*degree.

    With ``extra`` unset everything is mean and soundness needs a
    regular graph (pushes divide by receiver degrees); with sum or max
    the push delivers the focus value undivided and any strongly marked
    pointed graph works.
    """
    K = degree(phi)
    if K == 0:
        return _global_net(phi, klass, phi)
    colours, mark = marked_colours(phi)
    subs, flats, modals = split_subformulas(phi)
    names = flat_names(flats)
    streams = [
        _MixedStream(h, j, variables, modals[j])
        for h, (j, variables) in enumerate(monomial_streams(modals))
    ]
    stream_dim = {(s.j, s.variables): s.dim for s in streams}
    flag_dims = [names[s] for s in flats]
    c_max = max((len(s.tops) for s in streams), default=0)
    i_max = max((len(s.ids) for s in streams), default=0)
    e_max = max((len(s.edges) for s in streams), default=0)

    # Alignment ledger: mean hops still owed per stream after its own
    # factors.  Mean-only edge blocks divide by one receiver in-degree
    # and one focus out-degree (or vice versa) per factor; with an extra
    # aggregator only the pull divides, by the hop direction's focus
    # degree.
    def _edge_divs(s: _MixedStream, direction: str) -> int:
        if extra is None:
            return len(s.edges)
        return sum(1 for _, d in s.edges if d == direction)

    need = {
        s.dim: Ledger(
            K - len(s.tops) - len(s.ids),
            K - _edge_divs(s, "in"),
            K - _edge_divs(s, "out"),
        )
        for s in streams
    }
    unit = Ledger(K, K, K)
    r2 = Ledger(glob=3 * K)

    nb = NetBuilder(colours)
    plan = nb.layer()
    memo = write_flags(plan, flats, names)
    plan.set("mk", plan.prev(f"c{mark}"))
    for s in streams:
        plan.set(s.dim, memo[s.tops[0]] if s.tops else plan.prev(f"c{mark}"))
    plan.set("U", plan.prev(f"c{mark}"))
    plan.set("R2", plan.prev(f"c{mark}"))
    plan.done()

    # Global phase: gated mean cascade, then one collect onto the focus.
    for t in range(2, c_max + 1):
        plan = nb.layer()
        plan.carry(*flag_dims, "mk", "U", "R2")
        for s in streams:
            if len(s.tops) >= t:
                gate = plan.prev(names[s.tops[t - 1]])
                plan.set(s.dim, plan.mask01(plan.glob(s.dim), gate))
            else:
                plan.carry(s.dim)
        plan.done()
    if c_max >= 1:
        plan = nb.layer()
        plan.carry(*flag_dims, "mk", "U", "R2")
        mk = plan.prev("mk")
        for s in streams:
            if s.tops:
                plan.set(s.dim, plan.mask01(plan.glob(s.dim), mk))
            else:
                plan.carry(s.dim)
        plan.done()

    # Identity phase: one AND gate at the focus, one re-localizing mean.
    for t in range(1, i_max + 1):
        plan = nb.layer()
        plan.carry(*flag_dims, "mk", "U", "R2")
        mk = plan.prev("mk")
        for s in streams:
            if len(s.ids) >= t:
                plan.set(
                    s.dim,
                    plan.relu(
                        [
                            (1, plan.prev(s.dim)),
                            (1, plan.prev(names[s.ids[t - 1]])),
                            (1, mk),
                        ],
                        bias=-2,
                    ),
                )
            else:
                plan.carry(s.dim)
        plan.done()
        plan = nb.layer()
        plan.carry(*flag_dims, "mk", "U", "R2")
        mk = plan.prev("mk")
        for s in streams:
            if len(s.ids) >= t:
                plan.set(s.dim, plan.mask01(plan.glob(s.dim), mk))
            else:
                plan.carry(s.dim)
        plan.done()

    # Edge phase: push to the counted neighbourhood, gate by the child
    # flag there, pull back into the focus.
    for t in range(1, e_max + 1):
        if extra is None:
            plan = nb.layer()
        else:
            plan = nb.layer(loc_in=extra, loc_out=extra)
        plan.carry(*flag_dims, "mk", "U", "R2")
        for s in streams:
            if len(s.edges) >= t:
                child, direction = s.edges[t - 1]
                pushed = plan.agg(opposite(direction), s.dim)
                plan.set(s.recv, plan.mask01(pushed, plan.prev(names[child])))
            else:
                plan.carry(s.dim)
        plan.done()

        plan = nb.layer()
        plan.carry(*flag_dims, "mk", "U", "R2")
        mk = plan.prev("mk")
        for s in streams:
            if len(s.edges) >= t:
                _child, direction = s.edges[t - 1]
                plan.set(s.dim, plan.mask01(plan.agg(direction, s.recv), mk))
            else:
                plan.carry(s.dim)
        plan.done()

    _alignment_zone(nb, 3 * K, flag_dims, need, unit, r2)

    plan = nb.layer()
    _final_check_layer(
        plan, phi, modals, names, plan.prev, stream_dim, plan.prev("U"), plan.prev("R2")
    )
    plan.done()

    return nb.finish(
        exponent=3 * K,
        inverted=False,
        required_class=klass,
        mark_colour=mark,
        formula_text=print_formula(phi),
    )
