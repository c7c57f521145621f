"""Builder for depth-critical nested formulas over edge modalities.

Counting across several modal levels cannot reuse the shallow ping-pong
directly: a node one hop from the focus aggregates over neighbours the
focus cannot tell apart.  This builder makes those neighbourhoods
separable by indexing every accumulator with a *trace class*: the set of
edge-modality chains (length < modal depth) along which a node is
reachable from the focus.  On tree-like pointed graphs any two nodes a
message could conflate sit in different classes, so a mean aggregation
received on one class dimension carries at most one sender's value and
stays exactly reconstructible.

Structure of the network, for modal depth M and constraint degree K:

* setup (layers 1..M-1) — truth flags, the focus mark, a carrier dim
  whose global mean supplies the uniform scale n^-j at layer j, and
  reach dims y_T tracking whether a node ends some class trace T;
* one seeding layer: stage-1 accumulators and unit streams start at the
  uniform scale, zeroed outside their class by the separation gadget;
* M stages, innermost constraints first.  A stage runs K push/pull
  blocks (one per monomial factor; pushes are gated by the child's
  truth, either a layer-1 flag or the previous stage's combination
  dims), an alignment zone equalizing every pipeline's denominator, and
  a check layer evaluating the stage's constraints at the uniform check
  scale, emitting combination dims plus the next stage's seeds.  The
  final stage's check layer is the root: it sums each top-level modal
  truth over all classes and masks the skeleton's verdict to the focus.

Mean-only networks ("regular" variants) additionally need a regular
graph so that every push/pull division is by the same degree; with a
sum or max aggregator the push arrives undivided (at most one sender
per class dimension) and only focus-side pulls divide, by the receiving
node's own degrees.  e = M-1+2KM; the verdict reads n^-e at the focus.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple

from ..logic import (
    And,
    Modal,
    Modality,
    Not,
    PmlFormula,
    classify,
    degree,
    modal_depth,
    print_formula,
    trace_index,
)
from ..mpnn import Aggregator, Mpnn
from .build import (
    FragmentMismatch,
    LayerPlan,
    Ledger,
    NetBuilder,
    TraceLimitExceeded,
    degenerate_boolean,
    flat_names,
    monomial_streams,
    split_subformulas,
    write_flags,
)
from .shallow import _direction, _marked_colours, _opposite


def _recv_port(e: Modality) -> str:
    """Side on which a walk step's target node sees the step's source."""
    return "in" if e is Modality.E_OUT else "out"


def _modal_leaves(s: PmlFormula) -> List[Modal]:
    """Maximal modal subformulas of a Boolean skeleton, in reading order."""
    if isinstance(s, Modal):
        return [s]
    if isinstance(s, Not):
        return _modal_leaves(s.operand)
    if isinstance(s, And):
        return _modal_leaves(s.left) + _modal_leaves(s.right)
    return []


def _check_critical(phi: PmlFormula, M: int) -> None:
    """Require every modal node to sit at exactly one nesting level.

    Under o enclosing modal positions a modal node must have modal depth
    M - o, so each stage of the pipeline sees each modal node once and
    trace lengths determine evaluation sites uniquely.
    """

    def walk(s: PmlFormula, o: int) -> None:
        if isinstance(s, Not):
            walk(s.operand, o)
        elif isinstance(s, And):
            walk(s.left, o)
            walk(s.right, o)
        elif isinstance(s, Modal):
            if modal_depth(s) != M - o:
                raise FragmentMismatch(
                    "nested compilation needs depth-critical nesting: a "
                    f"modal node under {o} enclosing modal positions must "
                    f"have modal depth {M - o}, found {modal_depth(s)}"
                )
            for child in s.children:
                walk(child, o + 1)

    walk(phi, 0)


class _StageStream:
    """One monomial's accumulator pipeline within a stage."""

    def __init__(self, level: int, h: int, j: int, variables: Tuple[int, ...], chi: Modal):
        self.base = f"a{level}.{h}"
        self.rbase = f"r{level}.{h}"
        self.j = j
        self.variables = variables
        self.children = [chi.children[v - 1] for v in variables]
        self.dirs = [_direction(chi.modalities[v - 1]) for v in variables]
        self.deg = len(variables)

    def acc(self, ii: int) -> str:
        return f"{self.base}.{ii}"

    def rcv(self, ii: int) -> str:
        return f"{self.rbase}.{ii}"


def build_nested(
    phi: PmlFormula, extra: Optional[Aggregator] = None, trace_cap: int = 8
) -> Mpnn:
    """Edge modalities at any depth-critical nesting depth.

    Mean-only (``extra`` unset) compiles onto regular tree-like pointed
    graphs; with sum or max onto all tree-like ones.  Width grows with
    2^t for t trace chains, so formulas needing more than ``trace_cap``
    chains are rejected.
    """
    if extra is not None and extra not in (Aggregator.SUM, Aggregator.MAX):
        raise ValueError("extra aggregator must be sum or max")
    tags = classify(phi)
    if not tags.only_edges:
        raise FragmentMismatch("nested compilation needs edge modalities only")
    klass = "regular-tree-like" if extra is None else "tree-like"
    colours, mark = _marked_colours(phi)
    M = tags.max_modal_depth
    if M == 0:
        return degenerate_boolean(phi, colours, "marked", mark)
    _check_critical(phi, M)
    tidx = tuple(islice(trace_index(phi), trace_cap + 2))
    if len(tidx) - 1 > trace_cap:
        raise TraceLimitExceeded(
            f"formula needs more than {trace_cap} trace dimensions, cap is {trace_cap}"
        )
    K = degree(phi)
    subsets = range(2 ** len(tidx))

    _subs, flats, _modals = split_subformulas(phi)
    names = flat_names(flats)
    flag_dims = [names[s] for s in flats]

    # Stage tables: modal nodes of depth `level`, restricted to those the
    # root skeleton actually reaches through counted positions; plus the
    # depth-`level` children whose truths the next stage's pushes gate on.
    stage_modals: Dict[int, List[Modal]] = {M: []}
    for chi in _modal_leaves(phi):
        if chi not in stage_modals[M]:
            stage_modals[M].append(chi)
    stage_children: Dict[int, List[PmlFormula]] = {}
    for level in range(M, 1, -1):
        refs: List[PmlFormula] = []
        for chi in stage_modals[level]:
            used = sorted({v for _j, vs in monomial_streams([chi]) for v in vs})
            for v in used:
                child = chi.children[v - 1]
                if modal_depth(child) >= 1 and child not in refs:
                    refs.append(child)
        stage_children[level - 1] = refs
        lower: List[Modal] = []
        for gamma in refs:
            for chi in _modal_leaves(gamma):
                if chi not in lower:
                    lower.append(chi)
        stage_modals[level - 1] = lower

    streams: Dict[int, List[_StageStream]] = {}
    hmap: Dict[int, Dict[Tuple[int, Tuple[int, ...]], _StageStream]] = {}
    for level in range(1, M + 1):
        rows = monomial_streams(stage_modals[level])
        streams[level] = [
            _StageStream(level, h, j, vs, stage_modals[level][j])
            for h, (j, vs) in enumerate(rows)
        ]
        hmap[level] = {(s.j, s.variables): s for s in streams[level]}

    zone_len = K if extra is None else max(2 * K - 1, 0)
    total_layers = M + M * (2 * K + zone_len + 1)

    def e_of(level: int) -> int:
        return (M - 1) + 2 * K * level

    def uname(j: int) -> str:
        return f"u{j}"

    exponent = e_of(M)
    needed_u = (set(range(1, M)) | {e_of(l) for l in range(1, M + 1)}) - {0}
    if max(needed_u, default=0) >= total_layers:
        raise RuntimeError("uniform scales outlive the network's layers")

    nb = NetBuilder(colours)
    mark_bit = f"c{mark}"
    standing: List[str] = []  # dims re-emitted by every maintained layer
    li = 0  # absolute 1-based index of the layer under construction

    def sep(plan: LayerPlan, ii: int, x, mk_ref=None):
        """Zero ``x`` at nodes whose trace class is not subset ``ii``.

        Exact for 0 <= x <= n^-(M-1): each present trace contributes its
        reach dim minus the matching uniform (zero iff the node ends it),
        each absent trace subtracts its reach dim, and the empty trace is
        matched against the mark; any mismatch costs at least one uniform
        scale, which x cannot exceed.
        """
        mk = mk_ref if mk_ref is not None else plan.prev("mk")
        terms = [(1, x)]
        bias = 0
        for ti, trace in enumerate(tidx):
            inside = ii >> ti & 1
            if not trace:
                if inside:
                    terms.append((1, mk))
                    bias -= 1
                else:
                    terms.append((-1, mk))
            elif inside:
                terms.append((1, plan.prev(f"y{ti}")))
                terms.append((-1, plan.prev(uname(len(trace)))))
            else:
                terms.append((-1, plan.prev(f"y{ti}")))
        return plan.relu(terms, bias=bias)

    def pull(plan: LayerPlan, dim: Callable[[int], str], port: Optional[str]) -> None:
        """One owed division on ``port`` (or a carry) for every class copy."""
        for ii in subsets:
            plan.hop(dim(ii), port, partial(sep, plan, ii))

    def open_layer(push: bool = False) -> LayerPlan:
        nonlocal li
        li += 1
        if push and extra is not None:
            return nb.layer(loc_in=extra, loc_out=extra)
        return nb.layer()

    def maintain(plan: LayerPlan):
        """Standing carries plus carrier/uniform bookkeeping for layer li."""
        plan.carry(*standing)
        mk = plan.prev("mk")
        if li < exponent:
            plan.set("C", plan.mask01(plan.glob("C"), mk))
        if li in needed_u:
            plan.set(uname(li), plan.relu([(1, plan.glob("C"))]))
            standing.append(uname(li))
        return mk

    # Layer 1: flags, mark, carrier; for M >= 2 the first reach dims and
    # uniform, for M = 1 a constant unit dim and the stage-1 seeds.
    plan = open_layer()
    write_flags(plan, flats, names)
    mkbit = plan.prev(mark_bit)
    plan.set("mk", mkbit)
    plan.set("C", plan.mask01(plan.glob(mark_bit), mkbit))
    standing.extend(flag_dims)
    standing.append("mk")
    if M >= 2:
        plan.set(uname(1), plan.relu([(1, plan.glob(mark_bit))]))
        standing.append(uname(1))
        for ti, trace in enumerate(tidx):
            if len(trace) == 1:
                port = _recv_port(trace[0])
                plan.set(
                    f"y{ti}",
                    plan.min_(plan.glob(mark_bit), plan.agg(port, mark_bit)),
                )
                standing.append(f"y{ti}")
    else:
        one = plan.relu([], bias=1)
        plan.set(uname(0), one)
        standing.append(uname(0))
        for s in streams[1]:
            for ii in subsets:
                plan.set(s.acc(ii), sep(plan, ii, one, mk_ref=mkbit))
        for ii in subsets:
            plan.set(f"U1.{ii}", sep(plan, ii, one, mk_ref=mkbit))
    plan.done()

    # Remaining setup: reach dims of length i arrive at layer i, each the
    # minimum of the capped carrier mean and the parent dim's directed mean.
    for i in range(2, M):
        plan = open_layer()
        maintain(plan)
        for ti, trace in enumerate(tidx):
            if len(trace) == i:
                parent = tidx.index(trace[:-1])
                port = _recv_port(trace[-1])
                plan.set(
                    f"y{ti}",
                    plan.min_(plan.glob("C"), plan.agg(port, f"y{parent}")),
                )
                standing.append(f"y{ti}")
        plan.done()

    # Seeding layer: stage-1 accumulators and unit at the uniform scale.
    if M >= 2:
        plan = open_layer()
        maintain(plan)
        src = plan.prev(uname(M - 1))
        for s in streams[1]:
            for ii in subsets:
                plan.set(s.acc(ii), sep(plan, ii, src))
        for ii in subsets:
            plan.set(f"U1.{ii}", sep(plan, ii, src))
        plan.done()

    for level in range(1, M + 1):
        ss = streams[level]
        cbs = stage_children.get(level - 1, [])
        cb_index = {gamma: c for c, gamma in enumerate(cbs)}
        sref_name = uname(e_of(level - 1))

        def udim(ii: int) -> str:
            return f"U{level}.{ii}"

        def vdim(ii: int) -> str:
            return f"V{level}.{ii}"

        # Alignment ledgers: a mean-only stream owes one in-division per
        # missing factor; with an extra aggregator only focus-side pulls
        # divide, so a stream owes K per direction less its own factors.
        if extra is None:
            need = {s.base: Ledger(ins=K - s.deg) for s in ss}
            unit = Ledger(ins=K)
        else:
            need = {
                s.base: Ledger(ins=K - s.dirs.count("in"), outs=K - s.dirs.count("out"))
                for s in ss
            }
            unit = Ledger(ins=K, outs=K)

        def carry_cb(plan: LayerPlan) -> None:
            for c in range(len(cbs)):
                for ii in subsets:
                    plan.carry(f"cb{level - 1}.{c}.{ii}")

        for t in range(1, K + 1):
            # Push: each live accumulator travels to the counted
            # neighbourhood and is gated there by the factor child's truth.
            plan = open_layer(push=True)
            maintain(plan)
            carry_cb(plan)
            sref = plan.prev(sref_name)
            for s in ss:
                if t <= s.deg:
                    child, d = s.children[t - 1], s.dirs[t - 1]
                    for ii in subsets:
                        raw = plan.agg(_opposite(d), s.acc(ii))
                        if modal_depth(child) == 0:
                            gated = plan.mask01(raw, plan.prev(names[child]))
                        else:
                            c = cb_index[child]
                            gated = plan.relu(
                                [(1, raw), (-1, sref)]
                                + [
                                    (1, plan.prev(f"cb{level - 1}.{c}.{jj}"))
                                    for jj in subsets
                                ]
                            )
                        plan.set(s.rcv(ii), gated)
                else:
                    for ii in subsets:
                        if extra is None:
                            # Idle round trip, first half: park the value on
                            # the in-neighbourhood (one regular division).
                            plan.set(
                                s.rcv(ii), plan.relu([(1, plan.agg_in(s.acc(ii)))])
                            )
                        else:
                            plan.carry(s.acc(ii))
            for ii in subsets:
                if extra is None:
                    plan.set(vdim(ii), plan.relu([(1, plan.agg_in(udim(ii)))]))
                else:
                    plan.carry(udim(ii))
            plan.done()

            # Pull: collect the gated values back onto the stage sites.
            plan = open_layer()
            maintain(plan)
            carry_cb(plan)
            for s in ss:
                if t <= s.deg:
                    d = s.dirs[t - 1]
                    for ii in subsets:
                        plan.set(s.acc(ii), sep(plan, ii, plan.agg(d, s.rcv(ii))))
                elif extra is None:
                    for ii in subsets:
                        plan.set(s.acc(ii), sep(plan, ii, plan.agg_out(s.rcv(ii))))
                else:
                    pull(plan, s.acc, need[s.base].pay())
            if extra is None:
                for ii in subsets:
                    plan.set(udim(ii), sep(plan, ii, plan.agg_out(vdim(ii))))
            else:
                pull(plan, udim, unit.pay())
            plan.done()

        # Alignment zone: self-loop hops level every pipeline and the unit
        # at the stage's common denominator.
        for _zone in range(zone_len):
            plan = open_layer()
            maintain(plan)
            for s in ss:
                pull(plan, s.acc, need[s.base].pay())
            pull(plan, udim, unit.pay())
            plan.done()
        for ledger in (unit, *need.values()):
            ledger.close()

        # Check layer: evaluate this stage's constraints at the check scale.
        r2name = uname(e_of(level))
        if level < M:
            plan = open_layer()
            maintain(plan)
        else:
            plan = open_layer()
        r2 = plan.prev(r2name)

        zref = {}
        for j, chi in enumerate(stage_modals[level]):
            for ii in subsets:

                def atom_ref(atom, _j=j, _ii=ii):
                    return plan.atom_check(
                        atom,
                        lambda vs, _j=_j, _ii=_ii: plan.prev(
                            hmap[level][(_j, vs)].acc(_ii)
                        ),
                        plan.prev(udim(_ii)),
                        r2,
                    )

                zref[(chi, ii)] = sep(
                    plan, ii, plan.peano_truth(chi.constraint, atom_ref, r2)
                )

        if level < M:
            for c, gamma in enumerate(stage_children[level]):
                for ii in subsets:

                    def leaf(s, _ii=ii):
                        if isinstance(s, Modal):
                            return zref[(s, _ii)]
                        return plan.flag_at(r2, plan.prev(names[s]))

                    plan.set(
                        f"cb{level}.{c}.{ii}",
                        sep(plan, ii, plan.skeleton_truth(gamma, leaf, r2)),
                    )
            for s2 in streams[level + 1]:
                for ii in subsets:
                    plan.set(s2.acc(ii), sep(plan, ii, plan.prev(r2name)))
            for ii in subsets:
                plan.set(f"U{level + 1}.{ii}", sep(plan, ii, plan.prev(r2name)))
            plan.done()
        else:

            def root_leaf(s):
                if isinstance(s, Modal):
                    return plan.sum_of([zref[(s, ii)] for ii in subsets])
                return plan.flag_at(r2, plan.prev(names[s]))

            plan.set(
                "out",
                plan.mask01(plan.skeleton_truth(phi, root_leaf, r2), plan.prev("mk")),
            )
            plan.done()

    if not li == total_layers == len(nb.layers):
        raise RuntimeError(
            f"nested network has {len(nb.layers)} layers, planned {total_layers}"
        )
    return nb.finish(
        exponent=exponent,
        inverted=False,
        required_class=klass,
        mark_colour=mark,
        formula_text=print_formula(phi),
    )
