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
* one seeding layer: stage 1's streams start at the uniform scale,
  zeroed outside their class by the separation gadget;
* M stages, innermost constraints first.  A stage runs K push/pull
  blocks (one per monomial factor; pushes are gated by the child's
  truth, either a layer-1 flag or the previous stage's combination
  dims), an alignment zone equalizing every pipeline's denominator, and
  a check layer evaluating the stage's constraints at the uniform check
  scale, emitting combination dims plus the next stage's seeds.  The
  final stage's check layer is the root: it sums each top-level modal
  truth over all classes and masks the skeleton's verdict to the focus.

A stage's unit ``U<level>`` is the empty monomial's stream, last in the
stage's stream list, so the stream loops seed it, run its idle round
trips and pay its divisions from the stage's one ledger table; with no
factors it owes the whole common denominator.

Mean-only networks ("regular" variants) additionally need a regular
graph so that every push/pull division is by the same degree; with a
sum or max aggregator the push arrives undivided (at most one sender
per class dimension) and only focus-side pulls divide, by the receiving
node's own degrees.  e = M-1+2KM; the verdict reads n^-e at the focus.

Every layer after the first moves the carrier on while its 1-based
index is below e, and adds a uniform at the indices that need one.  The
flags, the mark, the uniforms and the reach dims reach the layers that
read them by routing, as every other dim does.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Callable, Dict, List, Optional

from ..logic import (
    Modal,
    PmlFormula,
    degree,
    modal_depth,
    postorder,
    skeleton_operands,
    trace_index,
)
from ..mpnn import Aggregator, Mpnn
from .build import (
    FragmentMismatch,
    LayerPlan,
    Ledger,
    Scaffold,
    TraceLimitExceeded,
    opposite,
    streams,
    unit_stream,
)


def _modal_leaves(s: PmlFormula) -> List[Modal]:
    """Maximal modal subformulas of a Boolean skeleton, in reading order."""
    return [c for c in postorder(s, skeleton_operands) if isinstance(c, Modal)]


def _check_critical(phi: PmlFormula, M: int) -> None:
    """Require every modal node to sit at exactly one nesting level.

    Under o enclosing modal positions a modal node must have modal depth
    M - o, so each stage of the pipeline sees each modal node once and
    trace lengths determine evaluation sites uniquely.
    """
    stack = [(phi, 0)]
    seen = set()
    while stack:
        s, o = stack.pop()
        if (s, o) in seen:
            continue
        seen.add((s, o))
        if isinstance(s, Modal):
            if modal_depth(s) != M - o:
                raise FragmentMismatch(
                    "nested compilation needs depth-critical nesting: a "
                    f"modal node under {o} enclosing modal positions must "
                    f"have modal depth {M - o}, found {modal_depth(s)}"
                )
            stack.extend((c, o + 1) for c in reversed(s.children))
        else:
            stack.extend((c, o) for c in reversed(skeleton_operands(s)))


def build_nested(
    phi: PmlFormula, extra: Optional[Aggregator], klass: str, trace_cap: int
) -> Mpnn:
    """Edge modalities at any depth-critical nesting depth.

    Mean-only (``extra`` unset) compiles onto regular tree-like pointed
    graphs; with sum or max onto all tree-like ones.  Width grows with
    2^t for t trace chains, so formulas needing more than ``trace_cap``
    chains are rejected.
    """
    M = modal_depth(phi)
    _check_critical(phi, M)
    tidx = tuple(islice(trace_index(phi), trace_cap + 2))
    if len(tidx) - 1 > trace_cap:
        raise TraceLimitExceeded(
            f"formula needs more than {trace_cap} trace dimensions, cap is {trace_cap}"
        )
    K = degree(phi)
    subsets = range(2 ** len(tidx))

    sc = Scaffold(phi, klass)

    # Stage tables: modal nodes of depth `level`, restricted to those the
    # root skeleton actually reaches through counted positions; plus the
    # depth-`level` children whose truths the next stage's pushes gate on.
    stage_modals: Dict[int, List[Modal]] = {M: _modal_leaves(phi)}
    stage_children: Dict[int, List[PmlFormula]] = {}
    for level in range(M, 1, -1):
        refs: List[PmlFormula] = []
        for chi in stage_modals[level]:
            used = sorted({v for s in streams([chi]) for v in s.variables})
            for v in used:
                child = chi.children[v - 1]
                if modal_depth(child) >= 1 and child not in refs:
                    refs.append(child)
        stage_children[level - 1] = refs
        stage_modals[level - 1] = list(
            dict.fromkeys(chi for gamma in refs for chi in _modal_leaves(gamma))
        )

    zone_len = K if extra is None else max(2 * K - 1, 0)
    total_layers = M + M * (2 * K + zone_len + 1)

    def e_of(level: int) -> int:
        return (M - 1) + 2 * K * level

    exponent = e_of(M)
    needed_u = (set(range(1, M)) | {e_of(l) for l in range(1, M + 1)}) - {0}
    if max(needed_u, default=0) >= total_layers:
        raise RuntimeError("uniform scales outlive the network's layers")

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
                terms.append((-1, plan.prev(f"u{len(trace)}")))
            else:
                terms.append((-1, plan.prev(f"y{ti}")))
        return plan.relu(terms, bias=bias)

    def pull(plan: LayerPlan, dim: Callable[[int], str], port: Optional[str]) -> None:
        """One owed division on ``port``, if any, for every class copy."""
        for ii in subsets:
            plan.hop(dim(ii), port, partial(sep, plan, ii))

    def open_layer(push: bool = False) -> LayerPlan:
        """A layer after the first, with the carrier and uniform
        bookkeeping for its index; a push layer's in and out ports use the
        extra aggregator."""
        plan = sc.layer(extra if push else None)
        if plan.k < exponent:
            plan.set("C", plan.mask01(plan.glob("C"), plan.prev("mk")))
        if plan.k in needed_u:
            plan.set(f"u{plan.k}", plan.relu([(1, plan.glob("C"))]))
        return plan

    # Layer 1: flags, mark, carrier; for M >= 2 the first reach dims and
    # uniform, for M = 1 a constant unit dim that seeds stage 1 here,
    # separated against the mark bit since ``mk`` is not written yet.
    plan, _memo = sc.first()
    mk_ref = plan.prev(sc.mark_bit)
    plan.set("C", plan.mask01(plan.glob(sc.mark_bit), mk_ref))
    if M >= 2:
        plan.set("u1", plan.relu([(1, plan.glob(sc.mark_bit))]))
        for ti, trace in enumerate(tidx):
            if len(trace) == 1:
                port = opposite(trace[0].surface)
                plan.set(
                    f"y{ti}",
                    plan.min_(plan.glob(sc.mark_bit), plan.agg(port, sc.mark_bit)),
                )
    else:
        src = plan.relu([], bias=1)
        plan.set("u0", src)

    # Remaining setup: reach dims of length i arrive at layer i, each the
    # minimum of the capped carrier mean and the parent dim's directed mean.
    for i in range(2, M):
        plan = open_layer()
        for ti, trace in enumerate(tidx):
            if len(trace) == i:
                parent = tidx.index(trace[:-1])
                port = opposite(trace[-1].surface)
                plan.set(
                    f"y{ti}", plan.min_(plan.glob("C"), plan.agg(port, f"y{parent}"))
                )

    # Seeding layer: stage 1 starts at the uniform scale.
    if M >= 2:
        plan = open_layer()
        src, mk_ref = plan.prev(f"u{M - 1}"), None

    for level in range(1, M + 1):
        # The stage's streams, the unit ``U<level>`` last, all seeded at
        # ``src``: the seeding layer's uniform for stage 1, the previous
        # stage's check scale after it.
        ss = streams(stage_modals[level], "a", f"{level}.") + [unit_stream(str(level))]
        by_monomial = {(s.j, s.variables): s for s in ss}
        for s in ss:
            for ii in subsets:
                plan.set(s.acc(ii), sep(plan, ii, src, mk_ref))

        cbs = stage_children.get(level - 1, [])
        cb_index = {gamma: c for c, gamma in enumerate(cbs)}
        sref_name = f"u{e_of(level - 1)}"

        # Alignment ledgers: a mean-only stream owes one in-division per
        # missing factor; with an extra aggregator only focus-side pulls
        # divide, so a stream owes K per direction less its own factors.
        if extra is None:
            need = {s.dim: Ledger(ins=K - len(s.edges)) for s in ss}
        else:
            need = {
                s.dim: Ledger(ins=K - s.counted("in"), outs=K - s.counted("out"))
                for s in ss
            }

        for t in range(1, K + 1):
            # Push: each live accumulator travels to the counted
            # neighbourhood and is gated there by the factor child's truth.
            plan = open_layer(push=True)
            sref = plan.prev(sref_name)
            for s in ss:
                if t <= len(s.edges):
                    child, d = s.edges[t - 1]
                    for ii in subsets:
                        raw = plan.agg(opposite(d), s.acc(ii))
                        if modal_depth(child) == 0:
                            gated = plan.mask01(raw, plan.prev(sc.names[child]))
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
                elif extra is None:
                    # Idle round trip, first half: park the value on the
                    # in-neighbourhood (one regular division).
                    for ii in subsets:
                        plan.set(s.rcv(ii), plan.relu([(1, plan.agg("in", s.acc(ii)))]))

            # Pull: collect the gated values back onto the stage sites.
            plan = open_layer()
            for s in ss:
                if t <= len(s.edges):
                    d = s.edges[t - 1][1]
                    for ii in subsets:
                        plan.set(s.acc(ii), sep(plan, ii, plan.agg(d, s.rcv(ii))))
                elif extra is None:
                    for ii in subsets:
                        plan.set(s.acc(ii), sep(plan, ii, plan.agg("out", s.rcv(ii))))
                else:
                    pull(plan, s.acc, need[s.dim].pay())

        # Alignment zone: self-loop hops level every pipeline, the unit's
        # included, at the stage's common denominator.
        for _zone in range(zone_len):
            plan = open_layer()
            for s in ss:
                pull(plan, s.acc, need[s.dim].pay())
        for ledger in need.values():
            ledger.close()

        # Check layer: evaluate this stage's constraints at the check scale.
        plan = open_layer() if level < M else sc.layer()
        r2 = plan.prev(f"u{e_of(level)}")

        zref = {}
        for j, chi in enumerate(stage_modals[level]):
            for ii in subsets:

                # ``boolean`` calls it now, while j and ii hold.
                def atom_ref(atom):
                    return plan.atom_check(
                        atom,
                        lambda vs: plan.prev(by_monomial[(j, vs)].acc(ii)),
                        plan.prev(ss[-1].acc(ii)),
                        r2,
                    )

                zref[(chi, ii)] = sep(
                    plan, ii, plan.boolean(chi.constraint, atom_ref, r2)
                )

        if level < M:
            for c, gamma in enumerate(stage_children[level]):
                for ii in subsets:
                    leaf = sc.leaf(plan, lambda chi: zref[(chi, ii)], r2)
                    plan.set(
                        f"cb{level}.{c}.{ii}",
                        sep(plan, ii, plan.boolean(gamma, leaf, r2)),
                    )
            src = r2
        else:
            sc.check(
                plan, lambda chi: plan.sum_of([zref[(chi, ii)] for ii in subsets]), r2
            )

    if len(sc.plans) != total_layers:
        raise RuntimeError(
            f"nested network has {len(sc.plans)} layers, planned {total_layers}"
        )
    return sc.finish(exponent)
