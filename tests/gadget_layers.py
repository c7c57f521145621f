"""Shipped compiler gadgets built as standalone Fnns for exhaustive tests.

Both helpers build a single ``LayerPlan`` exactly as the builders do, so
the tests exercise the code that compiled networks contain.  A layer's
input is the combination layout [state, in-agg, out-agg, global-agg];
``layer_inputs`` pads the state with zero aggregates.
"""

from pmlc.compiler.build import LayerPlan, NetBuilder, write_flags


def layer_inputs(state):
    """A state vector followed by zeroed aggregate ports."""
    return list(state) + [0] * (3 * len(state))


def boolean_layer(formulas, colours):
    """The builders' first layer over ``colours`` label bits: one 0/1
    truth flag per (distinct) modal-free formula, in the given order."""
    plan = NetBuilder(colours).layer()
    write_flags(plan, formulas, {f: f"f{i}" for i, f in enumerate(formulas)})
    return plan.build()


def atom_check_layer(atom):
    """``LayerPlan.atom_check`` over state dims m0.., U, R2.

    Dim ``m<h>`` holds monomial h of ``atom`` times the unit ``U``; the
    output is the atom's truth at scale ``R2``.
    """
    names = [f"m{h}" for h in range(len(atom.monomials))] + ["U", "R2"]
    plan = LayerPlan(NetBuilder(1), names)
    dims = {m.variables: plan.prev(f"m{h}") for h, m in enumerate(atom.monomials)}
    plan.set(
        "out",
        plan.atom_check(atom, dims.__getitem__, plan.prev("U"), plan.prev("R2")),
    )
    return plan.build()
