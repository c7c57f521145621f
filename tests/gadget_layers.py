"""Shipped compiler gadgets built as standalone Fnns for exhaustive tests.

Both helpers build the first layer of a ``NetBuilder`` exactly as the
builders do, so the tests exercise the code that compiled networks
contain.  A first layer's input is the combination layout [label bits,
in-agg, out-agg, global-agg]; ``layer_inputs`` pads the bits with zero
aggregates.
"""

from pmlc.compiler.build import NetBuilder, write_flags
from pmlc.logic import subformulas_ordered


def layer_inputs(state):
    """A state vector followed by zeroed aggregate ports."""
    return list(state) + [0] * (3 * len(state))


def _first_comb(builder, outs):
    """The comb of ``builder``'s one layer, emitting ``outs`` in order."""
    layers, _dims = builder.assemble(outs)
    return layers[0].comb


def boolean_layer(formulas, colours):
    """The builders' first layer over ``colours`` label bits: one 0/1
    truth flag per (distinct) modal-free formula, in the given order."""
    builder = NetBuilder(colours)
    names = {f: f"f{i}" for i, f in enumerate(formulas)}
    flats = dict.fromkeys(s for f in formulas for s in subformulas_ordered(f))
    write_flags(builder.layer(), flats, names)
    return _first_comb(builder, names.values())


def atom_check_layer(atom):
    """``LayerPlan.atom_check`` over the input dims m0.., U, R2.

    Dim ``m<h>`` (label bit ``c<h>``) holds monomial h of ``atom`` times
    the unit ``U``, and the two bits after them hold ``U`` and ``R2``; the
    output is the atom's truth at scale ``R2``.
    """
    h = len(atom.monomials)
    builder = NetBuilder(h + 2)
    plan = builder.layer()
    dims = {m.variables: plan.prev(f"c{i}") for i, m in enumerate(atom.monomials)}
    unit, r2 = plan.prev(f"c{h}"), plan.prev(f"c{h + 1}")
    plan.set("out", plan.atom_check(atom, dims.__getitem__, unit, r2))
    return _first_comb(builder, ["out"])
