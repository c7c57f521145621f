"""Formula banks shared by the compiler suites.

Each compilation target gets a bank of hand-written formulas (the three
worked examples appear in every bank whose fragment admits them) plus
seeded random fill-ins that conform to the target's fragment.  Members
of a target's judged graph class come from ``pmlc.graphs.class_instance``.
"""

import random
from typing import List

from pmlc.logic import Modality, PmlFormula, classify, parse_formula

from formula_gen import layered_formula, random_formula

EDGE = [Modality.E_IN, Modality.E_OUT]
ALL_MODS = [Modality.ID, Modality.E_IN, Modality.E_OUT, Modality.TOP]

# The three worked examples: a homogeneous cubic over global counts, a
# directional square-vs-cube comparison, and a three-modality conjunction
# mixing a local count, a global count, and a focus test.
CUBIC_GLOBAL = parse_formula(
    "<top,top,top>{x1*x1*x1 - x2*x2*x3 <= 0}(p0, p1, p2)"
)
SQUARE_VS_CUBE_LOCAL = parse_formula(
    "<in,out>{x1*x1 - x2*x2*x2 <= 1}(p0, (p1 & !p2))"
)
THREE_MODALITY_MIXED = parse_formula(
    "<in,top,id>{(x1*x1 + x2*x3 >= 16 & x2*x2*x2 + x1 - x1*x3 <= 64)}"
    "((p0 & p1), p1, !(!p2 & !p3))"
)
WORKED_EXAMPLES = (CUBIC_GLOBAL, SQUARE_VS_CUBE_LOCAL, THREE_MODALITY_MIXED)

_HAND = {
    "global-homogeneous": [
        CUBIC_GLOBAL,
        "<top,top>{x1 - x2 <= 0}(p0, p1)",
        "<top>{2*x1 <= 0}(!p0)",
        "p0",
    ],
    "global-shallow": [
        CUBIC_GLOBAL,
        "<top>{x1 >= 2}(p0)",
        "<top>{x1 <= 0}(p0)",
        "(p0 & !p1)",
    ],
    "global-deep": [
        CUBIC_GLOBAL,
        "<top>{x1 <= 0}(<top>{x1 >= 1}(p0))",
        "<top>{x1 >= 1}((p0 & <top>{x1 >= 2}(p1)))",
        "<top>{x1 >= 2}(p0)",
    ],
    "local": [
        SQUARE_VS_CUBE_LOCAL,
        "<in>{x1 <= 1}(p0)",
        "<out,in>{x1*x2 - x1 <= 3}(p0, !p1)",
        "<in>{0 <= -1}(p0)",
    ],
    "shallow": [
        CUBIC_GLOBAL,
        SQUARE_VS_CUBE_LOCAL,
        THREE_MODALITY_MIXED,
        "<id>{x1 >= 1}(p0)",
        "<id,top>{x1*x2 >= 1}(p0, p1)",
    ],
    "nested": [
        SQUARE_VS_CUBE_LOCAL,
        "<out>{x1 >= 1}(<out>{x1 >= 1}(p0))",
        "<in,in>{x1*x2 <= 1}(<out>{x1 >= 2}(p1), p0)",
        "<out>{0 <= 0}(<in>{0 <= -1}(p0))",
    ],
}


def _random_child(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.5:
        return f"p{rng.randrange(2)}"
    if r < 0.8:
        return f"!p{rng.randrange(2)}"
    return "(p0 & p1)" if rng.random() < 0.5 else "(p0 & !p1)"


def random_homogeneous(rng: random.Random) -> PmlFormula:
    """Single bound-0 atom whose monomials all share one degree."""
    d = rng.randint(1, 3)
    m = rng.randint(1, 3)
    parts: List[str] = []
    for i in range(rng.randint(1, 2)):
        coeff = rng.randint(1, 3) * (1 if i == 0 else rng.choice([1, -1]))
        mono = "*".join(f"x{v}" for v in sorted(rng.randint(1, m) for _ in range(d)))
        if i == 0:
            parts.append(f"{coeff}*{mono}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + f"{abs(coeff)}*{mono}")
    mods = ",".join("top" for _ in range(m))
    kids = ", ".join(_random_child(rng) for _ in range(m))
    phi = parse_formula(f"<{mods}>{{{' '.join(parts)} <= 0}}({kids})")
    tags = classify(phi)
    assert tags.only_top and tags.homogeneous
    return phi


def _random_fill(target_name: str, rng: random.Random) -> PmlFormula:
    if target_name == "global-homogeneous":
        return random_homogeneous(rng)
    if target_name == "global-shallow":
        return random_formula(rng, 1, [Modality.TOP])
    if target_name == "global-deep":
        return random_formula(rng, rng.choice([1, 2]), [Modality.TOP])
    if target_name.startswith("local"):
        return random_formula(rng, 1, EDGE)
    if target_name.startswith("shallow"):
        return random_formula(rng, 1, ALL_MODS)
    if rng.random() < 0.15:
        return random_formula(rng, 0, EDGE)
    return layered_formula(rng, rng.choice([1, 2]), EDGE)


def bank_key(target_name: str) -> str:
    for prefix in ("local", "shallow", "nested"):
        if target_name.startswith(prefix):
            return prefix
    return target_name


def bank(target_name: str, random_count: int = 20) -> List[PmlFormula]:
    """Hand formulas conforming to the target plus seeded random fills."""
    rng = random.Random(f"bank-{target_name}")
    out: List[PmlFormula] = []
    for item in _HAND[bank_key(target_name)]:
        out.append(parse_formula(item) if isinstance(item, str) else item)
    for _ in range(random_count):
        out.append(_random_fill(target_name, rng))
    return out

