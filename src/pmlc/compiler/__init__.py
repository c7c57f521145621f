"""Formula-to-network compilation facade.

Each compilation target pairs a formula fragment with the graph class it
is guaranteed on and the aggregators the network may use.  One table,
``TARGET_KINDS``, holds per target kind the builder, extra-aggregator
rule, layer budget, fragment and graph class.  ``compile``, the one entry
point, classifies the formula once and raises FragmentMismatch outside the
row's fragment.  It compiles modal-free formulas to one Boolean layer
itself (class ``any`` for global-homogeneous, ``marked`` otherwise) and
hands the rest to the row's builder.  It then checks the layer budget (a
raise, so the check also runs under ``python -O``) and wraps the result in
a report (layer count, certainty exponent, class tag, fragment tags,
dimension map) suitable for printing next to the network.

Targets, as ``TARGET_KINDS`` defines them:

========================  =======================  ========================
name                      formula fragment          judged graph class
========================  =======================  ========================
global-homogeneous        top-only, homogeneous,    all pointed graphs
                          depth <= 1 (inverted)
global-shallow            top-only, depth <= 1      marked focus
global-deep               top-only, any depth       marked focus
local-mean-regular        edge-only, depth <= 1     regular, strongly marked
local-mixed-sum/-max      edge-only, depth <= 1     strongly marked
shallow-mixed-regular     any modality, depth <= 1  regular, strongly marked
shallow-mixed-sum/-max    any modality, depth <= 1  strongly marked
nested-mean-regular       edge-only, depth-critical regular tree-like
nested-mixed-sum/-max     edge-only, depth-critical tree-like
========================  =======================  ========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..logic import (
    FRAGMENT_FLAGS,
    FragmentTags,
    PmlFormula,
    classify,
    degree,
    flatten_global,
    modal_depth,
    subformulas_ordered,
    trace_index,
)
from ..mpnn import Aggregator, Mpnn
from .build import FragmentMismatch, TraceLimitExceeded, degenerate_boolean
from .nested import build_nested
from .shallow import (
    build_global,
    build_global_homogeneous,
    build_local_mean,
    build_local_mixed,
    build_shallow_mixed,
)

__all__ = [
    "ALL_TARGETS",
    "Aggregator",
    "CompilationReport",
    "CompilationTarget",
    "DEFAULT_TRACE_CAP",
    "FragmentMismatch",
    "TARGET_KINDS",
    "TargetKind",
    "TraceLimitExceeded",
    "compile",
    "format_report",
    "parse_target",
]

# Trace dimensions a nested compilation may use unless the caller says.
DEFAULT_TRACE_CAP = 8
_EXTRA_NAME = {Aggregator.SUM: "sum", Aggregator.MAX: "max"}
# What a fragment mismatch message says about each missing flag.
_NEEDS_TEXT = dict(
    FRAGMENT_FLAGS, homogeneous="homogeneous (single atom, bound 0, uniform degree)"
)


@dataclass(frozen=True)
class TargetKind:
    """One row of the target table.

    ``build(phi, extra, klass, trace_cap, flat)`` compiles a formula that
    has a modal node and lies in the row's fragment; ``flat`` is
    ``flatten_global(phi)`` on ``flattens`` rows (``compile`` flattens
    once, for the network and the report note) and None elsewhere.
    ``mixed`` kinds take an extra aggregator (sum or max), the others are
    mean-only.  The layer
    budget is ``(budget_kind, a, b)``: ``a*deg + b`` layers, or for the
    nested kinds ``a*md*max(deg, 1) + b`` (the floor covers
    constraint-free formulas, whose pipelines still need their setup and
    check layers); ``exact`` kinds must meet it, ``ceiling`` kinds stay
    within it.  The fragment is ``needs``, the ``FragmentTags`` flags the
    formula must carry (``only_top`` or ``only_edges`` names the modality
    family), and ``shallow``, whether modal depth is capped at 1.
    ``required_class`` is the graph class the network is sound on.
    """

    build: Callable[
        [PmlFormula, Optional[Aggregator], str, int, Optional[PmlFormula]], Mpnn
    ]
    mixed: bool
    budget: Tuple[str, int, int]
    needs: Tuple[str, ...]
    shallow: bool
    required_class: str
    flattens: bool = False


TARGET_KINDS: Dict[str, TargetKind] = {
    "global-homogeneous": TargetKind(
        lambda phi, extra, klass, cap, flat: build_global_homogeneous(phi, klass),
        False, ("exact", 1, 1), ("only_top", "homogeneous"), True, "any",
    ),
    "global-shallow": TargetKind(
        lambda phi, extra, klass, cap, flat: build_global(phi, klass),
        False, ("ceiling", 2, 2), ("only_top",), True, "marked",
    ),
    "global-deep": TargetKind(
        lambda phi, extra, klass, cap, flat: build_global(phi, klass, flat),
        False, ("ceiling", 2, 2), ("only_top",), False, "marked", flattens=True,
    ),
    "local-mean-regular": TargetKind(
        lambda phi, extra, klass, cap, flat: build_local_mean(phi, klass),
        False, ("ceiling", 2, 2), ("only_edges",), True, "regular-strong",
    ),
    "local-mixed": TargetKind(
        lambda phi, extra, klass, cap, flat: build_local_mixed(phi, extra, klass),
        True, ("ceiling", 4, 2), ("only_edges",), True, "strong",
    ),
    "shallow-mixed-regular": TargetKind(
        lambda phi, extra, klass, cap, flat: build_shallow_mixed(phi, extra, klass),
        False, ("ceiling", 8, 2), (), True, "regular-strong",
    ),
    "shallow-mixed": TargetKind(
        lambda phi, extra, klass, cap, flat: build_shallow_mixed(phi, extra, klass),
        True, ("ceiling", 8, 2), (), True, "strong",
    ),
    "nested-mean-regular": TargetKind(
        lambda phi, extra, klass, cap, flat: build_nested(phi, extra, klass, cap),
        False, ("ceiling", 5, 2), ("only_edges",), False, "regular-tree-like",
    ),
    "nested-mixed": TargetKind(
        lambda phi, extra, klass, cap, flat: build_nested(phi, extra, klass, cap),
        True, ("ceiling", 5, 2), ("only_edges",), False, "tree-like",
    ),
}


@dataclass(frozen=True)
class CompilationTarget:
    """One compilation mode: fragment, graph class, and aggregator budget."""

    kind: str
    extra: Optional[Aggregator] = None

    def __post_init__(self) -> None:
        row = TARGET_KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if not row.mixed and self.extra is not None:
            raise ValueError(f"target {self.kind!r} is mean-only")
        if row.mixed and self.extra not in _EXTRA_NAME:
            raise ValueError(
                f"target {self.kind!r} needs an extra aggregator, sum or max"
            )

    @property
    def name(self) -> str:
        """Canonical hyphenated name, e.g. ``local-mixed-sum``."""
        if self.extra is None:
            return self.kind
        return f"{self.kind}-{_EXTRA_NAME[self.extra]}"


ALL_TARGETS: Tuple[CompilationTarget, ...] = tuple(
    CompilationTarget(kind, extra)
    for kind, row in TARGET_KINDS.items()
    for extra in ((Aggregator.SUM, Aggregator.MAX) if row.mixed else (None,))
)


def parse_target(name: str) -> CompilationTarget:
    """Resolve a canonical target name; raise ValueError with the list."""
    for target in ALL_TARGETS:
        if target.name == name:
            return target
    known = ", ".join(t.name for t in ALL_TARGETS)
    raise ValueError(f"unknown target {name!r}; known targets: {known}")


@dataclass(frozen=True)
class CompilationReport:
    """Everything about a compiled network except its weights."""

    target: str
    layer_count: int
    exponent: int
    inverted: bool
    required_class: str
    modal_depth: int
    degree: int
    fragment: FragmentTags
    budget_kind: str
    budget_bound: int
    dimension_names: Tuple[Tuple[str, ...], ...]
    notes: Tuple[str, ...] = ()


def compile(
    phi: PmlFormula,
    target: Union[CompilationTarget, str],
    trace_cap: int = DEFAULT_TRACE_CAP,
) -> Tuple[Mpnn, CompilationReport]:
    """Translate ``phi`` for ``target``; check the layer budget; report.

    Raises FragmentMismatch when the formula lies outside the target's
    fragment, TraceLimitExceeded when a nested compilation would need
    more than ``trace_cap`` trace dimensions, FlattenLimitExceeded when a
    global-deep formula has too many nested modal subformulas, and a plain
    ValueError for a negative ``trace_cap``.
    """
    if trace_cap < 0:
        raise ValueError(f"the trace cap must be nonnegative, got {trace_cap}")
    if isinstance(target, str):
        target = parse_target(target)
    kind = target.kind
    row = TARGET_KINDS[kind]
    tags = classify(phi)
    missing = [flag for flag in row.needs if not getattr(tags, flag)]
    if missing:
        needs = " and ".join(_NEEDS_TEXT[flag] for flag in missing)
        raise FragmentMismatch(f"{target.name} compilation needs {needs} formulas")
    if row.shallow and tags.max_modal_depth > 1:
        hint = " (use global-deep for nested top formulas)" if "only_top" in row.needs else ""
        raise FragmentMismatch(f"{target.name} compilation needs modal depth <= 1{hint}")
    flat = flatten_global(phi) if row.flattens else None
    if tags.max_modal_depth == 0:
        net = degenerate_boolean(phi, marked=row.required_class != "any")
    else:
        net = row.build(phi, target.extra, row.required_class, trace_cap, flat)

    budget_kind, a, b = row.budget
    md, deg = modal_depth(phi), degree(phi)
    bound = a * md * max(deg, 1) + b if kind.startswith("nested") else a * deg + b
    layers = len(net.layers)
    if layers > bound or (budget_kind == "exact" and layers != bound):
        raise RuntimeError(f"{target.name}: {layers} layers, {budget_kind} budget {bound}")

    notes: List[str] = []
    if flat is not None:
        notes.append(
            f"flattened to modal depth {modal_depth(flat)} "
            f"with {len(subformulas_ordered(flat))} subformulas"
        )
    if kind.startswith("nested"):
        notes.append(f"trace index size {sum(1 for _ in trace_index(phi))}")

    report = CompilationReport(
        target=target.name,
        layer_count=layers,
        exponent=net.certainty.exponent,
        inverted=net.inverted,
        required_class=net.required_class,
        modal_depth=md,
        degree=deg,
        fragment=tags,
        budget_kind=budget_kind,
        budget_bound=bound,
        dimension_names=net.dimension_names,
        notes=tuple(notes),
    )
    return net, report


def format_report(report: CompilationReport) -> str:
    """Line-oriented text rendering of a report, dimension map included."""
    lines = [
        f"target {report.target}",
        f"layers {report.layer_count}",
        f"certainty-exponent {report.exponent}",
        f"inverted {1 if report.inverted else 0}",
        f"class {report.required_class}",
        f"modal-depth {report.modal_depth}",
        f"degree {report.degree}",
        report.fragment.line(),
        f"budget {report.budget_kind} {report.budget_bound}",
    ]
    for note in report.notes:
        lines.append(f"note {note}")
    lines.append("dimensions")
    for i, names in enumerate(report.dimension_names, start=1):
        lines.append(f"  {i}: {' '.join(names)}")
    return "\n".join(lines) + "\n"
