"""Formula-to-network compilation facade.

Each compilation target pairs a formula fragment with the graph class it
is guaranteed on and the aggregators the network may use.  One table,
``TARGET_KINDS``, holds each target kind's builder, extra-aggregator rule
and layer budget.  ``compile`` runs the kind's builder, checks the layer
budget (a raise, so the check also runs under ``python -O``), and wraps
the result in a report (layer count, certainty exponent, class tag,
fragment tags, dimension map) suitable for printing next to the network.

Targets:

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
from .build import FragmentMismatch, TraceLimitExceeded
from .nested import build_nested
from .shallow import (
    build_global_deep,
    build_global_homogeneous,
    build_global_shallow,
    build_local_mean,
    build_local_mixed,
    build_shallow_mixed,
)

__all__ = [
    "ALL_TARGETS",
    "Aggregator",
    "CompilationReport",
    "CompilationTarget",
    "FragmentMismatch",
    "TARGET_KINDS",
    "TargetKind",
    "TraceLimitExceeded",
    "build_global_deep",
    "build_global_homogeneous",
    "build_global_shallow",
    "build_local_mean",
    "build_local_mixed",
    "build_nested",
    "build_shallow_mixed",
    "compile",
    "format_report",
    "parse_target",
]

_EXTRA_NAME = {Aggregator.SUM: "sum", Aggregator.MAX: "max"}


@dataclass(frozen=True)
class TargetKind:
    """One row of the target table.

    ``build(phi, extra, trace_cap)`` compiles; ``mixed`` kinds take an
    extra aggregator (sum or max), the others are mean-only.  The layer
    budget is ``(budget_kind, a, b)``: ``a*deg + b`` layers, or for the
    nested kinds ``a*md*max(deg, 1) + b`` (the floor covers
    constraint-free formulas, whose pipelines still need their setup and
    check layers); ``exact`` kinds must meet it, ``ceiling`` kinds stay
    within it.
    """

    build: Callable[[PmlFormula, Optional[Aggregator], int], Mpnn]
    mixed: bool
    budget: Tuple[str, int, int]


TARGET_KINDS: Dict[str, TargetKind] = {
    "global-homogeneous": TargetKind(
        lambda phi, extra, cap: build_global_homogeneous(phi), False, ("exact", 1, 1)
    ),
    "global-shallow": TargetKind(
        lambda phi, extra, cap: build_global_shallow(phi), False, ("ceiling", 2, 2)
    ),
    "global-deep": TargetKind(
        lambda phi, extra, cap: build_global_deep(phi), False, ("ceiling", 2, 2)
    ),
    "local-mean-regular": TargetKind(
        lambda phi, extra, cap: build_local_mean(phi), False, ("ceiling", 2, 2)
    ),
    "local-mixed": TargetKind(
        lambda phi, extra, cap: build_local_mixed(phi, extra), True, ("ceiling", 4, 2)
    ),
    "shallow-mixed-regular": TargetKind(
        lambda phi, extra, cap: build_shallow_mixed(phi, extra), False, ("ceiling", 8, 2)
    ),
    "shallow-mixed": TargetKind(
        lambda phi, extra, cap: build_shallow_mixed(phi, extra), True, ("ceiling", 8, 2)
    ),
    "nested-mean-regular": TargetKind(build_nested, False, ("ceiling", 5, 2)),
    "nested-mixed": TargetKind(build_nested, True, ("ceiling", 5, 2)),
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
    trace_cap: int = 8,
) -> Tuple[Mpnn, CompilationReport]:
    """Translate ``phi`` for ``target``; check the layer budget; report.

    Raises FragmentMismatch when the formula lies outside the target's
    fragment, TraceLimitExceeded when a nested compilation would need
    more than ``trace_cap`` trace dimensions, and FlattenLimitExceeded
    when a global-deep formula has too many nested modal subformulas.
    """
    if isinstance(target, str):
        target = parse_target(target)
    kind = target.kind
    budget_kind, a, b = TARGET_KINDS[kind].budget
    net = TARGET_KINDS[kind].build(phi, target.extra, trace_cap)

    md, deg = modal_depth(phi), degree(phi)
    bound = a * md * max(deg, 1) + b if kind.startswith("nested") else a * deg + b
    layers = len(net.layers)
    if layers > bound or (budget_kind == "exact" and layers != bound):
        raise RuntimeError(f"{target.name}: {layers} layers, {budget_kind} budget {bound}")

    notes: List[str] = []
    if kind == "global-deep":
        flat = flatten_global(phi)
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
        fragment=classify(phi),
        budget_kind=budget_kind,
        budget_bound=bound,
        dimension_names=net.dimension_names,
        notes=tuple(notes),
    )
    return net, report


def format_report(report: CompilationReport) -> str:
    """Line-oriented text rendering of a report, dimension map included."""
    tags = report.fragment
    lines = [
        f"target {report.target}",
        f"layers {report.layer_count}",
        f"certainty-exponent {report.exponent}",
        f"inverted {1 if report.inverted else 0}",
        f"class {report.required_class}",
        f"modal-depth {report.modal_depth}",
        f"degree {report.degree}",
        "fragment"
        f" top-only={1 if tags.only_top else 0}"
        f" edges-only={1 if tags.only_edges else 0}"
        f" homogeneous={1 if tags.homogeneous else 0}",
        f"budget {report.budget_kind} {report.budget_bound}",
    ]
    for note in report.notes:
        lines.append(f"note {note}")
    lines.append("dimensions")
    for i, names in enumerate(report.dimension_names, start=1):
        lines.append(f"  {i}: {' '.join(names)}")
    return "\n".join(lines) + "\n"
