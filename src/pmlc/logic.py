"""Counting modal logic with Peano-arithmetic constraints.

Formulas are built from propositions, negation, conjunction, and modal
counting nodes ``<pi_1,...,pi_m>{psi}(phi_1,...,phi_m)``.  A modal node is
evaluated at a node v by counting, for each position j, how many nodes in
the extension of the modality ``pi_j`` (v itself, in-neighbours,
out-neighbours, or all nodes) satisfy the child formula ``phi_j``, and then
checking the counts against the constraint ``psi`` — a Boolean combination
of normalized atoms ``sum_i a_i * prod(x_vars) <= b`` over the count
variables ``x_1..x_m``.

Disjunction and the comparisons ``>=``, ``<``, ``=`` are surface sugar and
are rewritten during parsing; the AST only contains ``!``, ``&`` and
``<=``-atoms.  All AST types are immutable and hashable, so structural
equality is the notion of formula identity used throughout.
"""

from __future__ import annotations

import enum
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Union


class Modality(enum.IntEnum):
    """Modality of one position of a modal node.

    The integer order (id < in < out < top) is the canonical sort order
    used wherever modalities need a deterministic arrangement.
    """

    ID = 0
    E_IN = 1
    E_OUT = 2
    TOP = 3

    @property
    def surface(self) -> str:
        return _MODALITY_SURFACE[self]


_MODALITY_SURFACE = {
    Modality.ID: "id",
    Modality.E_IN: "in",
    Modality.E_OUT: "out",
    Modality.TOP: "top",
}
_SURFACE_MODALITY = {v: k for k, v in _MODALITY_SURFACE.items()}


# ---------------------------------------------------------------------------
# Peano constraint AST


@dataclass(frozen=True)
class Monomial:
    """``coeff * x_{v1} * x_{v2} * ...`` with a sorted variable multiset.

    ``variables`` is non-empty and sorted non-decreasing; purely constant
    contributions live in the atom's bound instead.
    """

    coeff: int
    variables: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeff == 0:
            raise ValueError("zero-coefficient monomial")
        if not self.variables:
            raise ValueError("constant monomial; fold constants into the bound")
        if any(v < 1 for v in self.variables):
            raise ValueError("variable indices are 1-based")
        if tuple(sorted(self.variables)) != self.variables:
            raise ValueError("monomial variables must be sorted")

    @property
    def degree(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class PeanoAtom:
    """Normalized atom ``sum(monomials) <= bound``.

    Monomials are merged (unique variable multisets) and sorted by
    (degree, variables); an empty tuple denotes the constant atom
    ``0 <= bound``.
    """

    monomials: tuple[Monomial, ...]
    bound: int

    def __post_init__(self) -> None:
        keys = [m.variables for m in self.monomials]
        if sorted(keys, key=lambda k: (len(k), k)) != keys:
            raise ValueError("atom monomials must be sorted by (degree, variables)")
        if len(set(keys)) != len(keys):
            raise ValueError("atom monomials must have distinct variable multisets")


@dataclass(frozen=True)
class PeanoNot:
    operand: "PeanoFormula"


@dataclass(frozen=True)
class PeanoAnd:
    left: "PeanoFormula"
    right: "PeanoFormula"


PeanoFormula = Union[PeanoAtom, PeanoNot, PeanoAnd]


# ---------------------------------------------------------------------------
# Modal formula AST


@dataclass(frozen=True)
class Prop:
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("proposition indices are 0-based and non-negative")


@dataclass(frozen=True)
class Not:
    operand: "PmlFormula"


@dataclass(frozen=True)
class And:
    left: "PmlFormula"
    right: "PmlFormula"


@dataclass(frozen=True)
class Modal:
    modalities: tuple[Modality, ...]
    constraint: PeanoFormula
    children: tuple["PmlFormula", ...]

    def __post_init__(self) -> None:
        if not self.modalities:
            raise ValueError("modal node needs at least one position")
        if len(self.modalities) != len(self.children):
            raise ValueError("modality/child count mismatch")
        m = peano_arity(self.constraint)
        if m > len(self.modalities):
            raise ValueError(
                f"constraint uses x{m} but the modal node has only "
                f"{len(self.modalities)} positions"
            )


PmlFormula = Union[Prop, Not, And, Modal]


def peano_arity(psi: PeanoFormula) -> int:
    """Largest variable index used in ``psi`` (0 for constant constraints)."""
    if isinstance(psi, PeanoAtom):
        return max((m.variables[-1] for m in psi.monomials), default=0)
    if isinstance(psi, PeanoNot):
        return peano_arity(psi.operand)
    return max(peano_arity(psi.left), peano_arity(psi.right))


# ---------------------------------------------------------------------------
# Normalization


def normalize_peano(psi: PeanoFormula) -> PeanoFormula:
    """Canonicalize every atom of ``psi`` (merge + sort monomials).

    Idempotent; parsing already yields normalized constraints, so this is
    mostly useful for programmatically constructed formulas.
    """
    if isinstance(psi, PeanoAtom):
        poly: dict[tuple[int, ...], int] = {}
        for m in psi.monomials:
            key = tuple(sorted(m.variables))
            poly[key] = poly.get(key, 0) + m.coeff
        return _atom_from_poly(poly, psi.bound)
    if isinstance(psi, PeanoNot):
        return PeanoNot(normalize_peano(psi.operand))
    return PeanoAnd(normalize_peano(psi.left), normalize_peano(psi.right))


def _atom_from_poly(poly: Mapping[tuple[int, ...], int], bound: int) -> PeanoAtom:
    items = sorted(
        ((k, c) for k, c in poly.items() if c != 0 and k),
        key=lambda kc: (len(kc[0]), kc[0]),
    )
    extra = sum(c for k, c in poly.items() if not k and c != 0)
    return PeanoAtom(tuple(Monomial(c, k) for k, c in items), bound - extra)


def normalize_atom(poly: Mapping[tuple[int, ...], int], op: str, rhs: int) -> PeanoFormula:
    """Rewrite ``poly OP rhs`` into the normalized ``<=`` fragment.

    ``poly`` maps variable multisets (sorted tuples, ``()`` for the constant
    part) to integer coefficients.  Rewrites: ``>= c`` becomes
    ``!(.. <= c-1)``, ``< c`` becomes ``<= c-1``, ``> c`` becomes
    ``!(.. <= c)``, and ``= c`` becomes ``(.. <= c) & !(.. <= c-1)``.
    """
    le = lambda b: _atom_from_poly(poly, b)
    if op == "<=":
        return le(rhs)
    if op == "<":
        return le(rhs - 1)
    if op == ">=":
        return PeanoNot(le(rhs - 1))
    if op == ">":
        return PeanoNot(le(rhs))
    if op == "=":
        return PeanoAnd(le(rhs), PeanoNot(le(rhs - 1)))
    raise ValueError(f"unknown comparison {op!r}")


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Raised for any lexical or syntactic defect, with a position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s+|(?P<prop>p\d+)|(?P<var>x\d+)|(?P<int>\d+)|(?P<word>[A-Za-z_]+)"
    r"|(?P<op><=|>=|[<>=!&|(){},+\-*])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# Deepest nesting of negations, parentheses, modal nodes and unary minus
# that the parser accepts.  The parser and the recursive functions over
# formulas use a few interpreter frames per level, so deeper input would
# overflow the interpreter's stack.
MAX_NESTING = 256


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    # -- token plumbing

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    @contextmanager
    def nested(self, pos: int) -> Iterator[None]:
        """Parse one nesting level deeper, at most MAX_NESTING deep."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    # -- formulas

    def phi(self) -> PmlFormula:
        kind, text, pos = self.peek()
        if kind == "prop":
            self.next()
            return Prop(int(text[1:]))
        if text == "!":
            self.next()
            with self.nested(pos):
                return Not(self.phi())
        if text == "<":
            with self.nested(pos):
                return self.modal()
        if text == "(":
            self.next()
            with self.nested(pos):
                left = self.phi()
                kind, text, pos = self.next()
                if text == ")":
                    return left  # redundant parentheses (accepted superset)
                if text == "&":
                    right = self.phi()
                    self.expect(")")
                    return And(left, right)
                if text == "|":
                    right = self.phi()
                    self.expect(")")
                    return Not(And(Not(left), Not(right)))
            raise ParseError(f"expected '&', '|' or ')', found {text!r}", pos)
        raise ParseError(f"expected a formula, found {text or 'end of input'!r}", pos)

    def modal(self) -> PmlFormula:
        self.expect("<")
        mods = [self.modality()]
        while self.at(","):
            self.next()
            mods.append(self.modality())
        self.expect(">")
        self.expect("{")
        psi = self.psi()
        self.expect("}")
        kind, text, pos = self.peek()
        self.expect("(")
        children = [self.phi()]
        while self.at(","):
            self.next()
            children.append(self.phi())
        self.expect(")")
        if len(mods) != len(children):
            raise ParseError(
                f"modal node has {len(mods)} modalities but {len(children)} children", pos
            )
        arity = peano_arity(psi)
        if arity > len(mods):
            raise ParseError(
                f"constraint uses x{arity} but the modal node has {len(mods)} positions",
                pos,
            )
        return Modal(tuple(mods), psi, tuple(children))

    def modality(self) -> Modality:
        kind, text, pos = self.next()
        if kind == "word" and text in _SURFACE_MODALITY:
            return _SURFACE_MODALITY[text]
        raise ParseError(f"unknown modality {text!r} (expected id, in, out or top)", pos)

    # -- constraints

    def psi(self) -> PeanoFormula:
        kind, text, pos = self.peek()
        if text == "!":
            self.next()
            with self.nested(pos):
                return PeanoNot(self.psi())
        if text == "(":
            # '(' may open a parenthesized constraint or a parenthesized
            # term of an atom; try the atom reading first and backtrack.
            mark = self.i
            try:
                return self.atom()
            except ParseError:
                self.i = mark
            self.next()
            with self.nested(pos):
                left = self.psi()
                kind, text, pos = self.next()
                if text == ")":
                    return left  # redundant parentheses (accepted superset)
                if text == "&":
                    right = self.psi()
                    self.expect(")")
                    return PeanoAnd(left, right)
                if text == "|":
                    right = self.psi()
                    self.expect(")")
                    return PeanoNot(PeanoAnd(PeanoNot(left), PeanoNot(right)))
            raise ParseError(f"expected '&', '|' or ')', found {text!r}", pos)
        return self.atom()

    def atom(self) -> PeanoFormula:
        lhs = self.term()
        kind, text, pos = self.next()
        if text not in ("<=", ">=", "<", ">", "="):
            raise ParseError(f"expected a comparison, found {text or 'end of input'!r}", pos)
        rhs = self.term()
        if any(k and v != 0 for k, v in rhs.items()):
            raise ParseError("comparison right-hand side must be an integer", pos)
        poly = {k: v for k, v in lhs.items()}
        return normalize_atom(poly, text, rhs.get((), 0))

    # Terms are polynomials: dict mapping sorted variable tuples to coeffs.

    def term(self) -> dict[tuple[int, ...], int]:
        acc = self.term_mul()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term_mul()
            for k, v in rhs.items():
                acc[k] = acc.get(k, 0) + (v if op == "+" else -v)
        return acc

    def term_mul(self) -> dict[tuple[int, ...], int]:
        acc = self.term_unary()
        while self.at("*"):
            self.next()
            rhs = self.term_unary()
            out: dict[tuple[int, ...], int] = {}
            for k1, v1 in acc.items():
                for k2, v2 in rhs.items():
                    key = tuple(sorted(k1 + k2))
                    out[key] = out.get(key, 0) + v1 * v2
            acc = out
        return acc

    def term_unary(self) -> dict[tuple[int, ...], int]:
        kind, text, pos = self.peek()
        if text == "-":
            self.next()
            with self.nested(pos):
                return {k: -v for k, v in self.term_unary().items()}
        if kind == "int":
            self.next()
            return {(): int(text)}
        if kind == "var":
            self.next()
            idx = int(text[1:])
            if idx < 1:
                raise ParseError("count variables are 1-based (x1, x2, ...)", pos)
            return {(idx,): 1}
        if text == "(":
            self.next()
            with self.nested(pos):
                inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {text or 'end of input'!r}", pos)


def parse_formula(text: str) -> PmlFormula:
    """Parse surface syntax into a normalized formula AST."""
    p = _Parser(text)
    phi = p.phi()
    kind, text_, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text_!r}", pos)
    return phi


def parse_peano(text: str) -> PeanoFormula:
    """Parse a bare constraint (used by tests and tooling)."""
    p = _Parser(text)
    psi = p.psi()
    kind, text_, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text_!r}", pos)
    return psi


# ---------------------------------------------------------------------------
# Printing (canonical form; parse(print_formula(phi)) == phi)


def print_formula(phi: PmlFormula) -> str:
    if isinstance(phi, Prop):
        return f"p{phi.index}"
    if isinstance(phi, Not):
        return f"!{print_formula(phi.operand)}"
    if isinstance(phi, And):
        return f"({print_formula(phi.left)} & {print_formula(phi.right)})"
    mods = ",".join(m.surface for m in phi.modalities)
    children = ",".join(print_formula(c) for c in phi.children)
    return f"<{mods}>{{{print_peano(phi.constraint)}}}({children})"


def print_peano(psi: PeanoFormula) -> str:
    if isinstance(psi, PeanoAtom):
        return f"{_print_polynomial(psi.monomials)} <= {psi.bound}"
    if isinstance(psi, PeanoNot):
        return f"!{print_peano(psi.operand)}"
    return f"({print_peano(psi.left)} & {print_peano(psi.right)})"


def _print_polynomial(monomials: tuple[Monomial, ...]) -> str:
    if not monomials:
        return "0"
    # Positive monomials first so the strict grammar (no unary minus) suffices.
    positive = [m for m in monomials if m.coeff > 0]
    negative = [m for m in monomials if m.coeff < 0]
    parts = []
    for m in positive:
        parts.append(("+", _print_monomial(m.coeff, m.variables)))
    for m in negative:
        parts.append(("-", _print_monomial(-m.coeff, m.variables)))
    if not positive:
        head = "0"
    else:
        head = parts[0][1]
        parts = parts[1:]
    return head + "".join(f" {sign} {body}" for sign, body in parts)


def _print_monomial(coeff: int, variables: tuple[int, ...]) -> str:
    vars_part = "*".join(f"x{v}" for v in variables)
    if coeff == 1:
        return vars_part
    return f"{coeff}*{vars_part}"


# ---------------------------------------------------------------------------
# Metrics and structure


def modal_depth(phi: PmlFormula) -> int:
    """Maximum nesting depth of modal nodes."""
    if isinstance(phi, Prop):
        return 0
    if isinstance(phi, Not):
        return modal_depth(phi.operand)
    if isinstance(phi, And):
        return max(modal_depth(phi.left), modal_depth(phi.right))
    return 1 + max((modal_depth(c) for c in phi.children), default=0)


def degree(phi: PmlFormula) -> int:
    """Maximum monomial degree over all constraints of ``phi`` (0 if none)."""
    if isinstance(phi, Prop):
        return 0
    if isinstance(phi, Not):
        return degree(phi.operand)
    if isinstance(phi, And):
        return max(degree(phi.left), degree(phi.right))
    return max(
        peano_degree(phi.constraint),
        max((degree(c) for c in phi.children), default=0),
    )


def peano_degree(psi: PeanoFormula) -> int:
    if isinstance(psi, PeanoAtom):
        return max((m.degree for m in psi.monomials), default=0)
    if isinstance(psi, PeanoNot):
        return peano_degree(psi.operand)
    return max(peano_degree(psi.left), peano_degree(psi.right))


def max_prop(phi: PmlFormula) -> int:
    """Largest proposition index occurring in ``phi``."""
    return max(s.index for s in subformulas_ordered(phi) if isinstance(s, Prop))


def _postorder(phi: PmlFormula) -> Iterator[PmlFormula]:
    if isinstance(phi, Not):
        yield from _postorder(phi.operand)
    elif isinstance(phi, And):
        yield from _postorder(phi.left)
        yield from _postorder(phi.right)
    elif isinstance(phi, Modal):
        for c in phi.children:
            yield from _postorder(c)
    yield phi


def subformulas_ordered(phi: PmlFormula) -> tuple[PmlFormula, ...]:
    """Deduplicated subformulas, children-first, modal-free ones up front.

    Guarantees: every subformula of an entry appears earlier; all entries of
    modal depth 0 precede all others; ``phi`` itself is the final entry.
    """
    seen: set[PmlFormula] = set()
    order: list[PmlFormula] = []
    for s in _postorder(phi):
        if s not in seen:
            seen.add(s)
            order.append(s)
    flat = [s for s in order if modal_depth(s) == 0]
    deep = [s for s in order if modal_depth(s) > 0]
    return tuple(flat + deep)


# ---------------------------------------------------------------------------
# Traces


def _modal_subformulas_at(phi: PmlFormula, depth: int) -> list[Modal]:
    out = []
    for s in subformulas_ordered(phi):
        if isinstance(s, Modal) and modal_depth(s) == depth:
            out.append(s)
    return out


def traces(phi: PmlFormula, k: int) -> frozenset[tuple[Modality, ...]]:
    """Length-k edge-modality chains realized by depth-critical nesting.

    A chain ``E_0..E_{k-1}`` qualifies if there are subformulas
    ``chi_0, .., chi_k`` of ``phi`` such that each ``chi_i`` (i < k) is a
    modal node of modal depth ``modal_depth(phi) - i``, ``chi_{i+1}`` is a
    subformula of its j-th child, and ``E_i`` is its j-th modality — with
    every ``E_i`` an edge modality (``in``/``out``).  Chains through ``id``
    or ``top`` positions do not qualify.
    """
    m = modal_depth(phi)
    if not 1 <= k <= m:
        raise ValueError(f"trace length must be in 1..{m}, got {k}")
    out: set[tuple[Modality, ...]] = set()

    def step(cands: list[Modal], left: int, prefix: tuple[Modality, ...]) -> None:
        for chi in cands:
            for pi, child in zip(chi.modalities, chi.children):
                if pi not in (Modality.E_IN, Modality.E_OUT):
                    continue
                if left == 1:
                    out.add(prefix + (pi,))
                else:
                    nxt = _modal_subformulas_at(child, modal_depth(chi) - 1)
                    if nxt:
                        step(nxt, left - 1, prefix + (pi,))

    step(_modal_subformulas_at(phi, m), k, ())
    return frozenset(out)


def trace_index(phi: PmlFormula) -> tuple[tuple[Modality, ...], ...]:
    """The empty trace plus all traces up to length ``modal_depth(phi) - 1``,
    in a deterministic (length, lexicographic) order."""
    m = modal_depth(phi)
    idx: list[tuple[Modality, ...]] = [()]
    for k in range(1, m):
        idx.extend(sorted(traces(phi, k)))
    return tuple(idx)


# ---------------------------------------------------------------------------
# Fragment classification


@dataclass(frozen=True)
class FragmentTags:
    """Syntactic fragment facts used for compilation dispatch."""

    max_modal_depth: int
    only_top: bool
    only_edges: bool
    homogeneous: bool


def _modal_nodes(phi: PmlFormula) -> list[Modal]:
    return [s for s in subformulas_ordered(phi) if isinstance(s, Modal)]


def _homogeneous_constraint(psi: PeanoFormula) -> bool:
    if not isinstance(psi, PeanoAtom):
        return False
    if psi.bound != 0:
        return False
    return len({m.degree for m in psi.monomials}) <= 1


def classify(phi: PmlFormula) -> FragmentTags:
    nodes = _modal_nodes(phi)
    all_mods = [m for node in nodes for m in node.modalities]
    return FragmentTags(
        max_modal_depth=modal_depth(phi),
        only_top=all(m is Modality.TOP for m in all_mods),
        only_edges=all(m in (Modality.E_IN, Modality.E_OUT) for m in all_mods),
        homogeneous=all(_homogeneous_constraint(n.constraint) for n in nodes),
    )


# ---------------------------------------------------------------------------
# Flattening of all-top formulas


TOP_FORMULA: PmlFormula = Not(And(Not(Prop(0)), Not(Not(Prop(0)))))  # p0 | !p0
BOT_FORMULA: PmlFormula = And(Prop(0), Not(Prop(0)))  # p0 & !p0


def _substitute_modal(phi: PmlFormula, true_set: frozenset[PmlFormula]) -> PmlFormula:
    """Replace every maximal modal subformula by top/bottom per ``true_set``."""
    if isinstance(phi, Modal):
        return TOP_FORMULA if phi in true_set else BOT_FORMULA
    if isinstance(phi, Prop):
        return phi
    if isinstance(phi, Not):
        return Not(_substitute_modal(phi.operand, true_set))
    return And(
        _substitute_modal(phi.left, true_set), _substitute_modal(phi.right, true_set)
    )


def _guess(phi: PmlFormula, true_set: frozenset[PmlFormula]) -> PmlFormula:
    """``phi`` with strict modal subformulas replaced per ``true_set``;
    a modal root keeps its own modal operator."""
    if isinstance(phi, Modal):
        return Modal(
            phi.modalities,
            phi.constraint,
            tuple(_substitute_modal(c, true_set) for c in phi.children),
        )
    return _substitute_modal(phi, true_set)


def _fold_and(parts: list[PmlFormula]) -> PmlFormula:
    acc = parts[0]
    for p in parts[1:]:
        acc = And(acc, p)
    return acc


def _fold_or(parts: list[PmlFormula]) -> PmlFormula:
    acc = parts[0]
    for p in parts[1:]:
        acc = Not(And(Not(acc), Not(p)))
    return acc


def flatten_global(phi: PmlFormula) -> PmlFormula:
    """Rewrite an all-top formula into an equivalent one of modal depth <= 1.

    Modal nodes with only ``top`` modalities are focus-independent, so the
    truth of every strict modal subformula is a graph-level fact.  The
    rewrite guesses those facts: for strict modal subformulas S it returns
    the disjunction over T ⊆ S of ``phi^T & AND(tau^T for tau in T) &
    AND(!sigma^T for sigma not in T)`` where ``gamma^T`` replaces maximal
    strict modal subformulas by fixed top/bottom formulas.  Formulas of
    modal depth <= 1 are returned unchanged.
    """
    tags = classify(phi)
    if not tags.only_top:
        raise ValueError("flatten_global requires a formula with only top modalities")
    if tags.max_modal_depth <= 1:
        return phi
    strict = tuple(n for n in _modal_nodes(phi) if n != phi)
    disjuncts: list[PmlFormula] = []
    for mask in range(1 << len(strict)):
        true_set = frozenset(s for i, s in enumerate(strict) if mask >> i & 1)
        parts: list[PmlFormula] = [_guess(phi, true_set)]
        for i, tau in enumerate(strict):
            if mask >> i & 1:
                parts.append(_guess(tau, true_set))
        for i, sigma in enumerate(strict):
            if not mask >> i & 1:
                parts.append(Not(_guess(sigma, true_set)))
        disjuncts.append(_fold_and(parts))
    return _fold_or(disjuncts)


# ---------------------------------------------------------------------------
# Constant folding


def _fold_peano(psi: PeanoFormula) -> PeanoFormula | bool:
    """Evaluate constant atoms; returns a bool when psi is constant."""
    if isinstance(psi, PeanoAtom):
        if not psi.monomials:
            return 0 <= psi.bound
        return psi
    if isinstance(psi, PeanoNot):
        inner = _fold_peano(psi.operand)
        if isinstance(inner, bool):
            return not inner
        return PeanoNot(inner)
    left = _fold_peano(psi.left)
    right = _fold_peano(psi.right)
    if left is False or right is False:
        # A constant-false conjunct forces the whole conjunction, even if
        # the other side still mentions variables.
        return False
    if left is True:
        return right
    if right is True:
        return left
    return PeanoAnd(left, right)


def fold_constants(phi: PmlFormula) -> PmlFormula:
    """Equivalent formula with no constant atoms and no constant constraints.

    Modal nodes whose constraint folds to a constant are replaced by the
    fixed top/bottom formulas (their counts always exist, so a constant
    constraint decides the node outright).  The Boolean skeleton is kept
    as written.
    """
    if isinstance(phi, Prop):
        return phi
    if isinstance(phi, Not):
        return Not(fold_constants(phi.operand))
    if isinstance(phi, And):
        return And(fold_constants(phi.left), fold_constants(phi.right))
    psi = _fold_peano(phi.constraint)
    if psi is True:
        return TOP_FORMULA
    if psi is False:
        return BOT_FORMULA
    return Modal(phi.modalities, psi, tuple(fold_constants(c) for c in phi.children))
