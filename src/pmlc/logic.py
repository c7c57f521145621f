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
``<=``-atoms.

AST nodes are immutable and interned (hash-consed) at construction, after
Filliâtre and Conchon's "Type-Safe Modular Hash-Consing": building a node
structurally equal to a live one returns that very object, so identity is
equality, ``==`` is ``is`` and ``hash`` is a stored number.  Every node also
stores the facts the compilers keep asking for: ``modal_depth``, ``degree``
and ``max_prop`` on formulas, ``arity`` and ``degree`` on constraints.  The
interning table holds its nodes weakly, so it keeps no formula alive.
Hashing, comparing, listing subformulas and printing never recurse.
"""

from __future__ import annotations

import enum
import itertools
import re
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
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
# Interned AST nodes


_INTERNED: "weakref.WeakValueDictionary[tuple, _Node]" = weakref.WeakValueDictionary()
_TAGS = itertools.count(1)


class _Node:
    """An immutable, interned AST node.

    ``__slots__`` of a subclass lists its fields (``_fields``), then its
    stored facts.  The interning key is the class tag plus the fields;
    children hash in O(1), and the key's hash, the same in every run, is
    the node's hash.
    """

    __slots__ = ("_hash", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._tag = next(_TAGS)

    @classmethod
    def _intern(cls, fields: tuple, facts: tuple):
        key = (cls._tag, *fields)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields + facts):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_hash", hash(key))
            _INTERNED[key] = node
        return node

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, *_: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


# ---------------------------------------------------------------------------
# Peano constraint AST; each node stores ``arity`` (largest variable index,
# 0 for constant constraints) and ``degree`` (largest monomial degree).


class Monomial(_Node):
    """``coeff * x_{v1} * x_{v2} * ...`` with a sorted variable multiset.

    ``variables`` is non-empty and sorted non-decreasing; purely constant
    contributions live in the atom's bound instead.
    """

    _fields = ("coeff", "variables")
    __slots__ = _fields + ("degree",)

    def __new__(cls, coeff: int, variables: tuple[int, ...]) -> Monomial:
        if coeff == 0:
            raise ValueError("zero-coefficient monomial")
        if not variables:
            raise ValueError("constant monomial; fold constants into the bound")
        if any(v < 1 for v in variables):
            raise ValueError("variable indices are 1-based")
        if tuple(sorted(variables)) != variables:
            raise ValueError("monomial variables must be sorted")
        return cls._intern((coeff, variables), (len(variables),))


class PeanoAtom(_Node):
    """Normalized atom ``sum(monomials) <= bound``.

    Monomials are merged (unique variable multisets) and sorted by
    (degree, variables); an empty tuple denotes the constant atom
    ``0 <= bound``.
    """

    _fields = ("monomials", "bound")
    __slots__ = _fields + ("arity", "degree")

    def __new__(cls, monomials: tuple[Monomial, ...], bound: int) -> PeanoAtom:
        keys = [m.variables for m in monomials]
        if sorted(keys, key=lambda k: (len(k), k)) != keys:
            raise ValueError("atom monomials must be sorted by (degree, variables)")
        if len(set(keys)) != len(keys):
            raise ValueError("atom monomials must have distinct variable multisets")
        arity = max((k[-1] for k in keys), default=0)
        return cls._intern((monomials, bound), (arity, max(map(len, keys), default=0)))


class PeanoNot(_Node):
    _fields = ("operand",)
    __slots__ = _fields + ("arity", "degree")

    def __new__(cls, operand: PeanoFormula) -> PeanoNot:
        return cls._intern((operand,), (operand.arity, operand.degree))


class PeanoAnd(_Node):
    _fields = ("left", "right")
    __slots__ = _fields + ("arity", "degree")

    def __new__(cls, left: PeanoFormula, right: PeanoFormula) -> PeanoAnd:
        facts = max(left.arity, right.arity), max(left.degree, right.degree)
        return cls._intern((left, right), facts)


PeanoFormula = Union[PeanoAtom, PeanoNot, PeanoAnd]


# ---------------------------------------------------------------------------
# Modal formula AST; each node stores ``modal_depth``, ``degree`` (largest
# monomial degree of its constraints, 0 if none) and ``max_prop`` (largest
# proposition index).

_FACTS = ("modal_depth", "degree", "max_prop")


class Prop(_Node):
    _fields = ("index",)
    __slots__ = _fields + _FACTS

    def __new__(cls, index: int) -> Prop:
        if index < 0:
            raise ValueError("proposition indices are 0-based and non-negative")
        return cls._intern((index,), (0, 0, index))


class Not(_Node):
    _fields = ("operand",)
    __slots__ = _fields + _FACTS

    def __new__(cls, operand: PmlFormula) -> Not:
        facts = operand.modal_depth, operand.degree, operand.max_prop
        return cls._intern((operand,), facts)


class And(_Node):
    _fields = ("left", "right")
    __slots__ = _fields + _FACTS

    def __new__(cls, left: PmlFormula, right: PmlFormula) -> And:
        facts = (
            max(left.modal_depth, right.modal_depth),
            max(left.degree, right.degree),
            max(left.max_prop, right.max_prop),
        )
        return cls._intern((left, right), facts)


class Modal(_Node):
    _fields = ("modalities", "constraint", "children")
    __slots__ = _fields + _FACTS

    def __new__(
        cls,
        modalities: tuple[Modality, ...],
        constraint: PeanoFormula,
        children: tuple[PmlFormula, ...],
    ) -> Modal:
        # Coerced, so a raw int and its Modality cannot intern two ways.
        modalities, children = tuple(map(Modality, modalities)), tuple(children)
        if not modalities:
            raise ValueError("modal node needs at least one position")
        if len(modalities) != len(children):
            raise ValueError("modality/child count mismatch")
        if constraint.arity > len(modalities):
            raise ValueError(
                f"constraint uses x{constraint.arity} but the modal node has only "
                f"{len(modalities)} positions"
            )
        facts = (
            1 + max(c.modal_depth for c in children),
            max(constraint.degree, *(c.degree for c in children)),
            max(c.max_prop for c in children),
        )
        return cls._intern((modalities, constraint, children), facts)


PmlFormula = Union[Prop, Not, And, Modal]


def peano_arity(psi: PeanoFormula) -> int:
    """Largest variable index used in ``psi`` (0 for constant constraints)."""
    return psi.arity


def peano_degree(psi: PeanoFormula) -> int:
    """Maximum monomial degree of ``psi`` (0 for constant constraints)."""
    return psi.degree


# ---------------------------------------------------------------------------
# Normalization


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
# that the parser accepts.  The parser, the oracle and the compilers'
# formula walks recurse a few interpreter frames per level, so deeper
# input would overflow the interpreter's stack.  The formula core itself
# (interning, hashing, subformula listing, printing) does not recurse.
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
    text: dict[PmlFormula, str] = {}
    for s in _postorder(phi):
        if isinstance(s, Prop):
            text[s] = f"p{s.index}"
        elif isinstance(s, Not):
            text[s] = f"!{text[s.operand]}"
        elif isinstance(s, And):
            text[s] = f"({text[s.left]} & {text[s.right]})"
        else:
            mods = ",".join(m.surface for m in s.modalities)
            children = ",".join(text[c] for c in s.children)
            text[s] = f"<{mods}>{{{print_peano(s.constraint)}}}({children})"
    return text[phi]


def print_peano(psi: PeanoFormula) -> str:
    if isinstance(psi, PeanoAtom):
        return f"{_print_polynomial(psi.monomials)} <= {psi.bound}"
    if isinstance(psi, PeanoNot):
        return f"!{print_peano(psi.operand)}"
    return f"({print_peano(psi.left)} & {print_peano(psi.right)})"


def _print_polynomial(monomials: tuple[Monomial, ...]) -> str:
    # Positive monomials first so the strict grammar (no unary minus) suffices.
    ordered = sorted(monomials, key=lambda m: m.coeff < 0)
    text = "" if ordered and ordered[0].coeff > 0 else "0"
    for m in ordered:
        body = _print_monomial(abs(m.coeff), m.variables)
        text = f"{text} {'+' if m.coeff > 0 else '-'} {body}" if text else body
    return text


def _print_monomial(coeff: int, variables: tuple[int, ...]) -> str:
    vars_part = "*".join(f"x{v}" for v in variables)
    if coeff == 1:
        return vars_part
    return f"{coeff}*{vars_part}"


# ---------------------------------------------------------------------------
# Metrics and structure


def modal_depth(phi: PmlFormula) -> int:
    """Maximum nesting depth of modal nodes."""
    return phi.modal_depth


def degree(phi: PmlFormula) -> int:
    """Maximum monomial degree over all constraints of ``phi`` (0 if none)."""
    return phi.degree


def max_prop(phi: PmlFormula) -> int:
    """Largest proposition index occurring in ``phi``."""
    return phi.max_prop


def _operands(phi: PmlFormula) -> tuple[PmlFormula, ...]:
    if isinstance(phi, Not):
        return (phi.operand,)
    if isinstance(phi, And):
        return (phi.left, phi.right)
    if isinstance(phi, Modal):
        return phi.children
    return ()


def _postorder(phi: PmlFormula) -> list[PmlFormula]:
    """Distinct subformulas in the order a left-to-right depth-first walk
    finishes them (every operand before its parent), without recursion."""
    order: list[PmlFormula] = []
    done: set[PmlFormula] = set()
    stack: list[tuple[PmlFormula, bool]] = [(phi, False)]
    while stack:
        s, finished = stack.pop()
        if s in done:
            continue
        if finished:
            done.add(s)
            order.append(s)
        else:
            stack.append((s, True))
            stack.extend((c, False) for c in reversed(_operands(s)) if c not in done)
    return order


def subformulas_ordered(phi: PmlFormula) -> tuple[PmlFormula, ...]:
    """Deduplicated subformulas, children-first, modal-free ones up front.

    Guarantees: every subformula of an entry appears earlier; all entries of
    modal depth 0 precede all others; ``phi`` itself is the final entry.
    """
    order = _postorder(phi)
    flat = [s for s in order if s.modal_depth == 0]
    return tuple(flat + [s for s in order if s.modal_depth > 0])


# ---------------------------------------------------------------------------
# Traces


def _modal_at(phi: PmlFormula, depth: int) -> list[Modal]:
    return [s for s in _postorder(phi) if isinstance(s, Modal) and s.modal_depth == depth]


def traces(phi: PmlFormula) -> Iterator[tuple[Modality, ...]]:
    """Every trace of ``phi``, lazily, in (length, lexicographic) order.

    A chain ``E_0..E_{k-1}`` (``1 <= k <= modal_depth(phi)``) is a trace if
    there are subformulas ``chi_0, .., chi_k`` of ``phi`` such that each
    ``chi_i`` (i < k) is a modal node of modal depth ``modal_depth(phi) - i``,
    ``chi_{i+1}`` is a subformula of its j-th child, and ``E_i`` is its j-th
    modality — with every ``E_i`` an edge modality (``in``/``out``).  Chains
    through ``id`` or ``top`` positions do not qualify.

    One length at a time, each trace keeps the modal nodes that may extend
    it, so a caller that stops early never pays for longer traces.
    """
    depth = phi.modal_depth
    level: dict[tuple[Modality, ...], list[Modal]] = {(): _modal_at(phi, depth)}
    while depth > 0:
        depth -= 1
        longer: dict[tuple[Modality, ...], list[Modal]] = {}
        for t, chis in level.items():
            for e in (Modality.E_IN, Modality.E_OUT):
                kids = dict.fromkeys(
                    c for chi in chis for pi, c in zip(chi.modalities, chi.children) if pi is e
                )
                if kids:
                    yield t + (e,)
                    longer[t + (e,)] = list(
                        dict.fromkeys(chi for c in kids for chi in _modal_at(c, depth))
                    )
        level = longer


def trace_index(phi: PmlFormula) -> Iterator[tuple[Modality, ...]]:
    """The nested compilation's trace classes, lazily: the empty trace, then
    every trace shorter than ``modal_depth(phi)``, in (length,
    lexicographic) order."""
    yield ()
    yield from itertools.takewhile(lambda t: len(t) < phi.modal_depth, traces(phi))


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

# Most strict modal subformulas flatten_global guesses truth values for: it
# builds one disjunct per subset of them, 2^6 = 64 at this bound.
MAX_FLATTEN_MODALS = 6


class FlattenLimitExceeded(ValueError):
    """flatten_global would guess more than MAX_FLATTEN_MODALS strict modal
    subformulas."""


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


def _or(a: PmlFormula, b: PmlFormula) -> PmlFormula:
    return Not(And(Not(a), Not(b)))


def flatten_global(phi: PmlFormula) -> PmlFormula:
    """Rewrite an all-top formula into an equivalent one of modal depth <= 1.

    Modal nodes with only ``top`` modalities are focus-independent, so the
    truth of every strict modal subformula is a graph-level fact.  The
    rewrite guesses those facts: for strict modal subformulas S it returns
    the disjunction over T ⊆ S of ``phi^T & AND(tau^T for tau in T) &
    AND(!sigma^T for sigma not in T)`` where ``gamma^T`` replaces maximal
    strict modal subformulas by fixed top/bottom formulas.  Formulas of
    modal depth <= 1 are returned unchanged; more than
    ``MAX_FLATTEN_MODALS`` strict modal subformulas raise
    FlattenLimitExceeded before any disjunct is built.
    """
    tags = classify(phi)
    if not tags.only_top:
        raise ValueError("flatten_global requires a formula with only top modalities")
    if tags.max_modal_depth <= 1:
        return phi
    strict = tuple(n for n in _modal_nodes(phi) if n is not phi)
    if len(strict) > MAX_FLATTEN_MODALS:
        raise FlattenLimitExceeded(
            f"flattening guesses {len(strict)} nested modal subformulas "
            f"(2^{len(strict)} disjuncts), limit is {MAX_FLATTEN_MODALS}"
        )
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
        disjuncts.append(reduce(And, parts))
    return reduce(_or, disjuncts)
