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
Parsing, hashing, comparing, listing subformulas, printing and flattening
never recurse: the parser's grammar rules run as generators on an explicit
stack, and the rest share one iterative walk, ``postorder``.  Neither
bounds nesting depth, and the parser never backtracks.
"""

from __future__ import annotations

import enum
import itertools
import re
import weakref
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
        # Formulas and constraints render through their iterative printers,
        # so a deep node does not recurse.
        if isinstance(self, (Prop, Not, And, Modal)):
            return f"{type(self).__name__}({print_formula(self)!r})"
        if isinstance(self, (PeanoAtom, PeanoNot, PeanoAnd)):
            return f"{type(self).__name__}({print_peano(self)!r})"
        return f"Monomial(coeff={self.coeff!r}, variables={self.variables!r})"


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
            raise ValueError(
                f"modal node has {len(modalities)} modalities but {len(children)} children"
            )
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


# Most monomial products one ``*`` in a constraint term may form before
# merging.  Each atom normalizes to one polynomial, so a product of sums
# expands in full: without the cap, k factors of an 8-variable sum form
# C(k+7, 7) monomials.  Bank atoms have at most 3 monomials.
MAX_PRODUCT_TERMS = 4096


def _times(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]):
    """The product of two monomials given as exponent vectors."""
    if not a or not b:
        return a or b
    exps = dict(a)
    for x, e in b:
        exps[x] = exps.get(x, 0) + e
    return tuple(sorted(exps.items()))


class _Parser:
    """Recursive descent without recursion and without backtracking.

    Each grammar rule is a generator that asks for a sub-parse with
    ``x = yield self.rule`` and returns its result.  ``run`` keeps the open
    rules on an explicit list, so nesting costs heap, not interpreter stack.
    A ``(`` where a constraint may start opens a term exactly when the token
    after its matching ``)`` may follow a term and no constraint: an
    arithmetic operator or a comparison.  ``__init__`` finds these in one
    scan.
    """

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.i = 0
        self.term_opens: set[int] = set()
        opens = []
        for j, (_, tok, _) in enumerate(self.tokens):
            if tok == "(":
                opens.append(j)
            elif tok == ")" and opens:
                start = opens.pop()
                if self.tokens[j + 1][1] in ("+", "-", "*", "<=", ">=", "<", ">", "="):
                    self.term_opens.add(start)

    def run(self, rule):
        """The result of ``rule`` read from the whole input."""
        stack, value = [rule()], None
        while stack:
            try:
                sub = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(sub())
                value = None
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", pos)
        return value

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

    def group(self, rule, neg, conj):
        """The rest of ``(left)``, ``(left & right)`` or ``(left | right)``
        after its ``(``; redundant parentheses are an accepted superset."""
        left = yield rule
        kind, text, pos = self.next()
        if text == ")":
            return left
        if text not in ("&", "|"):
            raise ParseError(f"expected '&', '|' or ')', found {text!r}", pos)
        right = yield rule
        self.expect(")")
        return conj(left, right) if text == "&" else neg(conj(neg(left), neg(right)))

    # -- formulas

    def phi(self):
        kind, text, pos = self.next()
        if kind == "prop":
            return Prop(int(text[1:]))
        if text == "!":
            return Not((yield self.phi))
        if text == "<":
            return (yield self.modal)
        if text == "(":
            return (yield from self.group(self.phi, Not, And))
        raise ParseError(f"expected a formula, found {text or 'end of input'!r}", pos)

    def modal(self):
        mods = [self.modality()]
        while self.at(","):
            self.next()
            mods.append(self.modality())
        self.expect(">")
        self.expect("{")
        psi = yield self.psi
        self.expect("}")
        pos = self.peek()[2]
        self.expect("(")
        children = [(yield self.phi)]
        while self.at(","):
            self.next()
            children.append((yield self.phi))
        self.expect(")")
        try:
            return Modal(tuple(mods), psi, tuple(children))
        except ValueError as e:  # a count or arity mismatch
            raise ParseError(str(e), pos) from None

    def modality(self) -> Modality:
        kind, text, pos = self.next()
        if kind == "word" and text in _SURFACE_MODALITY:
            return _SURFACE_MODALITY[text]
        raise ParseError(f"unknown modality {text!r} (expected id, in, out or top)", pos)

    # -- constraints

    def psi(self):
        if self.at("!"):
            self.next()
            return PeanoNot((yield self.psi))
        if self.at("(") and self.i not in self.term_opens:
            self.next()
            return (yield from self.group(self.psi, PeanoNot, PeanoAnd))
        return (yield self.atom)

    def atom(self):
        lhs = yield self.term
        kind, text, pos = self.next()
        if text not in ("<=", ">=", "<", ">", "="):
            raise ParseError(f"expected a comparison, found {text or 'end of input'!r}", pos)
        rhs = yield self.term
        if any(k and v != 0 for k, v in rhs.items()):
            raise ParseError("comparison right-hand side must be an integer", pos)
        poly = {
            tuple(x for x, e in k for _ in range(e)): v for k, v in lhs.items()
        }
        return normalize_atom(poly, text, rhs.get((), 0))

    # Terms are polynomials: dict mapping exponent vectors, sorted
    # ((variable, exponent), ...) tuples, to coefficients, so a product's
    # cost does not grow with the degree.  ``atom`` turns each vector into
    # the sorted variable tuple that ``normalize_atom`` takes.

    def term(self):
        acc = yield self.term_mul
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = yield self.term_mul
            for k, v in rhs.items():
                acc[k] = acc.get(k, 0) + (v if op == "+" else -v)
        return acc

    def term_mul(self):
        acc = yield self.term_unary
        # One-monomial factors are gathered into one monomial, applied at
        # the end.  A monomial maps monomials one to one, so every ``len(acc)``
        # the cap checks is the same as in a left-to-right product.
        mono, coeff = (), 1
        while self.at("*"):
            pos = self.next()[2]
            rhs = yield self.term_unary
            if len(acc) * len(rhs) > MAX_PRODUCT_TERMS:
                raise ParseError(
                    f"product of {len(acc)} by {len(rhs)} monomials exceeds "
                    f"the limit of {MAX_PRODUCT_TERMS} products",
                    pos,
                )
            if len(rhs) == 1:
                ((k2, v2),) = rhs.items()
                mono, coeff = _times(mono, k2), coeff * v2
                continue
            out: dict[tuple[tuple[int, int], ...], int] = {}
            for k1, v1 in acc.items():
                for k2, v2 in rhs.items():
                    key = _times(k1, k2)
                    out[key] = out.get(key, 0) + v1 * v2
            acc = out
        if mono or coeff != 1:
            acc = {_times(k, mono): v * coeff for k, v in acc.items()}
        return acc

    def term_unary(self):
        kind, text, pos = self.next()
        if text == "-":
            return {k: -v for k, v in (yield self.term_unary).items()}
        if kind == "int":
            return {(): int(text)}
        if kind == "var":
            idx = int(text[1:])
            if idx < 1:
                raise ParseError("count variables are 1-based (x1, x2, ...)", pos)
            return {((idx, 1),): 1}
        if text == "(":
            inner = yield self.term
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {text or 'end of input'!r}", pos)


def parse_formula(text: str) -> PmlFormula:
    """Parse surface syntax into a normalized formula AST."""
    p = _Parser(text)
    return p.run(p.phi)


def parse_peano(text: str) -> PeanoFormula:
    """Parse a bare constraint (used by tests and tooling)."""
    p = _Parser(text)
    return p.run(p.psi)


# ---------------------------------------------------------------------------
# Printing (canonical form; parse(print_formula(phi)) == phi)


def print_formula(phi: PmlFormula) -> str:
    text: dict[PmlFormula, str] = {}
    for s in postorder(phi):
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
    text: dict[PeanoFormula, str] = {}
    for s in postorder(psi):
        if isinstance(s, PeanoAtom):
            text[s] = f"{_print_polynomial(s.monomials)} <= {s.bound}"
        elif isinstance(s, PeanoNot):
            text[s] = f"!{text[s.operand]}"
        else:
            text[s] = f"({text[s.left]} & {text[s.right]})"
    return text[psi]


def _print_polynomial(monomials: tuple[Monomial, ...]) -> str:
    # Positive monomials first so the strict grammar (no unary minus) suffices.
    ordered = sorted(monomials, key=lambda m: m.coeff < 0)
    parts = [] if ordered and ordered[0].coeff > 0 else ["0"]
    for m in ordered:
        body = _print_monomial(abs(m.coeff), m.variables)
        parts.append(f"{'+' if m.coeff > 0 else '-'} {body}" if parts else body)
    return " ".join(parts)


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


def _operands(s: Union[PmlFormula, PeanoFormula]) -> tuple:
    if isinstance(s, (Not, PeanoNot)):
        return (s.operand,)
    if isinstance(s, (And, PeanoAnd)):
        return (s.left, s.right)
    if isinstance(s, Modal):
        return s.children
    return ()


def skeleton_operands(s: Union[PmlFormula, PeanoFormula]) -> tuple:
    """Operands of the Boolean structure over a formula's modal nodes, or
    of a constraint over its atoms; none for its leaves: atoms, modal
    nodes and modal-free subformulas."""
    if isinstance(s, Modal) or (isinstance(s, (Not, And)) and s.modal_depth == 0):
        return ()
    return _operands(s)


def postorder(phi: PmlFormula, operands=_operands) -> list[PmlFormula]:
    """Distinct subterms of a formula or constraint in the order a
    left-to-right depth-first walk finishes them (every operand before its
    parent), without recursion, walking into the ``operands`` of each."""
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
            stack.extend((c, False) for c in reversed(operands(s)) if c not in done)
    return order


def subformulas_ordered(phi: PmlFormula) -> tuple[PmlFormula, ...]:
    """Deduplicated subformulas, children-first, modal-free ones up front.

    Guarantees: every subformula of an entry appears earlier; all entries of
    modal depth 0 precede all others; ``phi`` itself is the final entry.
    """
    order = postorder(phi)
    flat = [s for s in order if s.modal_depth == 0]
    return tuple(flat + [s for s in order if s.modal_depth > 0])


# ---------------------------------------------------------------------------
# Traces


def _modal_at(phi: PmlFormula, depth: int) -> list[Modal]:
    """The modal nodes of modal depth ``depth`` in ``phi``, in postorder.  The
    walk stops at them and below that depth, so a chain costs one step."""
    stop = lambda s: s.modal_depth < depth or s.modal_depth == depth and isinstance(s, Modal)
    order = postorder(phi, lambda s: () if stop(s) else _operands(s))
    return [s for s in order if isinstance(s, Modal) and s.modal_depth == depth]


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


# The Boolean fragment flags of FragmentTags, with the names printed for them.
FRAGMENT_FLAGS = {
    "only_top": "top-only",
    "only_edges": "edges-only",
    "homogeneous": "homogeneous",
}


@dataclass(frozen=True)
class FragmentTags:
    """Syntactic fragment facts used for compilation dispatch."""

    max_modal_depth: int
    only_top: bool
    only_edges: bool
    homogeneous: bool

    def line(self) -> str:
        """``fragment top-only=1 edges-only=0 homogeneous=1``, the line
        ``pmlc parse`` and compilation reports print."""
        flags = (f" {name}={int(getattr(self, f))}" for f, name in FRAGMENT_FLAGS.items())
        return "fragment" + "".join(flags)


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


def _guess(phi: PmlFormula, true_set: frozenset[PmlFormula]) -> PmlFormula:
    """``phi`` with every maximal strict modal subformula replaced by
    top/bottom per ``true_set``; a modal root keeps its own modal
    operator over its rewritten children."""

    def operands(s: PmlFormula) -> tuple[PmlFormula, ...]:
        return s.children if s is phi and isinstance(s, Modal) else skeleton_operands(s)

    out: dict[PmlFormula, PmlFormula] = {}
    for s in postorder(phi, operands):
        kids = tuple(out[c] for c in operands(s))
        if s is phi and isinstance(s, Modal):
            out[s] = Modal(s.modalities, s.constraint, kids)
        elif isinstance(s, Modal):
            out[s] = TOP_FORMULA if s in true_set else BOT_FORMULA
        else:
            out[s] = type(s)(*kids) if kids else s
    return out[phi]


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
