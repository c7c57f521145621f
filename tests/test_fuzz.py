"""Fuzzing the input boundaries: formula text, graph files, network files.

Every input either parses, or ends in the parser's typed error; through
``pmlc.cli.main`` the ``parse``, ``check`` and ``eval`` subcommands exit
0 or with the code the CLI documents for the error, and print ``error:``
rather than a traceback.  Inputs are mutants of small valid texts, so
most of them get past the first token.  ``gen`` and ``verify`` are left
out: their graphs have one colour per proposition index by design, so a
mutated index allocates by the size of the number.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from pmlc.cli import main
from pmlc.compiler import compile
from pmlc.graphs import GraphFormatError, parse_graph
from pmlc.logic import ParseError, parse_formula
from pmlc.mpnn import MpnnFormatError, parse_mpnn, print_mpnn

FORMULAS = (
    "p0",
    "!(p1 & !p0)",
    "<top>{x1 >= 1}(p0)",
    "<in,out>{x1*x1 - x2*x2*x2 <= 1}(p0, (p1 & !p2))",
    "<id,top>{(x1 + x2 >= 2 & !x2 <= 0)}(p0, !p1)",
    "<out>{x1 >= 1}(<in>{2*x1 <= 3}(p0))",
)
# Products of sums on either side of the product cap: five factors of
# x1+...+x8 make 792 monomials, and a sixth of six variables would form
# 792 * 6 = 4,752 products, past MAX_PRODUCT_TERMS.
_SUM8 = "(" + "+".join(f"x{i}" for i in range(1, 9)) + ")"
PRODUCTS = tuple(
    f"<{','.join(['top'] * 8)}>{{{'*'.join([_SUM8] * 5)}{tail} >= 1}}({','.join(['p0'] * 8)})"
    for tail in ("", "*(x1+x2+x3+x4+x5+x6)")
)
GRAPHS = (
    "graph 2 2\nnode 0 11\nnode 1 10\nedge 0 1\nedge 1 0\nfocus 0\n",
    "graph 3 2\nnode 0 01\nnode 1 10\nnode 2 00\nedge 0 0\nedge 2 0\nfocus 0\n",
    "# a comment\ngraph 1 1\nnode 0 1\nedge 0 0\nfocus 0\n",
)
# Two-colour networks on the class ``marked``, so the graphs above reach
# ``judge``.
NETWORKS = tuple(
    print_mpnn(compile(parse_formula(text), "global-shallow")[0])
    for text in ("p0", "<top>{x1 >= 1}(p0)")
)
ALPHABET = "pxc0123456789<>{}()[],!&*+-=/: \n#tonpimdeguafhlrsyk"

# The exit codes ``pmlc.cli`` documents for each subcommand's errors.
EXITS = {"parse": {2}, "check": {2}, "eval": {2, 4}}

FUZZ = settings(max_examples=120, deadline=None)


def mutants(seeds):
    """A seed text with up to four random splices."""

    @st.composite
    def mutant(draw):
        text = draw(st.sampled_from(seeds))
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 3))
            text = text[:at] + draw(st.text(ALPHABET, max_size=3)) + text[at + cut:]
        return text

    return mutant()


def _run(command, texts):
    """``main`` on ``command`` with each text in a file; the exit code and
    what it wrote to stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            paths.append(os.path.join(tmp, f"input{i}"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *paths])
    return code, err.getvalue()


def _typed(parse, error, text):
    try:
        parse(text)
    except error:
        pass


@FUZZ
@given(mutants(FORMULAS))
def test_parse_formula_succeeds_or_raises_parse_error(text):
    _typed(parse_formula, ParseError, text)


@FUZZ
@given(mutants(PRODUCTS))
def test_products_of_sums_parse_or_raise_parse_error(text):
    _typed(parse_formula, ParseError, text)


@FUZZ
@given(mutants(GRAPHS))
def test_parse_graph_succeeds_or_raises_graph_format_error(text):
    _typed(parse_graph, GraphFormatError, text)


@FUZZ
@given(mutants(NETWORKS))
def test_parse_mpnn_succeeds_or_raises_mpnn_format_error(text):
    _typed(parse_mpnn, MpnnFormatError, text)


@FUZZ
@given(st.sampled_from(("parse", "check", "eval")), st.data())
def test_cli_exits_with_a_documented_code(command, data):
    first = NETWORKS if command == "eval" else FORMULAS
    texts = [data.draw(mutants(first))]
    if command != "parse":
        texts.append(data.draw(mutants(GRAPHS)))
    code, err = _run(command, texts)
    documented = code in EXITS[command] and err.startswith("error:")
    assert code == 0 or documented, (code, err)
