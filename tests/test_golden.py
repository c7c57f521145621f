"""Golden digests: every bank network, report and verdict stays byte-identical.

For each (target, bank formula) pair, ``golden_digests.txt`` holds the
sha256 of ``print_mpnn(net)``, of ``format_report(report)`` and of the
network's ``judge`` verdicts and values on fixed members of its class;
``golden_extra_digests.txt`` does the same for ``EXTRA``, pairs outside
the banks that run builder paths no bank formula reaches.  A change to
the compilers that alters any network, report or verdict fails here.  A
change may alter networks on purpose (smaller networks with the same
semantics); then regenerate both files, check that only the network
column moved, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import random
from pathlib import Path

import pytest

from pmlc.compiler import ALL_TARGETS, compile, format_report
from pmlc.graphs import class_instance
from pmlc.logic import parse_formula, print_formula
from pmlc.mpnn import judge, print_mpnn

from targets import bank

GOLDEN = Path(__file__).with_name("golden_digests.txt")
EXTRA_GOLDEN = Path(__file__).with_name("golden_extra_digests.txt")

# (target, formula) pairs for the homogeneous tautology, nested set-up at
# modal depth 3, and nested skeletons that mix modal and flag leaves.
EXTRA = (
    ("global-homogeneous", "<top>{0 <= 0}(p0)"),
    ("nested-mean-regular", "<out>{x1 >= 1}(<in>{x1 >= 1}(<out>{x1 >= 1}(p0)))"),
    ("nested-mixed-max", "(p1 & !<out>{x1 >= 1}(<out>{x1 >= 2}(p0)))"),
    ("nested-mixed-sum", "<out>{x1 >= 1}((p1 & <in>{x1 >= 1}(p0)))"),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


FIELDS = ("network", "report", "verdict")
VERDICT_MEMBERS = 6  # class members judged per pair, at most 6 nodes each


def _verdicts(net, phi, name: str, i: int) -> str:
    """One ``kind value`` line per fixed member of the network's class."""
    rng = random.Random(f"golden-{name}-{i}")
    lines = []
    for k in range(VERDICT_MEMBERS):
        pg = class_instance(net.required_class, 1000 * i + k, rng, phi, max_nodes=6)
        verdict = judge(net, pg)
        lines.append(f"{verdict.kind} {verdict.value}")
    return "\n".join(lines)


def _line(name: str, i: int, phi) -> str:
    net, report = compile(phi, name)
    shas = (print_mpnn(net), format_report(report), _verdicts(net, phi, name, i))
    return " ".join([name, str(i), *map(_sha, shas)])


def _changed(want: list, got: list) -> list:
    """``index:field`` for every digest that differs."""
    return [
        f"{w.split()[1]}:{field}"
        for w, g in zip(want, got)
        for field, a, b in zip(FIELDS, w.split()[2:], g.split()[2:])
        if a != b
    ]


def digests(target) -> list:
    """One ``target index net-sha report-sha verdict-sha`` line per bank
    formula."""
    return [_line(target.name, i, phi) for i, phi in enumerate(bank(target.name))]


def extra_digests() -> list:
    """One ``target index net-sha report-sha verdict-sha`` line per
    ``EXTRA`` pair."""
    return [_line(name, i, parse_formula(text)) for i, (name, text) in enumerate(EXTRA)]


def _golden() -> dict:
    table: dict = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        table.setdefault(line.split()[0], []).append(line)
    return table


def test_golden_file_covers_every_bank_pair():
    table = _golden()
    assert sorted(table) == sorted(t.name for t in ALL_TARGETS)
    for target in ALL_TARGETS:
        assert len(table[target.name]) == len(bank(target.name)), target.name


@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.name)
def test_bank_networks_match_golden_digests(target):
    want = _golden()[target.name]
    got = digests(target)
    changed = _changed(want, got)
    assert len(got) == len(want) and not changed, (
        f"{target.name}: bank formulas {changed} changed"
    )


def _pairs() -> list:
    """Every bank and ``EXTRA`` pair as (target name, formula)."""
    pairs = [(t.name, phi) for t in ALL_TARGETS for phi in bank(t.name)]
    return pairs + [(name, parse_formula(text)) for name, text in EXTRA]


def test_every_golden_pair_keeps_its_certainty_exponent_within_its_layers():
    for name, phi in _pairs():
        net, _report = compile(phi, name)
        assert net.certainty.exponent <= len(net.layers), (name, print_formula(phi))


def test_every_golden_pair_emits_only_what_is_read():
    # The last layer emits ``out`` alone, every other layer only dims the
    # next layer's program reads, and every comb neuron feeds an output.
    for name, phi in _pairs():
        net, _report = compile(phi, name)
        where = (name, print_formula(phi))
        assert net.dimension_names[-1] == ("out",) and net.output_dim == 1, where
        for layer, nxt in zip(net.layers, net.layers[1:]):
            read = {i % nxt.in_dim for i in nxt.comb.program.reads}
            assert read == set(range(layer.out_dim)), where
        for layer in net.layers:
            need = set(range(layer.out_dim))
            for fl in reversed(layer.comb.layers):
                assert need == set(range(fl.output_dim)), where
                need = {i for j in need for i, w in fl.neurons[j][1] if w}


def test_extra_networks_match_golden_digests():
    want = EXTRA_GOLDEN.read_text(encoding="utf-8").splitlines()
    got = extra_digests()
    changed = _changed(want, got)
    assert len(got) == len(want) and not changed, f"extra pairs {changed} changed"


if __name__ == "__main__":
    GOLDEN.write_text(
        "".join(line + "\n" for t in ALL_TARGETS for line in digests(t)),
        encoding="utf-8",
    )
    EXTRA_GOLDEN.write_text(
        "".join(line + "\n" for line in extra_digests()), encoding="utf-8"
    )
    print(f"wrote {GOLDEN} and {EXTRA_GOLDEN}")
