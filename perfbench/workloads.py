"""The benchmark's workloads: set-up, one round of operations, and checks.

Every workload is a closed loop in one thread: an operation starts only
after the previous one has finished.  A run repeats whole rounds, and every
round performs the same operations on the same inputs, so per-round counts
repeat exactly and the share of failed operations cannot depend on how many
rounds fit in the run.

Each operation's output is checked against ``refsem`` (the benchmark's own
model checker) and, for judged networks, against the exact value n^(-e)
computed here.  Checks run outside the timed sections.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict
from time import perf_counter

from pmlc.compiler import ALL_TARGETS, compile as compile_formula
from pmlc.logic import flatten_global, parse_formula, subformulas_ordered
from pmlc.mpnn import judge, mpnn_eval_traced, parse_mpnn, print_mpnn
from pmlc.oracle import all_pointed_graphs, models

import inputs
import refsem

MAX_MESSAGES = 5


class Record:
    """Timings, verdict counts and check results of the operations run.

    Times are kept per slot (an operation's place in the round), one entry
    per round, so that each slot's time can be taken as its median over the
    rounds: the machine's noise comes in bursts, and the median of a slot
    drops a burst that slowed one round.  Each round's total timed seconds
    are kept too; a round's total averages out the noise that strikes single
    operations, so it is steadier than any one slot's time.
    """

    def __init__(self) -> None:
        self.op_s: dict = defaultdict(list)
        self.judge_s: dict = defaultdict(list)
        self.oracle_s: dict = defaultdict(list)
        # Timed work that belongs to no single operation (flattening).
        self.other_s: dict = defaultdict(list)
        self.rounds = 0
        self.round_totals: list[float] = []
        self._round_total = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # the first wrong outputs
        self.error_count = 0
        self.failures: list[str] = []  # operations that raised
        self.accepts = self.rejects = self.sat = self.unsat = 0
        # Structure of the networks judged, times the node count.
        self.neurons = self.identity = self.weights = 0
        self.judged: list = []  # (net, graph) pairs of the latest round

    def error(self, message: str) -> None:
        self.error_count += 1
        if len(self.errors) < MAX_MESSAGES:
            self.errors.append(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_MESSAGES:
            self.failures.append(message)

    def absorb_counts(self, other: "Record") -> None:
        """Add ``other``'s operation, verdict and check counts to this one."""
        for name in ("attempted", "failed", "error_count", "accepts", "rejects", "sat", "unsat"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.errors += other.errors
        self.failures += other.failures

    def add_op(self, slot, seconds: float) -> None:
        self.op_s[slot].append(seconds)
        self._round_total += seconds

    def add_other(self, key, seconds: float) -> None:
        self.other_s[key].append(seconds)
        self._round_total += seconds

    def end_round(self) -> None:
        self.round_totals.append(self._round_total)
        self._round_total = 0.0
        self.rounds += 1

    @property
    def ops_per_round(self) -> int:
        return len(self.op_s)

    def round_s(self) -> float:
        """Timed seconds of one round: the median over rounds of their totals."""
        return statistics.median(self.round_totals)


def median_of_slots(times: dict) -> float:
    """The median over slots of each slot's median over rounds."""
    return statistics.median(map(statistics.median, times.values()))


def gmean_of_slots(times: dict) -> float:
    """The geometric mean over slots of each slot's median over rounds.

    Unlike a median, it does not jump when the middle of a mix of cheap and
    dear operations moves from one kind to the other."""
    return statistics.geometric_mean(map(statistics.median, times.values()))


def net_structure(net) -> tuple[int, int, int, int]:
    """(layers, comb neurons, identity carries relu(1*x), weight terms)."""
    neurons = identity = weights = 0
    for layer in net.layers:
        for fl in layer.comb.layers:
            for bias, terms in fl.neurons:
                neurons += 1
                weights += len(terms)
                if bias == 0 and len(terms) == 1 and terms[0][1] == 1:
                    identity += 1
    return len(net.layers), neurons, identity, weights


class Compiled:
    """One formula compiled for one target, through its file form."""

    def __init__(self, target: str, phi, tr, setup: "SetupStats") -> None:
        self.target, self.phi = target, phi
        t0 = perf_counter()
        s = tr.open("compile")
        net, _report = compile_formula(phi, target)
        tr.close(s)
        t1 = perf_counter()
        s = tr.open("print")
        text = print_mpnn(net)
        tr.close(s)
        t2 = perf_counter()
        s = tr.open("parse")
        self.net = parse_mpnn(text)
        tr.close(s)
        setup.compile_s += perf_counter() - t0
        setup.print_s += t2 - t1
        setup.parse_s += perf_counter() - t2
        setup.file_bytes += len(text.encode())
        self.structure = net_structure(self.net)
        for i, v in enumerate(self.structure):
            setup.structure[i] += v
        if print_mpnn(self.net) != text:
            setup.errors.append(f"{target}: print_mpnn(parse_mpnn(text)) != text")

    def count(self, rec: Record, node_count: int) -> None:
        _layers, neurons, identity, weights = self.structure
        rec.neurons += neurons * node_count
        rec.identity += identity * node_count
        rec.weights += weights * node_count


class SetupStats:
    def __init__(self) -> None:
        self.compile_s = self.print_s = self.parse_s = 0.0
        self.file_bytes = 0
        self.structure = [0, 0, 0, 0]  # layers, neurons, identity, weights
        self.errors: list[str] = []


def judge_and_check(item: Compiled, pg, tr, rec: Record, slot, t0: float) -> None:
    """Judge, run the oracle, record times; check verdict and truth.

    ``t0`` is when the operation began (before instance generation, if the
    operation generates its instance)."""
    t1 = perf_counter()
    s = tr.open("judge")
    verdict = judge(item.net, pg)
    tr.close(s)
    t2 = perf_counter()
    s = tr.open("models")
    truth = models(pg, item.phi)
    tr.close(s)
    t3 = perf_counter()
    rec.add_op(slot, t3 - t0)
    rec.judge_s[slot].append(t2 - t1)
    rec.oracle_s[slot].append(t3 - t2)
    item.count(rec, pg.graph.node_count)
    rec.judged.append((item.net, pg.graph))
    if truth != refsem.holds(pg, item.phi):
        rec.error(f"{item.target}: oracle says {truth}, reference says {not truth}")
    problem = refsem.verdict_error(item.net, pg, verdict, truth)
    if problem is not None:
        rec.error(f"{item.target}: {problem}")
    rec.sat += truth
    rec.unsat += not truth
    rec.accepts += verdict.kind == "accept"
    rec.rejects += verdict.kind == "reject"


class BankVerify:
    """Every target's bank, judged on verify-sized class members.

    Each formula is judged on two members whose node counts sum to 11 and
    whose edge probabilities sum to 1.  The pair follows a fixed schedule
    indexed by the formula's place in the workload, and the seed draws the
    members' edges and labels, so every formula sees the same graph sizes
    whatever the seed.
    """

    name = "bank-verify"
    RANDOM_PER_TARGET = 8
    SIZES = (1, 2, 3, 4, 5)  # the first member's node count; 11 - n for the second
    EDGE_PROBS = (0.2, 0.5, 0.8)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> SetupStats:
        stats = SetupStats()
        self.items, self.slots = [], []
        for target in ALL_TARGETS:
            bank = inputs.target_bank(target.name, self.seed, self.RANDOM_PER_TARGET)
            for phi in bank:
                item = Compiled(target.name, phi, tr, stats)
                self.items.append(item)
                child = self.seed * 1_000_003 + 2 * len(self.slots)
                j = len(self.items) - 1
                n, p = self.SIZES[j % len(self.SIZES)], self.EDGE_PROBS[j % len(self.EDGE_PROBS)]
                self.slots.append((item, child, n, p))
                self.slots.append((item, child + 1, 11 - n, round(1 - p, 1)))
        return stats

    def run_round(self, tr, rec: Record) -> None:
        rec.judged = []
        for slot, (item, child, n, p) in enumerate(self.slots):
            rec.attempted += 1
            op = tr.open("op")
            try:
                t0 = perf_counter()
                s = tr.open("gen")
                pg = inputs.small_member(item.net, item.phi, child, n, p)
                tr.close(s)
                judge_and_check(item, pg, tr, rec, slot, t0)
            except Exception as exc:  # an operation that raises is a failed one
                rec.fail(f"{item.target} instance {child}: {exc!r}")
            finally:
                tr.close(op)
        rec.end_round()

    def flat_subformulas(self) -> int:
        """Distinct subformulas of the flattened forms the compiler builds
        for the global-deep formulas of nesting depth 2 or more."""
        return sum(
            len(subformulas_ordered(flatten_global(item.phi)))
            for item in self.items
            if item.target == "global-deep" and refsem.modal_depth(item.phi) > 1
        )


# (target, formula, node count, edge probability, branching); the tree-like
# member's size follows from its branching factor, not from the node count.
LARGE_CASES = (
    ("global-homogeneous", inputs.CUBIC_GLOBAL, 300, 0.01, 1),
    ("global-shallow", inputs.CUBIC_GLOBAL, 300, 0.01, 1),
    ("local-mean-regular", inputs.SQUARE_VS_CUBE_LOCAL, 200, 0.015, 1),
    ("local-mixed-sum", inputs.SQUARE_VS_CUBE_LOCAL, 160, 0.02, 1),
    ("shallow-mixed-sum", inputs.THREE_MODALITY_MIXED, 100, 0.03, 1),
    ("shallow-mixed-max", inputs.SQUARE_VS_CUBE_LOCAL, 120, 0.025, 1),
    ("nested-mixed-sum", inputs.NESTED_OUT_OUT, 111, 0.0, 10),
)


class LargeGraphJudge:
    """Depth-1 worked examples and one nested target on graphs of 100+ nodes."""

    name = "large-graph-judge"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> SetupStats:
        stats = SetupStats()
        self.items = []
        for c, (target, text, n, p, branching) in enumerate(LARGE_CASES):
            item = Compiled(target, parse_formula(text), tr, stats)
            child = self.seed * 1_000_003 + c
            s = tr.open("gen")
            pg = inputs.class_member(item.net, item.phi, child, n, p, branching)
            tr.close(s)
            self.items.append((item, pg))
        return stats

    def run_round(self, tr, rec: Record) -> None:
        rec.judged = []
        for slot, (item, pg) in enumerate(self.items):
            rec.attempted += 1
            op = tr.open("op")
            try:
                judge_and_check(item, pg, tr, rec, slot, perf_counter())
            except Exception as exc:
                rec.fail(f"{item.target} n={pg.graph.node_count}: {exc!r}")
            finally:
                tr.close(op)
        rec.end_round()

    def flat_subformulas(self) -> int:
        return 0  # no global-deep case


class FlattenOracle:
    """Flatten ``top``-only formulas and compare oracle truth before and after
    on the exhaustive small universes: every pointed graph with up to four
    nodes and no edges, and every one with up to two nodes, two colours."""

    name = "flatten-oracle"
    # (modal depth, positions per modal node) of each formula of a round.
    SHAPES = ((1, 2), (2, 1), (2, 2), (3, 1))

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> SetupStats:
        s = tr.open("gen")
        self.universe = list(all_pointed_graphs(4, 2, edges=False))
        self.universe += list(all_pointed_graphs(2, 2))
        tr.close(s)
        rng = random.Random(f"flatten-{self.seed}")
        self.formulas = [
            parse_formula(inputs.top_formula(rng, d, w)) for d, w in self.SHAPES
        ]
        return SetupStats()

    def run_round(self, tr, rec: Record) -> None:
        for f, phi in enumerate(self.formulas):
            t0 = perf_counter()
            s = tr.open("flatten")
            try:
                flat = flatten_global(phi)
            except Exception as exc:
                # Every check of this formula needs the flattened form.
                rec.attempted += len(self.universe)
                rec.failed += len(self.universe)
                rec.failures.append(f"flatten_global raised {exc!r}")
                continue
            finally:
                tr.close(s)
                rec.add_other(f, perf_counter() - t0)
            if refsem.modal_depth(flat) > 1:
                rec.error(f"flattened formula has modal depth {refsem.modal_depth(flat)}")
            for g, pg in enumerate(self.universe):
                rec.attempted += 1
                op = tr.open("op")
                try:
                    t0 = perf_counter()
                    s = tr.open("models")
                    before = models(pg, phi)
                    tr.close(s)
                    t1 = perf_counter()
                    s = tr.open("models")
                    after = models(pg, flat)
                    tr.close(s)
                    t2 = perf_counter()
                except Exception as exc:
                    rec.fail(f"models raised {exc!r}")
                    continue
                finally:
                    tr.close(op)
                rec.add_op((f, g), t2 - t0)
                rec.oracle_s[f, g, 0].append(t1 - t0)
                rec.oracle_s[f, g, 1].append(t2 - t1)
                if before != after:
                    rec.error("flattening changed the oracle's truth")
                if before != refsem.holds(pg, phi):
                    rec.error(f"oracle says {before}, reference says {not before}")
                rec.sat += before
                rec.unsat += not before
        rec.end_round()

    def flat_subformulas(self) -> int:
        """Distinct subformulas of one round's flattened formulas."""
        return sum(len(subformulas_ordered(flatten_global(p))) for p in self.formulas)


WORKLOADS = {w.name: w for w in (BankVerify, LargeGraphJudge, FlattenOracle)}


def state_bits_max(judged) -> int:
    """Longest numerator or denominator, in bits, in any state of any layer."""
    best = 0
    for net, g in judged:
        for table in mpnn_eval_traced(net, g):
            for row in table:
                for q in row:
                    best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best
