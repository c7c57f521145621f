"""Command-line front end.

Subcommands cover the full workflow: ``parse`` (canonical form and
fragment metrics), ``check`` (brute-force satisfaction), ``compile``
(formula to network file plus report), ``eval`` (judge a network on a
pointed graph, optionally with per-layer state tables), ``gen`` (class
instance generators), ``verify`` (compile once, then compare the judged
verdict against the oracle on many generated class instances), and
``demo-inexpressibility`` (the two-graph separation showing mean-only
networks cannot count without a mark).

Exit codes: 0 success, 1 verification failure, 2 input or format error,
3 fragment mismatch or a compilation size limit (trace cap, flattening
bound), 4 class-precondition failure.  All randomness
derives from a single ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from .compiler import FragmentMismatch, compile as compile_formula, format_report
from .graphs import (
    Graph,
    GraphFormatError,
    PointedGraph,
    class_instance,
    gen_marked,
    gen_pointed,
    gen_regular_strongly_marked,
    gen_strongly_marked,
    gen_tree_like,
    parse_graph,
    print_graph,
)
from .logic import (
    FlattenLimitExceeded,
    ParseError,
    classify,
    degree,
    max_prop,
    modal_depth,
    parse_formula,
    print_formula,
)
from .mpnn import (
    CLASS_TAGS,
    Aggregator,
    ClassViolation,
    MpnnFormatError,
    check_required_class,
    judge,
    mpnn_eval,
    mpnn_eval_traced,
    parse_mpnn,
    print_mpnn,
    random_mpnn,
)
from .oracle import models


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_formula(path: str):
    return parse_formula(_read(path).strip())


def _read_pointed(path: str) -> PointedGraph:
    g = parse_graph(_read(path))
    if not isinstance(g, PointedGraph):
        raise GraphFormatError(f"{path}: graph file has no focus line")
    return g


def _fragment_line(phi) -> str:
    tags = classify(phi)
    return (
        "fragment"
        f" top-only={1 if tags.only_top else 0}"
        f" edges-only={1 if tags.only_edges else 0}"
        f" homogeneous={1 if tags.homogeneous else 0}"
    )


def cmd_parse(args: argparse.Namespace) -> int:
    phi = _read_formula(args.formula)
    print(f"formula {print_formula(phi)}")
    print(f"modal-depth {modal_depth(phi)}")
    print(f"degree {degree(phi)}")
    print(_fragment_line(phi))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    phi = _read_formula(args.formula)
    pg = _read_pointed(args.graph)
    print("SAT" if models(pg, phi) else "UNSAT")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    phi = _read_formula(args.formula)
    net, report = compile_formula(phi, args.target, trace_cap=args.trace_cap)
    if args.out is not None:
        _write(args.out, print_mpnn(net))
    _write(args.report, format_report(report))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    net = parse_mpnn(_read(args.mpnn))
    pg = _read_pointed(args.graph)
    check_required_class(net, pg)
    if args.trace:
        states = mpnn_eval_traced(net, pg.graph)
        for step, table in enumerate(states):
            print(f"state {step}")
            for v, row in enumerate(table):
                print(f"  {v}: " + " ".join(str(x) for x in row))
    verdict = judge(net, pg)
    print(f"verdict {verdict.kind}")
    print(f"value {verdict.value}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    tag = args.klass
    if tag in ("tree-like", "regular-tree-like"):
        if args.formula is None:
            raise ValueError(f"--class {tag} needs --formula")
        phi = _read_formula(args.formula)
        colours = args.colours if args.colours else max_prop(phi) + 2
        pg = gen_tree_like(
            args.seed, phi, args.branching, colours, tag == "regular-tree-like"
        )
    elif tag == "any":
        pg = gen_pointed(args.seed, args.n, args.colours or 1, args.edge_prob)
    elif tag == "marked":
        pg = gen_marked(args.seed, args.n, args.colours or 2, args.edge_prob)
    elif tag == "strong":
        pg = gen_strongly_marked(args.seed, args.n, args.colours or 2, args.edge_prob)
    else:  # regular-strong
        pg = gen_regular_strongly_marked(
            args.seed, args.n, args.colours or 2, args.degree, args.degree
        )
    _write(args.out, print_graph(pg))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    phi = _read_formula(args.formula)
    if args.mpnn is not None:
        net = parse_mpnn(_read(args.mpnn))
        print(f"target file:{args.mpnn}")
    elif args.target is None:
        raise ValueError("verify needs --target (or --mpnn)")
    else:
        net, report = compile_formula(phi, args.target, trace_cap=args.trace_cap)
        print(f"target {report.target}")
    print(f"formula {print_formula(phi)}")
    print(
        f"layers {len(net.layers)} exponent {net.certainty.exponent} "
        f"inverted {1 if net.inverted else 0} class {net.required_class}"
    )
    rng = random.Random(f"verify-{args.seed}")
    agree = malformed = 0
    for i in range(args.seeds):
        child = args.seed * 1_000_003 + i
        pg = class_instance(net.required_class, child, rng, phi, args.max_nodes)
        want = models(pg, phi)
        verdict = judge(net, pg)
        if verdict.kind == "malformed":
            malformed += 1
        if verdict.kind == ("accept" if want else "reject"):
            agree += 1
        else:
            print(
                f"disagree instance={i} n={pg.graph.node_count} "
                f"want={'SAT' if want else 'UNSAT'} got={verdict.kind} "
                f"value={verdict.value}"
            )
    if malformed:
        print(f"malformed {malformed}")
    print(f"RESULT agree={agree}/{args.seeds}")
    return 0 if agree == args.seeds and malformed == 0 else 1


def cmd_demo_inexpressibility(args: argparse.Namespace) -> int:
    """Two unlabelled-edge graphs with equal label fractions but different
    counts: every mean-only network computes identical focus states on
    them, while the counting formula separates them."""
    phi = parse_formula("<top>{x1 >= 2}(p0)")
    g1 = PointedGraph(Graph(2, 1, frozenset(), ((1,), (0,))), 0)
    g2 = PointedGraph(Graph(4, 1, frozenset(), ((1,), (1,), (0,), (0,))), 0)
    sat1 = models(g1, phi)
    sat2 = models(g2, phi)
    oracle_text = (
        f"oracle: {'SAT' if sat1 else 'UNSAT'} vs {'SAT' if sat2 else 'UNSAT'}"
    )
    if args.count == 0:
        print(oracle_text)
        return 0 if (not sat1 and sat2) else 1
    equal = 0
    for i in range(args.count):
        rng = random.Random(f"inexpress-{args.seed}-{i}")
        net = random_mpnn(rng, colours=1, aggregators=(Aggregator.MEAN,))
        s1 = mpnn_eval(net, g1.graph)[g1.focus]
        s2 = mpnn_eval(net, g2.graph)[g2.focus]
        if s1 == s2:
            equal += 1
        else:
            print(f"network {i}: focus states differ: {s1} vs {s2}")
    print(f"{equal}/{args.count} networks: equal focus states; {oracle_text}")
    return 0 if equal == args.count and not sat1 and sat2 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmlc",
        description="Compile counting modal formulas into exact message "
        "passing networks and verify them against a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="canonical form and fragment metrics")
    p.add_argument("formula", help="file holding one formula")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="brute-force satisfaction check")
    p.add_argument("formula")
    p.add_argument("graph", help="pointed graph file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="formula to network plus report")
    p.add_argument("formula")
    p.add_argument("--target", required=True)
    p.add_argument("--out", help="network file (omit to skip writing)")
    p.add_argument("--report", help="report file (default: stdout)")
    p.add_argument("--trace-cap", type=int, default=8)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="judge a network on a pointed graph")
    p.add_argument("mpnn")
    p.add_argument("graph")
    p.add_argument("--trace", action="store_true", help="print all state tables")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a graph-class instance")
    p.add_argument("--class", dest="klass", required=True, choices=CLASS_TAGS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=4, help="node count")
    p.add_argument("--colours", type=int, default=0, help="0 = class default")
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--degree", type=int, default=1, help="regular-strong only")
    p.add_argument("--branching", type=int, default=2, help="tree-like only")
    p.add_argument("--formula", help="tree-like classes derive shape from it")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="judge vs oracle on generated instances")
    p.add_argument("formula")
    p.add_argument("--target")
    p.add_argument("--mpnn", help="judge this network file instead of compiling")
    p.add_argument("--seeds", type=int, default=100, help="instance count")
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-cap", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "demo-inexpressibility",
        help="mean-only networks cannot count unmarked nodes",
    )
    p.add_argument("--count", type=int, default=100, help="networks to sample")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo_inexpressibility)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FragmentMismatch, FlattenLimitExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ClassViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ParseError, GraphFormatError, MpnnFormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
