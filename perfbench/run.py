"""pmlc benchmark: one workload, one closed-loop run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bank-verify --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` gives
the per-layer metrics instead: it alternates untraced rounds with rounds
that record spans around every layer boundary, and reports the tracing
overhead as the difference between the two.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

pmlc is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 3  # input set-ups per untraced run; setup_s takes their median
IMPORTS = 5  # fresh interpreters that time the import of pmlc; median taken
IMPORT_PMLC = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pmlc.compiler, pmlc.graphs, pmlc.logic, pmlc.mpnn, pmlc.oracle; "
    "print(time.perf_counter() - t)"
)

# The public functions wrapped in traced runs, as their callers bind them.
WRAPPED = (
    ("pmlc.mpnn:mpnn_eval", "mpnn_eval"),
    ("pmlc.mpnn:fnn_eval", "fnn_eval"),
    ("pmlc.mpnn:aggregate", "aggregate"),
    ("pmlc.mpnn:neigh", "neigh"),
    ("pmlc.mpnn:check_required_class", "class_check"),
    ("pmlc.oracle:neigh", "neigh"),
    ("pmlc.oracle:max_prop", "max_prop"),
)
# Wrapped during set-up: the compiler flattens global-deep formulas itself.
SETUP_WRAPPED = (
    ("pmlc.compiler:flatten_global", "flatten"),
    ("pmlc.compiler.shallow:flatten_global", "flatten"),
)
# Spans each workload must produce; one that never appears is missing.
EXPECTED = {
    "bank-verify": {"mpnn_eval", "fnn_eval", "aggregate", "neigh", "class_check",
                    "max_prop", "compile", "print", "parse", "gen", "models",
                    "flatten"},
    "large-graph-judge": {"mpnn_eval", "fnn_eval", "aggregate", "neigh",
                          "class_check", "max_prop", "compile", "print", "parse",
                          "gen", "models"},
    "flatten-oracle": {"max_prop", "gen", "models", "flatten"},
}
# Per-layer metric -> the spans it is read from.
SOURCES = {
    "net.fnn_eval_s": ("fnn_eval",),
    "net.fnn_calls": ("fnn_eval",),
    "mpnn.eval_s": ("mpnn_eval",),
    "mpnn.eval_self_s": ("mpnn_eval",),
    "mpnn.aggregate_s": ("aggregate",),
    "mpnn.aggregate_calls": ("aggregate",),
    "mpnn.print_s": ("print",),
    "mpnn.parse_s": ("parse",),
    "compiler.compile_s": ("compile",),
    "graphs.gen_s": ("gen",),
    "graphs.class_check_s": ("class_check",),
    "graphs.neigh_calls": ("neigh",),
    "oracle.models_s": ("models",),
    "oracle.models_calls": ("models",),
    "oracle.max_prop_calls": ("max_prop",),
    "logic.flatten_s": ("flatten",),
}


def environment() -> dict:
    from pmlc.net import Rational

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rationals": Rational.__module__.split(".")[0],
    }


def measure(wl, seconds: float, tr, rec) -> None:
    """Run whole rounds while the next one is expected to end within
    ``seconds`` (always at least one round)."""
    t0 = perf_counter()
    while True:
        wl.run_round(tr, rec)
        elapsed = perf_counter() - t0
        if elapsed * (rec.rounds + 1) / rec.rounds > seconds:
            return


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_seconds() -> list[float]:
    """Time ``import pmlc...`` in fresh interpreters, one after another."""
    times = []
    for _ in range(IMPORTS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PMLC, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return times


def untraced(name: str, seed: int, seconds: float):
    from tracer import NullTracer
    from workloads import WORKLOADS, Record, gmean_of_slots, median_of_slots

    null = NullTracer()
    import_times = import_seconds()
    setup_times = []
    for _ in range(SETUPS):
        wl = WORKLOADS[name](seed)
        t0 = perf_counter()
        stats = wl.setup(null)
        setup_times.append(perf_counter() - t0)
    rec = Record()
    measure(wl, seconds, null, rec)
    ops_per_s = rec.ops_per_round / rec.round_s()
    metrics = {
        "setup_s": (statistics.median(import_times) + statistics.median(setup_times), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_gmean": (gmean_of_slots(rec.op_s) * 1e3, "ms"),
        "oracle_ms_gmean": (gmean_of_slots(rec.oracle_s) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Metrics that only some workloads have, printed for people; the JSON
    # holds the metrics every workload has.
    extra = {
        "compile_s": (stats.compile_s, "s"),
        "net_neurons": (stats.structure[1], "count"),
        "op_ms_p50": (median_of_slots(rec.op_s) * 1e3, "ms"),
        "oracle_ms_p50": (median_of_slots(rec.oracle_s) * 1e3, "ms"),
    }
    if rec.judge_s:
        extra["verify_per_s"] = (ops_per_s, "1/s")
        extra["judge_ms_p50"] = (median_of_slots(rec.judge_s) * 1e3, "ms")
        samples = [t for times in rec.judge_s.values() for t in times]
        if len(samples) >= 1000:
            extra["judge_ms_p99"] = (quantile(samples, 0.99) * 1e3, "ms")
    else:
        extra["flatten_checks_per_s"] = (ops_per_s, "1/s")
    print(
        f"rounds {rec.rounds} ops per round {rec.ops_per_round} round_s {rec.round_s():.4f} "
        f"setups {' '.join(f'{t:.4f}' for t in setup_times)} "
        f"imports {' '.join(f'{t:.4f}' for t in import_times)}"
    )
    print("extra " + " ".join(f"{k}={v:.6g}{u}" for k, (v, u) in extra.items()))
    return rec, stats, metrics


def traced(name: str, seed: int, seconds: float):
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, Record, state_bits_max

    tr = Tracer()
    wl = WORKLOADS[name](seed)
    for target, span in SETUP_WRAPPED:
        tr.wrap(target, span)
    try:
        stats = wl.setup(tr)
    finally:
        tr.unwrap_all()
    setup_end = len(tr.start)

    # Untraced and traced rounds alternate, so both see the same machine
    # and their difference is the tracing overhead.
    plain, rec = Record(), Record()
    t0 = perf_counter()
    while True:
        wl.run_round(NullTracer(), plain)
        for target, span in WRAPPED:
            tr.wrap(target, span)
        try:
            wl.run_round(tr, rec)
        finally:
            tr.unwrap_all()
        elapsed = perf_counter() - t0
        if elapsed * (rec.rounds + 1) / rec.rounds > seconds:
            break
    lo, hi = setup_end, len(tr.start)

    setup = tr.totals(0, setup_end)
    spans = tr.totals(lo, hi)
    rounds = rec.rounds

    def per_round(span: str, field: int):
        return spans.get(span, (0, 0.0, 0.0))[field] / rounds

    def at_setup(span: str, field: int):
        return setup.get(span, (0, 0.0, 0.0))[field]

    op_s = per_round("op", 1) + per_round("flatten", 1)  # base for shares
    plain_op_s = plain.round_s()
    layers, neurons, identity, weights = stats.structure
    metrics = {
        "net.fnn_eval_s": (per_round("fnn_eval", 1), "s"),
        "net.fnn_calls": (per_round("fnn_eval", 0), "count"),
        "net.neurons_evaluated": (rec.neurons / rounds, "count"),
        "net.identity_copies": (rec.identity / rounds, "count"),
        "net.weight_mults": (rec.weights / rounds, "count"),
        "mpnn.eval_s": (per_round("mpnn_eval", 1), "s"),
        "mpnn.eval_self_s": (per_round("mpnn_eval", 2), "s"),
        "mpnn.aggregate_s": (per_round("aggregate", 1), "s"),
        "mpnn.aggregate_calls": (per_round("aggregate", 0), "count"),
        "mpnn.state_bits_max": (state_bits_max(rec.judged), "bits"),
        "mpnn.print_s": (at_setup("print", 1), "s"),
        "mpnn.parse_s": (at_setup("parse", 1), "s"),
        "mpnn.file_bytes": (stats.file_bytes, "bytes"),
        "compiler.compile_s": (at_setup("compile", 1), "s"),
        "compiler.layers": (layers, "count"),
        "compiler.neurons": (neurons, "count"),
        "compiler.identity_neurons": (identity, "count"),
        "compiler.weight_terms": (weights, "count"),
        "graphs.gen_s": (at_setup("gen", 1) + per_round("gen", 1), "s"),
        "graphs.class_check_s": (per_round("class_check", 1), "s"),
        "graphs.neigh_calls": (per_round("neigh", 0), "count"),
        "oracle.models_s": (per_round("models", 1), "s"),
        "oracle.models_calls": (per_round("models", 0), "count"),
        "oracle.max_prop_calls": (per_round("max_prop", 0), "count"),
        "oracle.models_share": (100 * per_round("models", 1) / op_s, "%"),
        "logic.flatten_s": (at_setup("flatten", 1) + per_round("flatten", 1), "s"),
        "logic.flat_subformulas": (wl.flat_subformulas(), "count"),
        "trace.op_s": (op_s, "s"),
        "trace.overhead_pct": (100 * (rec.round_s() / plain_op_s - 1), "%"),
    }

    absent = EXPECTED[name] - set(setup) - set(spans)
    absent |= {span for target, span in WRAPPED + SETUP_WRAPPED if target in tr.missing}
    missing = [m for m, spans_read in SOURCES.items() if absent & set(spans_read)]
    for m in missing:
        del metrics[m]
    if absent:
        print(
            f"missing spans {' '.join(sorted(absent))} (names gone: "
            f"{' '.join(tr.missing) or 'none'}); not reported: {' '.join(missing)}"
        )

    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{name}-{seed}.tsv")
    print(
        f"rounds untraced {plain.rounds} traced {rounds}; op time per round "
        f"untraced {plain_op_s:.6f}s traced {rec.round_s():.6f}s; ops_per_s untraced "
        f"{plain.ops_per_round / plain_op_s:.6g} traced {rec.ops_per_round / rec.round_s():.6g}; "
        f"models share {metrics['oracle.models_share'][0]:.3f}% of {op_s:.6f}s per round"
    )
    rec.absorb_counts(plain)
    return rec, stats, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("bank-verify", "large-graph-judge", "flatten-oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "pmlc" / "__init__.py").is_file():
        print(f"error: no pmlc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pmlc

    if Path(pmlc.__file__).resolve().parent != SRC / "pmlc":
        print(f"error: imported pmlc from {pmlc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print(f"environment python {env['python']} nproc {env['nproc']} rationals {env['rationals']}")
    run = traced if args.trace else untraced
    rec, stats, metrics = run(args.workload, args.seed, args.seconds)
    print(
        f"verdicts accept {rec.accepts} reject {rec.rejects}; "
        f"truth SAT {rec.sat} UNSAT {rec.unsat}"
    )
    for message in stats.errors + rec.errors:
        print(f"check failed: {message}")
    for message in rec.failures:
        print(f"operation failed: {message}")
    result = {
        "correct": not stats.errors and rec.error_count == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
