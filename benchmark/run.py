"""Benchmark of effvec: one closed-loop workload per run, outputs checked.

    python3 benchmark/run.py --workload certify --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout holding ``src/effvec``; needs no install.
The run builds its inputs from the seed, then issues one operation at a
time, in whole rounds over the input pool, until ``--seconds`` have passed.
Every output is checked outside the timed region by ``checks.py``.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the program's layers are wrapped by ``tracer.py`` and the metrics are the
per-layer ones, averaged per operation.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up is timed from fresh processes, at least this many and for at
# least this long, so that the cheap set-ups get as many probes as they need.
SETUP_PROBES = 5
SETUP_PROBE_SECONDS = 2.0

sys.path.insert(0, str(BENCH))

WORKLOAD_NAMES = ("certify", "rank", "decompose", "cli")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the inputs, print 'ready' and exit (times set-up from a fresh process)",
    )
    return parser.parse_args(argv)


def measure_setup(args: argparse.Namespace) -> float:
    """Median seconds from starting a fresh process to its first operation."""
    times: list[float] = []
    while len(times) < SETUP_PROBES or sum(times) < SETUP_PROBE_SECONDS:
        t0 = perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        with probe.stdout:
            line = probe.stdout.readline()
            times.append(perf_counter() - t0)
            probe.stdout.read()
        if probe.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def timed_loop(workload, pool, run, seconds: float, after_round=None):
    """Whole rounds over the pool until ``seconds`` of wall time have passed."""
    latencies: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    while True:
        for op in pool:
            attempted += 1
            t0 = perf_counter()
            try:
                out = run(op)
            except Exception:
                failed += 1
                problems.append(traceback.format_exc(limit=3))
                continue
            latencies.append(perf_counter() - t0)
            try:
                workload.check(op, out)
            except Exception as exc:  # CheckFailed, or output too malformed to check
                failed += 1
                problems.append(f"check failed: {exc!r}")
        if after_round is not None:
            after_round()
        if perf_counter() - start >= seconds:
            break
    for line in problems[:5]:
        print(line, file=sys.stderr)
    return latencies, attempted, failed


def rate(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def end_to_end(workload, latencies: list[float], setup_s: float) -> dict:
    if hasattr(workload, "peak_child_kb"):
        peak_kb = workload.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": rate(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


# (metric, source, traced name); sources: total or self time in ms, calls,
# yielded items, or calls made directly from a given parent.
LAYER_METRICS = [
    ("digraph.build_digraph_ms", "ms", "digraph.build_digraph"),
    ("digraph.strongly_connected_ms", "ms", "digraph.strongly_connected"),
    ("digraph.strongly_connected_calls", "calls", "digraph.strongly_connected"),
    ("digraph.find_hamiltonian_cycle_ms", "ms", "digraph.find_hamiltonian_cycle"),
    ("digraph.is_efficient_calls", "calls", "digraph.is_efficient"),
    ("matrices.as_weight_vector_ms", "ms", "matrices.as_weight_vector"),
    ("matrices.is_consistent_ms", "ms", "matrices.is_consistent"),
    ("decomposition.enumerate_cycles_ms", "ms", "decomposition.enumerate_cycles"),
    ("decomposition.cycles_visited", "items", "decomposition.all_cycles"),
    ("decomposition.decompose_self_ms", "self_ms", "decomposition.decompose"),
    ("decomposition.convexity_report_ms", "ms", "decomposition.convexity_report"),
    ("decomposition.convexity_blends", "calls_from", ("decomposition.convexity_report", "digraph.is_efficient")),
    ("decomposition.membership_ms", "ms", "decomposition.membership"),
    ("cones.efficiency_cone_ms", "ms", "cones.efficiency_cone"),
    ("cones.cone_extremes_ms", "ms", "cones.cone_extremes"),
    ("cones.cones_built", "calls", "cones.efficiency_cone"),
    ("cones.cycle_product_calls", "calls", "cones.cycle_product"),
    ("perturbed.detect_column_perturbed_ms", "ms", "perturbed.detect_column_perturbed"),
    ("perturbed.efficient_set_union_ms", "ms", "perturbed.efficient_set_union"),
    ("reversals.min_reversal_vector_ms", "ms", "reversals.min_reversal_vector"),
    ("ranking.column_vector_ms", "ms", "ranking.column_vector"),
    ("ranking.weighted_geometric_ms", "ms", "ranking.weighted_geometric"),
    ("ranking.perron_vector_ms", "ms", "ranking.perron_vector"),
    ("ranking.singular_vector_ms", "ms", "ranking.singular_vector"),
    ("cli.main_ms", "ms", "cli.main"),
    ("formats.parse_matrix_ms", "ms", "formats.parse_matrix"),
    ("formats.parse_vector_ms", "ms", "formats.parse_vector"),
]
UNITS = {"ms": "ms/op", "self_ms": "ms/op", "calls": "count/op", "items": "count/op", "calls_from": "count/op"}
STARTUP_METRICS = {"cli.interpreter_ms": "interpreter", "cli.import_ms": "import", "cli.import_numpy_ms": "import_numpy"}


def per_layer(workload, tracer, latencies: list[float], attempted: int) -> dict:
    stats = tracer.stats
    sources = {
        "ms": lambda name: stats[name].total * 1e3,
        "self_ms": lambda name: stats[name].self_time * 1e3,
        "calls": lambda name: stats[name].calls,
        "items": lambda name: stats[name].items,
        "calls_from": lambda pair: stats[pair[1]].parents[pair[0]],
    }
    metrics = {
        name: {"value": sources[source](key) / attempted, "unit": UNITS[source]}
        for name, source, key in LAYER_METRICS
    }
    startup = getattr(workload, "startup", {})
    for name, key in STARTUP_METRICS.items():
        values = startup.get(key)
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": "ms"}
    metrics["trace.ops_per_s"] = {"value": rate(latencies), "unit": "1/s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "effvec" / "__init__.py").is_file():
        print(f"error: no effvec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    try:
        if args.setup_only:
            workload.build(args.seed, workdir)
            print("ready", flush=True)
            return 0
        # Build: cache bytecode, as an install would, before any probe times a
        # fresh start; every process then loads it, whatever its settings.
        for directory in (ROOT / "src" / "effvec", BENCH):
            compileall.compile_dir(directory, maxlevels=0, quiet=1)

        setup_s = None if args.trace else measure_setup(args)
        pool = workload.build(args.seed, workdir)
        run, after_round, tracer = workload.run, None, None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            inner = getattr(workload, "run_in_process", workload.run)
            run = functools.partial(tracer.span, f"op.{args.workload}", inner)
            after_round = getattr(workload, "measure_startup", None)
        latencies, attempted, failed = timed_loop(workload, pool, run, args.seconds, after_round)
        if not latencies:
            print("error: every operation failed; no figure to report", file=sys.stderr)
            return 1
        if tracer is not None:
            tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}.tsv")
            metrics = per_layer(workload, tracer, latencies, attempted)
        else:
            metrics = end_to_end(workload, latencies, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
