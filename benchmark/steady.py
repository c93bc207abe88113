"""Steadiness of the benchmark: run each workload k times, one seed each.

    python3 benchmark/steady.py --runs 10 --workload certify --workload cli

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the minimum, the maximum
and the spread: the distance between the quartiles as a share of the
median.  With end-to-end metrics the spread is set against the metric's
bound from BENCHMARK.json: "steady" below a third of it, "within" up to
it, "WIDE" beyond it.  It also prints each run's share of failed
operations.  Seeds run from 1 to k, one run after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """One run's result and its wall time in seconds, set-up included."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def summarize(workload: str, results: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = [f"{workload}: {len(results)} runs"]
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    lines.append(f"  correct {correct}; failed share {shares}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = ""
        if name in bounds:
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
            verdict = f"  bound {bound:.2f} {verdict}"
        lines.append(
            f"  {name:40s} median {med:12.4f} {unit:9s} q1 {q1:12.4f} q3 {q3:12.4f} "
            f"min {min(values):12.4f} max {max(values):12.4f} spread {spread:7.2%}{verdict}"
        )
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            result, wall = run_once(workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(
                f"{workload} seed {seed}: wall {wall:.1f} s attempted {result['attempted']} "
                f"failed {result['failed']} {values}"[:400],
                flush=True,
            )
        print("\n".join(summarize(workload, results, bounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
