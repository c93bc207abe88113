"""Alternating parent/change pairs of the benchmark, summarised for a BENCH file.

Run from the repository root:

    python3 scripts/bench_pairs.py PARENT --workload rank --pairs 10 --seconds 25 --out BENCH_11.json

PARENT and ``--change`` (default HEAD) are git revisions.  Each is exported
with ``git archive`` into a temporary directory, so the runs see only
committed files and the working tree is left alone.  Pair k runs
``benchmark/run.py --seed s`` once in each export, with s = ``--first-seed``
+ k; odd seeds run the parent first, even seeds the change first.  Runs go
one at a time.  The output JSON holds ``what``, ``host``, ``summary`` and
``runs``, and is rewritten after every run, so an interrupted session keeps
the pairs it finished.  With ``--key confirm`` the same object is written
under the ``confirm`` key of the BENCH file already at ``--out``, for
pairs on seeds not used while building, and the rest of that file is kept:

    python3 scripts/bench_pairs.py PARENT --workload rank --pairs 4 --first-seed 11 --key confirm --out BENCH_11.json

For each workload and each end-to-end metric of ``BENCHMARK.json``, the
summary gives the median and quartiles of either side, the ratio of the
medians (change over parent), the number of pairs the change won and the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="git revision of the change side (default HEAD)")
    parser.add_argument(
        "--workload", action="append", help="workload to run; repeat for several (default: all in BENCHMARK.json)"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--note", default="", help="appended to the 'what' line: what the change does")
    parser.add_argument(
        "--key", choices=("confirm",), help="write under this key of the existing --out file, keeping the rest"
    )
    args = parser.parse_args(argv)
    if args.key and not args.out.is_file():
        parser.error(f"--key {args.key} needs an existing BENCH file at --out, not {args.out}")
    return args


def _rev(rev: str) -> str:
    out = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The tree of ``rev``, unpacked by ``git archive`` under ``into``."""
    into.mkdir(parents=True)
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line of one benchmark run, or a failed result with the error."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"correct": False, "error": (proc.stderr or proc.stdout)[-2000:]}
    return result


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    low, _, high = statistics.quantiles(values, n=4)
    return [round(low, 4), round(high, 4)]


def record(path: Path, result: dict, key: str | None = None) -> None:
    """Write ``result`` to ``path``; with ``key``, under that key of the JSON
    object already there, whose other keys stay as they are."""
    if key is not None:
        result = {**json.loads(path.read_text()), key: result}
    path.write_text(json.dumps(result, indent=1) + "\n")


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: failed operations, correct runs, and for every metric
    of ``metrics`` (name, better, bound) the medians, quartiles, ratio of
    medians and the pairs the change won.  A pair counts only when both of
    its runs reported the metric."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry: dict = {
            "failed": {side: sum(r["result"].get("failed", 0) for r in mine if r["side"] == side)
                       for side in ("parent", "change")},
            "correct_runs": {side: sum(r["result"].get("correct") is True for r in mine if r["side"] == side)
                             for side in ("parent", "change")},
        }
        for metric in metrics:
            name = metric["name"]
            value = {
                (r["seed"], r["side"]): r["result"]["metrics"][name]["value"]
                for r in mine
                if name in r["result"].get("metrics", {})
            }
            parent = [v for (_, side), v in value.items() if side == "parent"]
            change = [v for (_, side), v in value.items() if side == "change"]
            if not parent or not change:
                continue
            seeds = sorted({seed for seed, side in value if (seed, "parent") in value and (seed, "change") in value})
            if metric["better"] == "higher":
                won = sum(value[s, "change"] > value[s, "parent"] for s in seeds)
            else:
                won = sum(value[s, "change"] < value[s, "parent"] for s in seeds)
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            entry[name] = {
                "parent_median": round(parent_median, 4),
                "parent_quartiles": _quartiles(parent),
                "change_median": round(change_median, 4),
                "change_quartiles": _quartiles(change),
                "ratio": round(change_median / parent_median, 3) if parent_median else None,
                "change_better_pairs": won,
                "pairs": len(seeds),
                "bound": metric["bound"],
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent_rev, change_rev = _rev(args.parent), _rev(args.change)
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    what = (
        f"{args.pairs} alternating parent/change pairs per workload of benchmark/run.py "
        f"(--seconds {args.seconds:g} --trace 0, seeds {seeds[0]}-{seeds[-1]}; odd seeds run the parent first, "
        f"even seeds the change first). Parent is commit {parent_rev}, change is commit {change_rev}."
    )
    if args.note:
        what += " " + args.note
    host = f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, Python {platform.python_version()}, one run at a time"
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": export(args.parent, Path(tmp) / "parent"), "change": export(args.change, Path(tmp) / "change")}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(checkouts[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
                    print(f"{workload} seed {seed} {side}: {json.dumps(result.get('metrics', result))}", flush=True)
                    out = {"what": what, "host": host, "summary": summarize(runs, spec["end_to_end"]), "runs": runs}
                    record(args.out, out, args.key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
