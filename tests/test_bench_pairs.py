"""The summary and the BENCH file of scripts/bench_pairs.py, on synthetic
runs, and its export of a revision from a throwaway git repository."""

import importlib.util
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def _run(seed, side, ops, latency, failed=0):
    return {
        "workload": "rank",
        "seed": seed,
        "side": side,
        "result": {
            "correct": True,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "ops_per_s": {"value": ops, "unit": "1/s"},
                "latency_p50_ms": {"value": latency, "unit": "ms"},
            },
        },
    }


def _synthetic():
    # Parent ops 10..19, change twice as fast except on seed 3; latency mirrors.
    runs = []
    for seed in range(10):
        parent = 10.0 + seed
        change = 2 * parent if seed != 3 else parent - 1
        runs.append(_run(seed, "parent", parent, 1000 / parent, failed=1 if seed == 0 else 0))
        runs.append(_run(seed, "change", change, 1000 / change))
    return runs


def test_medians_quartiles_and_ratio():
    summary = bench_pairs.summarize(_synthetic(), METRICS)["rank"]
    ops = summary["ops_per_s"]
    assert ops["parent_median"] == 14.5
    # statistics.quantiles (exclusive) of 10..19: ranks 2.75 and 8.25 of 10.
    assert ops["parent_quartiles"] == [11.75, 17.25]
    change = sorted(2 * (10.0 + s) if s != 3 else 12.0 for s in range(10))
    assert ops["change_median"] == (change[4] + change[5]) / 2
    assert ops["ratio"] == round(ops["change_median"] / 14.5, 3)
    assert ops["bound"] == 0.25
    assert ops["pairs"] == 10


def test_pairs_won_follow_direction():
    summary = bench_pairs.summarize(_synthetic(), METRICS)["rank"]
    assert summary["ops_per_s"]["change_better_pairs"] == 9
    assert summary["latency_p50_ms"]["change_better_pairs"] == 9


def test_failures_and_correct_runs():
    runs = _synthetic()
    runs.append({"workload": "rank", "seed": 10, "side": "change", "result": {"correct": False, "error": "boom"}})
    summary = bench_pairs.summarize(runs, METRICS)["rank"]
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["correct_runs"] == {"parent": 10, "change": 10}
    # The crashed run has no partner and no metrics: the pair count stays 10.
    assert summary["ops_per_s"]["pairs"] == 10


@pytest.mark.parametrize("count", [1, 3])
def test_few_runs(count):
    runs = [r for r in _synthetic() if r["seed"] < count]
    ops = bench_pairs.summarize(runs, METRICS)["rank"]["ops_per_s"]
    assert ops["pairs"] == count
    assert len(ops["parent_quartiles"]) == 2


def test_confirm_key_keeps_the_rest_of_the_file(tmp_path):
    path = tmp_path / "BENCH.json"
    main = {"what": "ten pairs", "host": "h", "summary": {"rank": {}}, "runs": [1, 2]}
    bench_pairs.record(path, main)
    assert json.loads(path.read_text()) == main
    for runs in ([3], [3, 4]):
        confirm = {"what": "confirm pairs", "host": "h", "summary": {}, "runs": runs}
        bench_pairs.record(path, confirm, "confirm")
        assert json.loads(path.read_text()) == {**main, "confirm": confirm}


def test_confirm_key_needs_an_existing_file(tmp_path):
    args = ["HEAD~1", "--key", "confirm", "--out"]
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(args + [str(tmp_path / "missing.json")])
    path = tmp_path / "BENCH.json"
    path.write_text("{}")
    assert bench_pairs.parse_args(args + [str(path)]).key == "confirm"
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["HEAD~1", "--key", "other", "--out", str(path)])


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_export_unpacks_the_committed_tree(tmp_path, monkeypatch):
    # The suite turns warnings into errors, so an extraction that warns
    # (tarfile without a filter, from Python 3.12 on) fails here.
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "top.txt").write_text("committed\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")
    (repo / "top.txt").write_text("not committed\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = bench_pairs.export("HEAD", tmp_path / "out")
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["pkg", "pkg/mod.py", "top.txt"]
    assert (out / "top.txt").read_text() == "committed\n"
    assert not (tmp_path / "out.tar").exists()


def test_export_refuses_a_link_out_of_the_tree(tmp_path, monkeypatch):
    # The "data" filter refuses a member that points outside the export.
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "escape").symlink_to("/etc/hostname")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "link")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    with pytest.raises(tarfile.FilterError):
        bench_pairs.export("HEAD", tmp_path / "out")
