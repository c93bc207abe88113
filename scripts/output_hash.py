"""Hash the exact outputs of the core API and of the CLI on fixed corpora.

Run from the repository root:  PYTHONPATH=src python3 scripts/output_hash.py

Prints two lines, each with a number of results and the SHA-256 of their
canonical text.  Two checkouts that print the same hashes give identical
outputs on the corpora, so a refactor can be checked against its parent
commit.

The first corpus uses only core calls whose signatures and return shapes
are stable: ``decompose`` (cones and unit cycles, in order),
``min_reversal_vector`` for every cone, ``efficiency_cone`` and
``count_reversals`` (on the cone's ray) for every unit cycle,
``membership`` on random vectors and on columns, ``is_efficient`` up to
n = 150, ``columns_common_cone``, ``detect_column_perturbed`` and
``convexity_report``.

The second corpus runs ``effvec.cli.main`` in-process: every subcommand, in
text and JSON, on small ``generate`` matrices, with every option of
``decompose``, ``reversals`` and ``perturbed`` and the error paths (a
missing file, flag validation, the cycle cap, a matrix that is not
column-perturbed).  A result is the exit code, stdout and stderr, with the
temporary directory replaced by a fixed token.  ``rank`` runs only on
consistent matrices, whose candidates are all exact, so the hash does not
depend on the floating-point build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

import effvec.cli

from effvec import (
    columns_common_cone,
    convexity_report,
    count_reversals,
    decompose,
    detect_column_perturbed,
    efficiency_cone,
    generate,
    is_efficient,
    membership,
    min_reversal_vector,
    random_weight_vector,
)
from effvec.generators import KINDS


def _cycle(cycle) -> str:
    return "-" if cycle is None else ",".join(map(str, cycle.order))


def _vec(v) -> str:
    return " ".join(str(x) for x in v)


def corpus():
    rng = random.Random(2024)
    for n in (3, 4, 5, 6, 7):
        for kind in KINDS:
            for seed in range(6 if n < 7 else 2):
                a = generate(kind, n, seed=seed)
                tag = f"{kind} n={n} seed={seed}"
                d = decompose(a)
                yield f"{tag} ray {_vec(d.ray) if d.ray else '-'}"
                for cone in d.cones:
                    extremes = " | ".join(_vec(e) for e in cone.extremes)
                    yield f"{tag} cone {_cycle(cone.cycle)} {cone.product} {cone.singleton} {extremes}"
                yield f"{tag} unit " + " ".join(_cycle(c) for c in d.unit_cycles)
                for cone in d.cones:
                    vec, along = min_reversal_vector(a, cone.cycle)
                    yield f"{tag} min-reversal {_cycle(cone.cycle)} {_vec(vec)} {along}"
                for cycle in d.unit_cycles:
                    cone = efficiency_cone(a, cycle)
                    extremes = " | ".join(_vec(e) for e in cone.extremes)
                    yield (
                        f"{tag} unit-cone {_cycle(cycle)} {cone.product} {cone.singleton} "
                        f"{extremes}"
                    )
                    report = count_reversals(a, cone.extremes[0], cycle)
                    yield (
                        f"{tag} unit-reversals {_cycle(cycle)} {report.pairs} "
                        f"{report.along_cycle}"
                    )
                for k in range(n):
                    yield f"{tag} column {k} {_cycle(membership(d, a.column(k)))}"
                for _ in range(10):
                    w = random_weight_vector(rng, n)
                    yield f"{tag} member {_vec(w)} {_cycle(membership(d, w))}"
                yield f"{tag} common {_cycle(columns_common_cone(a))}"
                form = detect_column_perturbed(a)
                if form is not None:
                    yield (
                        f"{tag} perturbed {form.canonical.entries} {form.transform} "
                        f"{form.index} {form.candidates} {form.pairs}"
                    )
                report = convexity_report(d)
                yield (
                    f"{tag} convexity {report.verdict} {report.reason} {report.witness} "
                    f"{report.shared_edges}"
                )
    for n in (3, 5, 10, 30, 60, 100, 150):
        for seed in range(3):
            a = generate("random", n, seed=seed)
            vectors = [a.column(k) for k in range(0, n, max(1, n // 4))]
            vectors += [random_weight_vector(rng, n) for _ in range(4)]
            for w in vectors:
                cert = is_efficient(a, w)
                yield f"certify n={n} seed={seed} {cert.efficient} {_cycle(cert.cycle)} {cert.cut}"


def _run_cli(argv: list[str], tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = effvec.cli.main(argv)
    text = f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}"
    return text.replace(tmp, "<tmp>")


def cli_corpus():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        bad = root / "bad.txt"
        bad.write_text("3\n1 2\n")
        for kind in KINDS:
            for n in (3, 5):
                for seed in (0, 1):
                    m = str(root / f"{kind}-{n}-{seed}.txt")
                    yield _run_cli(["generate", kind, str(n), "--seed", str(seed), "--out", m], tmp)
                    ones = root / f"ones-{n}.txt"
                    ones.write_text(" ".join(["1"] * n) + "\n")
                    ramp = root / f"ramp-{n}.json"
                    ramp.write_text("[" + ", ".join(f'"{k + 1}/{n}"' for k in range(n)) + "]")
                    forward = ",".join(str(k) for k in range(1, n + 1))
                    backward = ",".join(["1"] + [str(k) for k in range(n, 1, -1)])
                    runs = [["check", m, str(w)] for w in (ones, ramp)]
                    runs += [
                        ["decompose", m, *opts]
                        for opts in ([], ["--summary"], ["--convexity"], ["--summary", "--convexity"])
                    ]
                    runs += [
                        ["reversals", m, str(ramp)],
                        ["reversals", m, str(ones), "--cycle", backward],
                        ["reversals", m, "--minimize", "--cycle", forward],
                        ["reversals", m, "--minimize", "--cycle", backward],
                    ]
                    runs += [["perturbed", action, m] for action in ("classify", "canonicalize", "eff-set")]
                    if kind == "consistent":
                        runs += [["rank", m], ["rank", m, "--weights", ",".join(["1/" + str(n)] * n)]]
                    for argv in runs:
                        yield _run_cli(argv, tmp)
                        yield _run_cli(["--json", *argv], tmp)
        m = str(root / "random-5-0.txt")
        for kind in KINDS:
            yield _run_cli(["generate", kind, "4", "--seed", "3"], tmp)
            yield _run_cli(["generate", kind, "4", "--seed", "3", "--json"], tmp)
        errors = [
            ["check", str(root / "missing.txt"), m],
            ["check", str(bad), m],
            ["decompose", m, "--cap", "4"],
            ["decompose", m, "--cap", "2"],
            ["rank", m, "--tolerance", "0"],
            ["rank", m, "--tolerance", "abc"],
            ["rank", m, "--weights", "1/2,1/2"],
            ["rank", m, "--weights", "1/0,1,1,1,1"],
            ["reversals", m],
            ["reversals", m, "--minimize"],
            ["reversals", m, str(root / "ones-5.txt"), "--cycle", "1,2"],
            ["perturbed", "eff-set", m],
            ["generate", "simple", "2"],
        ]
        for argv in errors:
            yield _run_cli(argv, tmp)
            yield _run_cli(["--json", *argv], tmp)
        yield _run_cli(["self-check", "--trials", "8", "--seed", "2"], tmp)


def _digest(lines) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        digest.update(line.encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


def main() -> None:
    print("%d results, sha256 %s" % _digest(corpus()))
    print("cli %d results, sha256 %s" % _digest(cli_corpus()))


if __name__ == "__main__":
    main()
