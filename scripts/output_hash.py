"""Hash the exact outputs of the core API on a fixed corpus.

Run from the repository root:  PYTHONPATH=src python3 scripts/output_hash.py

Prints the number of results and the SHA-256 of their canonical text.  Two
checkouts that print the same hash give identical outputs on the corpus, so
a refactor of the exact core can be checked against its parent commit.  The
corpus uses only calls whose signatures and return shapes are stable:
``decompose`` (cones and unit cycles, in order), ``min_reversal_vector``
for every cone, ``efficiency_cone`` and ``count_reversals`` (on the cone's
ray) for every unit cycle, ``membership`` on random vectors and on columns,
``is_efficient`` up to n = 150, ``columns_common_cone``,
``detect_column_perturbed`` and ``convexity_report``.
"""

from __future__ import annotations

import hashlib
import random

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
                report = convexity_report(d, samples=200, seed=seed)
                yield f"{tag} convexity {report.verdict} {report.reason} {report.witness}"
    for n in (3, 5, 10, 30, 60, 100, 150):
        for seed in range(3):
            a = generate("random", n, seed=seed)
            vectors = [a.column(k) for k in range(0, n, max(1, n // 4))]
            vectors += [random_weight_vector(rng, n) for _ in range(4)]
            for w in vectors:
                cert = is_efficient(a, w)
                yield f"certify n={n} seed={seed} {cert.efficient} {_cycle(cert.cycle)} {cert.cut}"


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for line in corpus():
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{count} results, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
