"""Acceptance criteria: end-to-end checks with required runtimes.

Each test prints exactly one PASS/FAIL line (outside pytest's capture, so
the lines always reach the console) and enforces its runtime budget where
one is stated.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from effvec import (
    HamiltonianCycle,
    MonomialTransform,
    build_digraph,
    convexity_report,
    cycle_product,
    decompose,
    detect_column_perturbed,
    dominance_search,
    efficiency_cone,
    efficient_set_union,
    enumerate_cycles,
    exhaustive_hamiltonian,
    generate,
    is_efficient,
    membership,
    min_reversal_vector,
    monomial_similarity,
    normalize,
    perron_vector,
    probe,
    random_weight_vector,
    resolve_unit_cycle,
    singular_vector,
    strongly_connected,
    weighted_geometric,
)
from effvec.matrices import ReciprocalMatrix
from helpers import fractions, identity_cycle, matrix_of, unit_cycle_fixture


@contextmanager
def criterion(capfd, number: int, detail: str, limit: float | None = None):
    """Run one acceptance check, always printing a single PASS/FAIL line."""
    start = time.perf_counter()
    ok = False
    try:
        yield
        if limit is not None:
            elapsed = time.perf_counter() - start
            assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit}s budget"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(
                f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} "
                f"({elapsed:5.2f}s) {detail}",
                flush=True,
            )


def fixture_matrices():
    """Shared fixture pool: worked matrices plus generated ones (n <= 6)."""
    h = Fraction(1, 2)
    pool = [
        matrix_of([[1, 2, 1, h], [h, 1, 2, 1], [1, h, 1, 2], [2, 1, h, 1]]),
        matrix_of(
            [
                [1, Fraction(1, 5), Fraction(1, 4), 2, 3],
                [5, 1, 1, 1, 1],
                [4, 1, 1, 1, 1],
                [h, 1, 1, 1, 1],
                [Fraction(1, 3), 1, 1, 1, 1],
            ]
        ),
        matrix_of([[1, Fraction(1, 3), h, 1], [3, 1, 1, 1], [2, 1, 1, 1], [1, 1, 1, 1]]),
    ]
    for seed in range(6):
        pool.append(generate("random", 3 + seed % 4, seed=seed))
    for kind in ("consistent", "simple", "double", "column"):
        pool.append(generate(kind, 5, seed=17))
    return pool


class TestAcceptance:
    def test_01_worked_example_reproduction(self, circulant4, capfd):
        with criterion(
            capfd, 1, "worked 4x4: one cone, product 1/16, rays and rankings agree", limit=1.0
        ):
            d = decompose(circulant4)
            assert len(d.cones) == 1
            cone = d.cones[0]
            assert cone.cycle == HamiltonianCycle.from_vertices((0, 3, 2, 1))
            assert cone.product == Fraction(1, 16)

            # The emitted cone must coincide with the printed chain of
            # bounds: w1 >= (1/2)w4 >= (1/4)w3 >= (1/8)w2 >= (1/16)w1.
            def chain_region(w):
                half, quarter, eighth, sixteenth = (
                    Fraction(1, 2),
                    Fraction(1, 4),
                    Fraction(1, 8),
                    Fraction(1, 16),
                )
                return (
                    w[0] >= half * w[3]
                    and half * w[3] >= quarter * w[2]
                    and quarter * w[2] >= eighth * w[1]
                    and eighth * w[1] >= sixteenth * w[0]
                )

            rng = random.Random(101)
            for _ in range(1000):
                w = tuple(
                    Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(4)
                )
                assert cone.contains(w) == chain_region(w)

            for k in range(4):
                assert is_efficient(circulant4, circulant4.column(k)).efficient
            assert weighted_geometric(circulant4).certificate.efficient
            assert perron_vector(circulant4).certificate.efficient
            assert singular_vector(circulant4).certificate.efficient

    def test_02_five_by_five_closed_form(self, perturbed5, capfd):
        with criterion(
            capfd, 2, "5x5 column-perturbed: 12 cycles, 6 bands, triple agreement x1000", limit=5.0
        ):
            below, unit = enumerate_cycles(perturbed5)
            assert len(below) == 12
            assert unit == ()  # zero product-1 cycles

            form = detect_column_perturbed(perturbed5)
            bands = efficient_set_union(form)
            assert sorted((b.top + 1, b.bottom + 1) for b in bands) == [
                (2, 3),
                (2, 4),
                (2, 5),
                (3, 4),
                (3, 5),
                (4, 5),
            ]

            d = decompose(perturbed5)
            rng = random.Random(102)
            for _ in range(1000):
                w = tuple(
                    Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(5)
                )
                in_union = any(band.contains(w) for band in bands)
                in_cones = membership(d, w) is not None
                certified = is_efficient(perturbed5, w).efficient
                assert in_union == in_cones == certified

    def test_03_double_perturbed_non_convexity(self, double4, capfd):
        with criterion(
            capfd, 3, "double-perturbed 4x4: sum of efficient extremes is inefficient", limit=1.0
        ):
            u = fractions(1, 3, 3, 3)
            v = fractions(1, 1, 2, 1)
            blend = tuple(ui + vi for ui, vi in zip(u, v))
            assert blend == fractions(2, 4, 5, 4)
            assert is_efficient(double4, u).efficient
            assert is_efficient(double4, v).efficient
            assert not is_efficient(double4, blend).efficient

            rep = convexity_report(decompose(double4))
            assert rep.verdict == "non_convex"
            wu, wv, t = rep.witness
            wblend = tuple((1 - t) * x + t * y for x, y in zip(wu, wv))
            assert is_efficient(double4, wu).efficient
            assert is_efficient(double4, wv).efficient
            assert not is_efficient(double4, wblend).efficient

    def test_04_oracle_equivalence(self, capfd):
        with criterion(
            capfd, 4, "fast connectivity agrees with exhaustive cycle search on 1000 digraphs",
            limit=60.0,
        ):
            rng = random.Random(104)
            efficient_seen = 0
            for trial in range(1000):
                n = rng.randint(3, 7)
                a = generate("random", n, seed=rng.randrange(1 << 30))
                if trial % 2 == 0:
                    w = a.column(rng.randrange(n))
                else:
                    w = random_weight_vector(rng, n)
                g = build_digraph(a, w)
                strong, _ = strongly_connected(g)
                brute = exhaustive_hamiltonian(g)
                assert strong == (brute is not None)
                if strong:
                    efficient_seen += 1
            assert 0 < efficient_seen < 1000  # both branches well exercised

    def test_05_dominance_soundness(self, capfd):
        with criterion(
            capfd, 5, "dominance search: no false hits on 500 efficient, >=95% hits on inefficient"
        ):
            rng = random.Random(105)

            efficient_checked = 0
            seen = set()
            while efficient_checked < 500:
                n = rng.randint(3, 5)
                a = generate("random", n, seed=rng.randrange(1 << 30))
                for k in range(n):
                    w = normalize(a.column(k))
                    if (a, w) in seen:
                        continue
                    seen.add((a, w))
                    assert is_efficient(a, w).efficient
                    assert dominance_search(a, w) is None
                    efficient_checked += 1

            inefficient = dominated = 0
            while inefficient < 200:
                n = rng.randint(3, 5)
                a = generate("random", n, seed=rng.randrange(1 << 30))
                w = random_weight_vector(rng, n)
                if is_efficient(a, w).efficient:
                    continue
                inefficient += 1
                dominator = dominance_search(a, w)
                if dominator is not None:
                    assert probe(a, w, dominator).dominates
                    dominated += 1
            assert dominated >= math.ceil(0.95 * inefficient)

    def test_06_cone_structure_properties(self, capfd):
        with criterion(
            capfd, 6, "cone structure: extremes feasible, 1000+ convex combinations stay inside"
        ):
            rng = random.Random(106)
            combo_trials = 0
            for a in fixture_matrices():
                if a.n > 6:
                    continue
                below, unit = enumerate_cycles(a)
                for cycle in below + unit:
                    product = cycle_product(a, cycle)
                    cone = efficiency_cone(a, cycle)
                    assert cone.singleton == (product == 1)
                    extremes = cone.extremes
                    for ext in extremes:
                        assert cone.contains(ext)
                    if product == 1:
                        assert len(extremes) == 1
                        continue
                    assert len(extremes) == a.n
                    for _ in range(12):
                        coeffs = [
                            Fraction(rng.randint(0, 9), rng.randint(1, 6))
                            for _ in extremes
                        ]
                        if not any(coeffs):
                            coeffs[0] = Fraction(1)
                        total = sum(coeffs)
                        blend = tuple(
                            sum(c * e[i] for c, e in zip(coeffs, extremes)) / total
                            for i in range(a.n)
                        )
                        assert cone.contains(blend)
                        combo_trials += 1
            assert combo_trials >= 1000

    def test_07_min_reversal_exactness(self, capfd):
        with criterion(
            capfd, 7, "minimum-reversal construction exact on every enumerated cycle"
        ):
            checked = 0
            for a in fixture_matrices():
                if a.n > 5:
                    continue
                below, unit = enumerate_cycles(a)
                for cycle in below + unit:
                    vec, along = min_reversal_vector(a, cycle)
                    zero_possible = (
                        any(a.entries[i][j] > 1 for i, j in cycle.edges())
                        or cycle_product(a, cycle) == 1
                    )
                    assert along == (0 if zero_possible else 1)
                    assert is_efficient(a, vec).efficient
                    checked += 1
            assert checked >= 50

    def test_08_unit_cycle_resolution(self, capfd):
        with criterion(
            capfd, 8, "unit-product cycles repaired in every construction case"
        ):
            h = Fraction(1, 2)
            cases = {
                "consecutive": unit_cycle_fixture(4, {2: (h, 1)}),
                "wrap-long-offset": unit_cycle_fixture(6, {3: (1, 2, h)}),
                "wrap-even": unit_cycle_fixture(4, {2: (1, h)}),
                "wrap-odd": unit_cycle_fixture(5, {2: (1, 2, h)}),
                "transposed": unit_cycle_fixture(4, {2: (2, 1)}),
            }
            for name, a in cases.items():
                out = resolve_unit_cycle(a, identity_cycle(a.n))
                along = [a.entries[i][j] for i, j in out.edges()]
                assert all(e <= 1 for e in along), name
                assert any(e < 1 for e in along), name
                below, _ = enumerate_cycles(a)
                assert out in below, name

    def test_09_count_bounds(self, capfd):
        with criterion(
            capfd, 9, "cycle and pair counts within bounds, equality cases exact"
        ):
            for a in fixture_matrices():
                if a.n > 6:
                    continue
                below, unit = enumerate_cycles(a)
                bound = math.factorial(a.n - 1) // 2
                assert len(below) <= bound
                if not unit:  # no product-1 cycles
                    assert len(below) == bound
                form = detect_column_perturbed(a)
                if form is not None:
                    pair_bound = (a.n - 1) * (a.n - 2) // 2
                    assert len(form.pairs) <= pair_bound
                    top_row = form.canonical.entries[0][1:]
                    if len(set(top_row)) == len(top_row):
                        assert len(form.pairs) == pair_bound

    def test_10_simple_perturbed_closed_form(self, capfd):
        with criterion(
            capfd, 10, "simple-perturbed band matches certificates on 50 matrices x1000 vectors"
        ):
            rng = random.Random(110)
            for trial in range(50):
                n = rng.randint(4, 7)
                g = Fraction(rng.randint(2, 9))
                rows = [[Fraction(1)] * n for _ in range(n)]
                rows[0][n - 1] = g
                rows[n - 1][0] = 1 / g
                canonical = ReciprocalMatrix.from_rows(rows)

                def region(w):
                    return (
                        all(w[0] >= w[k] for k in range(1, n))
                        and all(w[k] >= w[n - 1] for k in range(1, n - 1))
                        and w[n - 1] >= w[0] / g
                    )

                for _ in range(1000):
                    if rng.random() < 0.5:
                        w = tuple(
                            Fraction(rng.randint(1, 10), rng.randint(1, 10))
                            for _ in range(n)
                        )
                    else:
                        # Sample near the band to exercise both sides.
                        top = Fraction(rng.randint(5, 10), 5)
                        low = top / g + Fraction(rng.randint(0, 4), 9)
                        w = (
                            (top,)
                            + tuple(
                                min(top, low + Fraction(rng.randint(0, 6), 7))
                                for _ in range(n - 2)
                            )
                            + (min(top, low),)
                        )
                    assert region(w) == is_efficient(canonical, w).efficient

                scrambled = monomial_similarity(
                    canonical,
                    MonomialTransform(
                        scale=tuple(
                            Fraction(rng.randint(1, 5), rng.randint(1, 5))
                            for _ in range(n)
                        ),
                        perm=tuple(rng.sample(range(n), n)),
                    ),
                )
                rep = convexity_report(decompose(scrambled), samples=120, seed=trial)
                assert rep.verdict != "non_convex"
