"""Column-perturbed consistent detection, canonical forms, closed-form sets."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from effvec import (
    EfficiencyBand,
    MonomialTransform,
    classify_perturbation,
    consistent_matrix,
    detect_column_perturbed,
    efficient_set_union,
    generate,
    is_consistent,
    is_efficient,
    monomial_similarity,
    random_weight_vector,
    transform_vector,
)
from effvec.perturbed import (
    COLUMN,
    CONSISTENT,
    DOUBLE,
    NOT_COLUMN_PERTURBED,
    SIMPLE,
)
from helpers import band_contains_reference, fractions, kosaraju_reference, matrix_of


class TestDetection:
    def test_canonical_input_detected_with_identity(self, perturbed5):
        form = detect_column_perturbed(perturbed5)
        assert form is not None
        assert form.index == 0
        assert form.transform == MonomialTransform(scale=fractions(1, 1, 1, 1, 1), perm=(0, 1, 2, 3, 4))
        assert form.canonical == perturbed5

    def test_double4_already_canonical(self, double4):
        form = detect_column_perturbed(double4)
        assert form.canonical == double4 and form.index == 0

    def test_not_column_perturbed(self, circulant4):
        assert detect_column_perturbed(circulant4) is None

    def test_consistent_everything_is_a_candidate(self, consistent3):
        form = detect_column_perturbed(consistent3)
        assert form.candidates == (0, 1, 2)
        assert is_consistent(form.canonical)

    def test_scrambled_matrix_canonicalizes(self, perturbed5):
        rng = random.Random(17)
        for _ in range(10):
            perm = list(range(5))
            rng.shuffle(perm)
            t = MonomialTransform(
                scale=tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(5)),
                perm=tuple(perm),
            )
            scrambled = monomial_similarity(perturbed5, t)
            form = detect_column_perturbed(scrambled)
            assert form is not None
            n = form.canonical.n
            assert all(
                form.canonical.entries[i][j] == 1
                for i in range(1, n)
                for j in range(1, n)
            )
            assert monomial_similarity(scrambled, form.transform) == form.canonical
            # Efficiency transports through the recorded transform.
            for _ in range(20):
                w = random_weight_vector(rng, 5)
                lhs = is_efficient(scrambled, w).efficient
                rhs = is_efficient(
                    form.canonical, transform_vector(w, form.transform)
                ).efficient
                assert lhs == rhs


class TestClassification:
    def test_fixture_classes(self, consistent3, double4, perturbed5, circulant4):
        assert classify_perturbation(consistent3) == CONSISTENT
        assert classify_perturbation(double4) == DOUBLE
        assert classify_perturbation(perturbed5) == COLUMN
        assert classify_perturbation(circulant4) == NOT_COLUMN_PERTURBED

    def test_simple_single_disturbed_pair(self):
        a = consistent_matrix(fractions(1, 2, 3, 4))
        rows = [list(r) for r in a.entries]
        rows[1][3] *= 5
        rows[3][1] = 1 / rows[1][3]
        b = matrix_of(rows)
        assert classify_perturbation(b) == SIMPLE

    def test_gauge_invariance_of_class(self, double4):
        # Scaling the perturbed index multiplies the first row uniformly;
        # the class must not change.
        t = MonomialTransform(scale=fractions(7, 1, 1, 1), perm=(0, 1, 2, 3))
        assert classify_perturbation(monomial_similarity(double4, t)) == DOUBLE

    def test_equal_factors_collapse_to_simple(self):
        # Two disturbances with one shared factor rescale away to one.
        a = consistent_matrix(fractions(1, 1, 1, 1))
        rows = [list(r) for r in a.entries]
        for j in (1, 2):
            rows[0][j] *= 3
            rows[j][0] = 1 / rows[0][j]
        b = matrix_of(rows)
        assert classify_perturbation(b) == SIMPLE

    def test_generated_kinds_classify(self):
        for seed in range(20):
            assert classify_perturbation(generate("consistent", 5, seed=seed)) == CONSISTENT
            assert classify_perturbation(generate("simple", 5, seed=seed)) == SIMPLE
            assert classify_perturbation(generate("double", 5, seed=seed)) == DOUBLE
            assert classify_perturbation(generate("column", 6, seed=seed)) in (
                SIMPLE,
                DOUBLE,
                COLUMN,
            )

    def test_column_class_needs_five(self):
        # Rescaling absorbs one factor, so n = 4 columns are at most double.
        for seed in range(20):
            assert classify_perturbation(generate("column", 4, seed=seed)) == DOUBLE
            assert classify_perturbation(generate("column", 5, seed=seed)) == COLUMN


class TestBands:
    def test_perturbed5_pairs_frozen(self, perturbed5):
        form = detect_column_perturbed(perturbed5)
        assert sorted(form.pairs) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_perturbed5_band_bounds_frozen(self, perturbed5):
        form = detect_column_perturbed(perturbed5)
        bands = {(b.top, b.bottom): (b.cap, b.floor) for b in efficient_set_union(form)}
        assert bands[(1, 2)] == (Fraction(5), Fraction(4))
        assert bands[(3, 4)] == (Fraction(1, 2), Fraction(1, 3))
        assert bands[(1, 4)] == (Fraction(5), Fraction(1, 3))

    def test_band_membership(self, perturbed5):
        form = detect_column_perturbed(perturbed5)
        band = EfficiencyBand(form.canonical, 1, 2)
        # 5 w1 >= w2 >= middle >= w3 >= 4 w1.
        assert band.contains(fractions(1, 5, 4, "9/2", "9/2"))
        assert not band.contains(fractions(1, 6, 4, "9/2", "9/2"))
        assert not band.contains(fractions(1, 5, 4, 2, "9/2"))

    def test_band_refuses_short_vector(self):
        band = EfficiencyBand(detect_column_perturbed(generate("column", 5, seed=0)).canonical, 1, 3)
        for short in (fractions(1, 1), fractions(1, 1, 1)):
            with pytest.raises(ValueError):
                band.contains(short)

    def test_band_refuses_long_vector(self):
        band = EfficiencyBand(detect_column_perturbed(generate("column", 5, seed=0)).canonical, 1, 3)
        with pytest.raises(ValueError):
            band.contains(fractions(*[1] * 7))

    def test_band_edges_frozen(self, perturbed5):
        band = EfficiencyBand(detect_column_perturbed(perturbed5).canonical, 1, 2)
        assert band.edges == ((0, 1), (1, 2), (2, 0), (1, 3), (3, 2), (1, 4), (4, 2))

    def test_bands_are_strong_pieces_matching_reference(self):
        # Every band's edge set is strongly connected, its edge test equals
        # the Fraction chain on random vectors and on vectors built from cap,
        # floor and ties (so >= against > shows), and the union of the bands
        # is the efficient set of the canonical matrix.
        rng = random.Random(31)
        inside = total = 0
        for kind in ("simple", "double", "column"):
            for n in range(4, 9):
                for seed in range(3):
                    form = detect_column_perturbed(generate(kind, n, seed=seed))
                    bands = efficient_set_union(form)
                    vectors = []
                    for band in bands:
                        edges = set(band.edges)
                        assert len(edges) == len(band.edges) == 2 * n - 3
                        adjacency = tuple(tuple(i == j or (i, j) in edges for j in range(n)) for i in range(n))
                        assert kosaraju_reference(SimpleNamespace(n=n, adjacency=adjacency))[0]
                        cap, floor = band.cap, band.floor
                        palette = (cap * 11 / 10, cap, (cap + floor) / 2, floor, floor * 9 / 10)
                        for t in range(60):
                            if t % 2:
                                w = random_weight_vector(rng, n)
                            else:
                                # Middles often tie with top or bottom, which sit at or near cap and floor.
                                hi, lo = rng.choice(palette), rng.choice(palette)
                                w = [rng.choice((hi, lo, (hi + lo) / 2, rng.choice(palette))) for _ in range(n)]
                                w[0], w[band.top], w[band.bottom] = Fraction(1), hi, lo
                                scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                w = tuple(scale * x for x in w)
                            got = band.contains(w)
                            assert got == band_contains_reference(band, w), (band, w)
                            inside += got
                            vectors.append(w)
                    total += len(vectors)
                    for w in vectors[:: max(1, len(vectors) // 60)]:
                        in_union = any(band.contains(w) for band in bands)
                        assert in_union == is_efficient(form.canonical, w).efficient
        assert 0 < inside < total

    def test_band_requires_ordered_pair(self, perturbed5):
        form = detect_column_perturbed(perturbed5)
        with pytest.raises(ValueError):
            EfficiencyBand(form.canonical, 2, 1)
        with pytest.raises(ValueError):
            EfficiencyBand(form.canonical, 0, 2)

    def test_union_equals_efficient_set(self, perturbed5, double4):
        rng = random.Random(23)
        for a in (perturbed5, double4):
            form = detect_column_perturbed(a)
            bands = efficient_set_union(form)
            for _ in range(400):
                w = random_weight_vector(rng, a.n)
                in_union = any(band.contains(w) for band in bands)
                assert in_union == is_efficient(a, w).efficient

    def test_pair_count_bound(self):
        # |N| <= (n-1)(n-2)/2, equality iff first-row entries are distinct.
        rng = random.Random(29)
        for seed in range(15):
            n = rng.randint(3, 6)
            a = generate("column", n, seed=seed)
            form = detect_column_perturbed(a)
            assert form is not None
            bound = (n - 1) * (n - 2) // 2
            assert len(form.pairs) <= bound
            top_row = form.canonical.entries[0][1:]
            if len(set(top_row)) == len(top_row):
                assert len(form.pairs) == bound

    def test_consistent_has_no_bands(self, consistent3):
        form = detect_column_perturbed(consistent3)
        assert form.pairs == ()
        assert efficient_set_union(form) == ()
