"""Reciprocal matrices, weight vectors, and monomial similarity."""

from fractions import Fraction

import pytest

from effvec import (
    MonomialTransform,
    ReciprocalMatrix,
    as_weight_vector,
    consistent_matrix,
    efficiency_cone,
    enumerate_cycles,
    is_consistent,
    min_reversal_vector,
    monomial_similarity,
    normalize,
    proportional,
    transform_vector,
)
from helpers import fractions, matrix_of


class TestWeightVectors:
    def test_coerces_mixed_literals(self):
        assert as_weight_vector([1, "1/2", 0.25]) == fractions(1, "1/2", "1/4")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            as_weight_vector([1, 0])
        with pytest.raises(ValueError):
            as_weight_vector([1, -2])

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            as_weight_vector([1])

    def test_normalize_first_component(self):
        assert normalize(fractions(2, 4, 1)) == fractions(1, 2, "1/2")

    def test_proportional(self):
        assert proportional(fractions(1, 2), fractions(3, 6))
        assert not proportional(fractions(1, 2), fractions(1, 3))


class TestReciprocalMatrix:
    def test_validates_reciprocity(self):
        message = r"^entries \(0,1\) and \(1,0\) are not reciprocal$"
        for a01, a10 in ((2, 3), (2, Fraction(1, 3)), (Fraction(2, 3), Fraction(3, 4))):
            with pytest.raises(ValueError, match=message):
                matrix_of([[1, a01], [a10, 1]])

    def test_validates_diagonal(self):
        for diagonal in (2, Fraction(1, 2)):
            with pytest.raises(ValueError, match=r"^diagonal entry \(0,0\) must equal 1$"):
                matrix_of([[diagonal, 2], [Fraction(1, 2), 1]])

    def test_validates_square(self):
        with pytest.raises(ValueError):
            ReciprocalMatrix(((Fraction(1), Fraction(2)),))

    def test_validates_positive(self):
        with pytest.raises(ValueError):
            matrix_of([[1, -2], [Fraction(-1, 2), 1]])

    def test_fraction_subclass_entries_become_plain(self):
        # Rays and minimum-reversal vectors reuse column-0 entries, so a
        # subclass kept in the matrix would leak into them.
        class F(Fraction):
            pass

        rows = [[1, 2, Fraction(1, 3)], [Fraction(1, 2), 1, 5], [3, Fraction(1, 5), 1]]
        a = ReciprocalMatrix(tuple(tuple(F(x) for x in row) for row in rows))
        assert a == matrix_of(rows)
        assert all(type(x) is Fraction for row in a.entries for x in row)
        below, unit = enumerate_cycles(a)
        assert len(below) == 1 and not unit
        for cycle in below:
            assert all(type(x) is Fraction for ray in efficiency_cone(a, cycle).extremes for x in ray)
            assert all(type(x) is Fraction for x in min_reversal_vector(a, cycle)[0])

    def test_column(self, circulant4):
        assert circulant4.column(0) == fractions(1, "1/2", 1, 2)

    def test_consistent_matrix_round_trip(self):
        w = fractions(1, "1/2", "1/3")
        a = consistent_matrix(w)
        assert is_consistent(a)
        assert normalize(a.column(0)) == w

    def test_circulant_not_consistent(self, circulant4):
        assert not is_consistent(circulant4)

    def test_consistency_needs_all_triples(self):
        a = matrix_of([[1, 1, 1, 1], [1, 1, 2, 1], [1, Fraction(1, 2), 1, 1], [1, 1, 1, 1]])
        assert not is_consistent(a)


class TestMonomialSimilarity:
    def test_identity(self, circulant4):
        t = MonomialTransform(scale=fractions(1, 1, 1, 1), perm=(0, 1, 2, 3))
        assert monomial_similarity(circulant4, t) == circulant4

    def test_inverse_round_trip(self, circulant4):
        t = MonomialTransform(scale=fractions(1, 2, "1/3", 5), perm=(2, 0, 3, 1))
        image = monomial_similarity(circulant4, t)
        back = MonomialTransform(scale=fractions("1/2", "1/5", 1, 3), perm=(1, 3, 0, 2))
        assert monomial_similarity(image, back) == circulant4

    def test_preserves_reciprocity_and_consistency(self):
        a = consistent_matrix(fractions(1, 3, "1/2"))
        t = MonomialTransform(scale=fractions(2, 1, "1/4"), perm=(1, 2, 0))
        assert is_consistent(monomial_similarity(a, t))

    def test_vector_transform_tracks_matrix(self, circulant4):
        # Scaled and relabeled residuals coincide entrywise, so ratios of the
        # transformed vector must match the transformed matrix exactly.
        t = MonomialTransform(scale=fractions(1, "1/2", 4, 3), perm=(3, 1, 0, 2))
        w = fractions(1, 2, 3, 4)
        image = monomial_similarity(circulant4, t)
        v = transform_vector(w, t)
        for i in range(4):
            for j in range(4):
                pi, pj = t.perm[i], t.perm[j]
                lhs = circulant4.entries[i][j] - w[i] / w[j]
                rhs = (image.entries[pi][pj] - v[pi] / v[pj]) * (t.scale[j] / t.scale[i])
                assert lhs == rhs
