"""Ranking candidates: columns, geometric means, spectral vectors."""

import random
from fractions import Fraction

import pytest

from effvec import (
    CapExceededError,
    ConvergenceError,
    HamiltonianCycle,
    column_vector,
    columns_common_cone,
    consistent_matrix,
    efficiency_cone,
    generate,
    is_efficient,
    normalize,
    perron_vector,
    proportional,
    singular_vector,
    weighted_geometric,
)
from helpers import fractions, matrix_of


class TestColumnVector:
    def test_every_column_efficient(self, circulant4, perturbed5, double4):
        for a in (circulant4, perturbed5, double4):
            for k in range(a.n):
                c = column_vector(a, k)
                assert c.certificate.efficient and c.exact
                assert c.vector == normalize(a.column(k))

    def test_one_based_label(self, circulant4):
        assert column_vector(circulant4, 0).method == "column-1"
        assert column_vector(circulant4, 3).method == "column-4"


class TestWeightedGeometric:
    def test_circulant_equal_weights_exact(self, circulant4):
        c = weighted_geometric(circulant4)
        assert c.vector == fractions(1, 1, 1, 1)
        assert c.exact and c.certificate.efficient

    def test_consistent_recovers_ray(self, consistent3):
        c = weighted_geometric(consistent3)
        assert c.exact
        assert proportional(c.vector, consistent3.column(0))

    def test_indicator_weights_give_column(self, perturbed5):
        weights = fractions(0, 0, 1, 0, 0)
        c = weighted_geometric(perturbed5, weights)
        assert c.exact
        assert proportional(c.vector, perturbed5.column(2))

    def test_weight_validation(self, consistent3):
        with pytest.raises(ValueError):
            weighted_geometric(consistent3, fractions(1, 1, 1))
        with pytest.raises(ValueError):
            weighted_geometric(consistent3, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
        with pytest.raises(ValueError):
            weighted_geometric(consistent3, fractions("1/2", "1/2"))

    def test_exact_on_squared_entries(self):
        # Entrywise squares make every half-half radicand a perfect square.
        rng = random.Random(41)
        half = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
        for seed in range(25):
            a = generate("random", 4, seed=seed)
            b = matrix_of([[x * x for x in row] for row in a.entries])
            c = weighted_geometric(b, half)
            assert c.exact
            assert c.certificate.efficient

    def test_efficient_at_two_tolerances(self):
        # Rationalized means certify efficient; failures must not increase
        # as the tolerance shrinks.
        failures = {}
        for exponent in (4, 12):
            tolerance = Fraction(1, 10**exponent)
            count = 0
            for seed in range(60):
                a = generate("random", 5, seed=seed)
                c = weighted_geometric(a, tolerance=tolerance)
                count += 0 if c.certificate.efficient else 1
            failures[exponent] = count
        assert failures[12] <= failures[4]
        assert failures[12] == 0

    def test_tolerance_below_float_range(self, circulant4):
        # 10**-400 turns into 0.0 as a float; the digit count comes from
        # its integer denominator instead.
        tolerance = Fraction(1, 10**400)
        for a in (circulant4, generate("random", 5, seed=1)):
            c = weighted_geometric(a, tolerance=tolerance)
            assert c.method == "weighted-geometric"
            assert c.certificate == is_efficient(a, c.vector)
        # The inexact components sit on the grid of 402 decimals.
        assert not c.exact
        assert max(v.denominator for v in c.vector) == 10**402

    def test_weight_denominators_bounded(self):
        # A lcm of q = 1000 still gives a candidate; near 10**9 the q-th
        # roots are refused before any power is taken.
        a = generate("random", 4, seed=0)
        c = weighted_geometric(a, weights=fractions("1/1000", "1/1000", "1/1000", "997/1000"))
        assert c.certificate == is_efficient(a, c.vector)
        with pytest.raises(CapExceededError, match="weighted geometric mean refused"):
            weighted_geometric(a, weights=fractions("1/997", "1/991", "1/983", "968288310/971230541"))


def _large_ratio_matrix(exponent: int):
    big = Fraction(10**exponent)
    return matrix_of([[1, big, 2], [1 / big, 1, 3], [Fraction(1, 2), Fraction(1, 3), 1]])


class TestLargeRatios:
    @pytest.mark.parametrize("exponent", [25, 400])
    def test_geometric_components_stay_positive(self, exponent):
        # The middle component is about 10**(-2 * exponent / 3), far below the
        # default 10**-14 grid of the approximate root.
        a = _large_ratio_matrix(exponent)
        c = weighted_geometric(a)
        assert all(v > 0 for v in c.vector)
        assert not c.exact
        assert c.certificate == is_efficient(a, c.vector)

    def test_spectral_beyond_float_range_is_a_value_error(self):
        a = _large_ratio_matrix(400)
        for method in (perron_vector, singular_vector):
            with pytest.raises(ValueError, match="float range"):
                method(a)


class TestSpectral:
    def test_circulant_exact_fixed_point(self, circulant4):
        for candidate in (perron_vector(circulant4), singular_vector(circulant4)):
            assert candidate.vector == fractions(1, 1, 1, 1)
            assert candidate.residual == 0
            assert candidate.certificate.efficient

    def test_consistent_shortcut_is_exact(self, consistent3):
        for candidate in (perron_vector(consistent3), singular_vector(consistent3)):
            assert candidate.exact
            assert candidate.residual == 0
            assert proportional(candidate.vector, consistent3.column(0))
            assert candidate.certificate.efficient

    def test_residual_reported_and_small(self):
        for seed in range(10):
            a = generate("random", 4, seed=seed)
            for candidate in (perron_vector(a), singular_vector(a)):
                assert candidate.residual is not None
                assert candidate.residual < Fraction(1, 10**6)
                assert not candidate.exact or candidate.residual == 0

    def test_convergence_cap(self):
        # |lambda_2| / lambda_1 = 1 - 6e-9: MAX_ITERATIONS steps cannot reach 1e-12.
        with pytest.raises(ConvergenceError):
            perron_vector(_large_ratio_matrix(25), tolerance=Fraction(1, 10**12))

    def test_status_recorded_on_random_sweep(self):
        # No general efficiency guarantee; the call must still certify.
        for seed in range(15):
            a = generate("random", 4, seed=seed)
            candidate = perron_vector(a)
            assert candidate.certificate.efficient in (True, False)


class TestColumnsCommonCone:
    def test_circulant_subunit_cycle(self, circulant4):
        cycle = columns_common_cone(circulant4)
        assert cycle == HamiltonianCycle.from_vertices((0, 3, 2, 1))

    def test_consistent_any_cycle(self, consistent3):
        cycle = columns_common_cone(consistent3)
        assert cycle is not None
        cone = efficiency_cone(consistent3, cycle)
        for k in range(3):
            assert cone.contains(consistent3.column(k))

    def test_double4_first_cycle(self, double4):
        cycle = columns_common_cone(double4)
        assert cycle == HamiltonianCycle.from_vertices((0, 1, 2, 3))

    def test_combinations_efficient_when_cone_found(self, circulant4, double4):
        rng = random.Random(43)
        for a in (circulant4, double4):
            cycle = columns_common_cone(a)
            assert cycle is not None
            for _ in range(100):
                coeffs = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(a.n)]
                if not any(coeffs):
                    coeffs[0] = Fraction(1)
                combo = tuple(
                    sum(c * a.column(k)[i] for k, c in enumerate(coeffs))
                    for i in range(a.n)
                )
                assert is_efficient(a, combo).efficient
