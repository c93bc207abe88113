"""Order reversals: classification, counting, minimum-reversal vectors."""

import random
from fractions import Fraction

import pytest

from effvec import (
    HamiltonianCycle,
    count_reversals,
    cycle_product,
    enumerate_cycles,
    generate,
    is_efficient,
    min_reversal_vector,
)
from effvec.reversals import STRICT_FLIP, TIE_BROKEN, TIE_FORCED
from helpers import count_reversals_reference, fractions, identity_cycle, matrix_of


class TestCountReversals:
    def test_kinds(self):
        a = matrix_of([[1, 2, 1], [Fraction(1, 2), 1, 3], [1, Fraction(1, 3), 1]])
        # a_12 = 2 says w1 > w2; w = (1, 2, 1) contradicts it strictly.
        report = count_reversals(a, fractions(1, 2, 1))
        assert (0, 1, STRICT_FLIP) in report.pairs
        # a_13 = 1 says w1 = w3; w = (1, 2, 2) breaks the tie.
        report = count_reversals(a, fractions(1, 2, 2))
        assert (0, 2, TIE_BROKEN) in report.pairs
        # a_23 = 3 says w2 > w3; w = (1, 2, 2) forces a tie.
        assert (1, 2, TIE_FORCED) in report.pairs

    def test_no_reversals_on_matching_order(self):
        a = matrix_of([[1, 2, 4], [Fraction(1, 2), 1, 2], [Fraction(1, 4), Fraction(1, 2), 1]])
        assert count_reversals(a, fractions(4, 2, 1)).count == 0

    def test_ones_vector_on_circulant(self, circulant4):
        report = count_reversals(circulant4, fractions(1, 1, 1, 1))
        assert report.count == 4
        assert all(kind == TIE_FORCED for _, _, kind in report.pairs)

    def test_along_cycle_restriction(self, circulant4):
        w = circulant4.column(0)
        cycle = HamiltonianCycle.from_vertices((0, 3, 2, 1))
        report = count_reversals(circulant4, w, cycle=cycle)
        assert report.along_cycle is not None
        assert report.along_cycle <= report.count

    def test_along_cycle_counts_each_pair_once_at_n2(self):
        # At n = 2 the cycle 1 -> 2 -> 1 has two edges on one pair.
        a = matrix_of([[1, 2], [Fraction(1, 2), 1]])
        w = fractions(1, 1)
        cycle = HamiltonianCycle.from_vertices((1, 0))
        report = count_reversals(a, w, cycle=cycle)
        assert (report.count, report.along_cycle) == (1, 1)
        assert (report.pairs, report.along_cycle) == count_reversals_reference(a, w, cycle)

    def test_pairs_sorted_and_unique(self, double4):
        report = count_reversals(double4, fractions(1, 2, 1, 2))
        pairs = [(i, j) for i, j, _ in report.pairs]
        assert pairs == sorted(set(pairs))
        assert all(i < j for i, j in pairs)


class TestMinReversalVector:
    def test_circulant_subunit_cycle(self, circulant4):
        cycle = HamiltonianCycle.from_vertices((0, 3, 2, 1))
        vec, along = min_reversal_vector(circulant4, cycle)
        assert vec == fractions(1, "1/2", "1/4", "1/8")
        assert along == 1
        assert is_efficient(circulant4, vec).efficient

    def test_zero_criterion_unit_product(self, consistent3):
        # Product 1: chain vector meets every comparison exactly.
        vec, along = min_reversal_vector(consistent3, identity_cycle(3))
        assert along == 0
        assert count_reversals(consistent3, vec).count == 0

    def test_zero_criterion_entry_above_one(self):
        a = matrix_of(
            [
                [1, 3, 1, 1],
                [Fraction(1, 3), 1, Fraction(1, 4), 1],
                [1, 4, 1, Fraction(1, 8)],
                [1, 1, 8, 1],
            ]
        )
        cycle = identity_cycle(4)
        product = cycle_product(a, cycle)
        assert product < 1
        assert any(a.entries[i][j] > 1 for i, j in cycle.edges())
        vec, along = min_reversal_vector(a, cycle)
        assert along == 0
        assert is_efficient(a, vec).efficient

    def test_exactly_one_otherwise(self):
        a = matrix_of(
            [
                [1, Fraction(1, 2), 1, 2],
                [2, 1, Fraction(1, 3), 1],
                [1, 3, 1, Fraction(1, 2)],
                [Fraction(1, 2), 1, 2, 1],
            ]
        )
        cycle = identity_cycle(4)
        assert cycle_product(a, cycle) < 1
        assert all(a.entries[i][j] <= 1 for i, j in cycle.edges())
        vec, along = min_reversal_vector(a, cycle)
        assert along == 1
        assert is_efficient(a, vec).efficient

    def test_product_above_one_rejected(self, circulant4):
        with pytest.raises(ValueError):
            min_reversal_vector(circulant4, identity_cycle(4))

    def test_sweep_all_subunit_cycles(self):
        rng = random.Random(31)
        for seed in range(20):
            n = rng.randint(3, 5)
            a = generate("random", n, seed=seed)
            below, unit = enumerate_cycles(a)
            for cycle in below + unit:
                vec, along = min_reversal_vector(a, cycle)
                product = cycle_product(a, cycle)
                has_above = any(a.entries[i][j] > 1 for i, j in cycle.edges())
                expected = 0 if (has_above or product == 1) else 1
                assert along == expected
                assert is_efficient(a, vec).efficient
                full = count_reversals(a, vec, cycle=cycle)
                assert full.along_cycle == along
