"""Deterministic fixture generation."""

import pytest

from effvec import generate, is_consistent
from effvec.generators import KINDS
from effvec.matrices import ReciprocalMatrix


class TestGenerate:
    def test_deterministic(self):
        for kind in KINDS:
            assert generate(kind, 5, seed=9) == generate(kind, 5, seed=9)

    def test_seeds_differ(self):
        assert generate("random", 5, seed=1) != generate("random", 5, seed=2)

    def test_all_kinds_valid_matrices(self):
        for kind in KINDS:
            for seed in range(5):
                a = generate(kind, 4, seed=seed)
                assert isinstance(a, ReciprocalMatrix) and a.n == 4

    def test_consistent_kind(self):
        for seed in range(10):
            assert is_consistent(generate("consistent", 6, seed=seed))

    def test_perturbed_kinds_inconsistent(self):
        for kind in ("simple", "double", "column"):
            for seed in range(10):
                assert not is_consistent(generate(kind, 5, seed=seed))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            generate("weird", 4)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            generate("random", 1)
        with pytest.raises(ValueError):
            generate("simple", 2)

    def test_column_kind_limit(self):
        # One distinct off-unit palette value per disturbed entry: 54 of them.
        assert generate("column", 55, seed=0).n == 55
        for n in (56, 150):
            with pytest.raises(ValueError, match=r"kind 'column' needs n <= 55"):
                generate("column", n)
