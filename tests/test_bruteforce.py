"""Independent oracles: residual-domination probes and dominator search."""

import random
from fractions import Fraction

import pytest

from effvec import (
    dominance_search,
    generate,
    improve,
    is_efficient,
    probe,
    random_weight_vector,
)
from effvec.generators import KINDS
from helpers import fractions, matrix_of


class TestProbe:
    def test_strict_domination(self, consistent3):
        # The exact ray beats any off-ray vector everywhere it differs.
        base = fractions(1, 1, 1)
        better = consistent3.column(0)
        result = probe(consistent3, base, better)
        assert result.dominates
        assert result.weak and result.strict_positions

    def test_proportional_never_dominates(self, circulant4):
        w = fractions(1, 2, 3, 4)
        result = probe(circulant4, w, tuple(x * 5 for x in w))
        assert result.proportional and not result.dominates

    def test_worse_candidate_rejected(self, consistent3):
        result = probe(consistent3, consistent3.column(0), fractions(1, 1, 1))
        assert not result.dominates
        assert not result.weak

    def test_tie_without_strict_improvement(self):
        a = matrix_of([[1, 1], [1, 1]])
        result = probe(a, fractions(1, 1), fractions(1, 1))
        assert result.weak and not result.strict_positions and not result.dominates


class TestDominanceSearch:
    def test_no_dominator_for_efficient(self):
        rng = random.Random(51)
        checked = 0
        for seed in range(40):
            n = rng.randint(3, 5)
            a = generate("random", n, seed=seed)
            for k in range(n):
                w = a.column(k)
                assert is_efficient(a, w).efficient
                assert dominance_search(a, w) is None
                checked += 1
        assert checked >= 120

    def test_dominator_found_for_inefficient(self, consistent3):
        w = fractions(1, 1, 1)
        assert not is_efficient(consistent3, w).efficient
        assert dominance_search(consistent3, w) is not None
        rng = random.Random(52)
        found = tried = 0
        for seed in range(60):
            n = rng.randint(3, 5)
            a = generate("random", n, seed=seed)
            w = random_weight_vector(rng, n)
            if is_efficient(a, w).efficient:
                continue
            tried += 1
            dominator = dominance_search(a, w)
            assert dominator is not None
            assert probe(a, w, dominator).dominates
            found += 1
        assert tried >= 20 and found == tried

    def test_found_dominators_validate_exactly(self):
        rng = random.Random(53)
        for seed in range(30):
            n = rng.randint(3, 6)
            a = generate("random", n, seed=seed)
            w = random_weight_vector(rng, n)
            dominator = dominance_search(a, w)
            if dominator is not None:
                assert probe(a, w, dominator).dominates
                assert not is_efficient(a, w).efficient

    def test_refuses_above_exhaustive_limit(self):
        a = generate("random", 9, seed=0)
        with pytest.raises(ValueError, match="n <= 8"):
            dominance_search(a, a.column(0))


class TestImprove:
    @pytest.mark.parametrize("kind", KINDS)
    def test_efficient_dominator_agrees_with_oracle(self, kind):
        # improve leaves efficient vectors alone and turns every other one
        # into an efficient dominator; the subset oracle finds a dominator
        # exactly when the certificate says inefficient.
        rng = random.Random(54)
        efficient_seen = inefficient_seen = 0
        for n in range(3, 9):
            for seed in range(3):
                a = generate(kind, n, seed=seed)
                vectors = [a.column(rng.randrange(n))]
                vectors += [random_weight_vector(rng, n) for _ in range(2)]
                for w in vectors:
                    efficient = is_efficient(a, w).efficient
                    assert (dominance_search(a, w) is None) == efficient
                    better = improve(a, w)
                    if efficient:
                        assert better is None
                        efficient_seen += 1
                        continue
                    inefficient_seen += 1
                    assert is_efficient(a, better).efficient
                    assert probe(a, w, better).dominates
        assert efficient_seen and inefficient_seen

    def test_one_round_on_double4(self, double4):
        # The cut is vertex 2 (0-based) alone; its tightest factor is
        # max(2*2/5, 4/5, 4/5) = 4/5, and one round is already efficient.
        w = fractions(2, 4, 5, 4)
        assert is_efficient(double4, w).cut == (2,)
        better = improve(double4, w)
        assert better == fractions(2, 4, 4, 4)
        assert is_efficient(double4, better).efficient
        assert probe(double4, w, better).dominates
