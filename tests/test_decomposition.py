"""Cone decomposition of the efficient set and convexity reports."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

import effvec.cones
from effvec import (
    CapExceededError,
    Decomposition,
    EfficiencyCone,
    HamiltonianCycle,
    consistent_matrix,
    convexity_report,
    cycle_product,
    decompose,
    enumerate_cycles,
    generate,
    is_efficient,
    membership,
    normalize,
    proportional,
    random_weight_vector,
)
from effvec import decomposition
from effvec.decomposition import _walk
from helpers import check_convexity_report, convexity_draws_reference, fractions


class TestAllCycles:
    """The walk over every edge, as ``enumerate_cycles`` runs it."""

    @staticmethod
    def walk_all(n):
        return [order for order, _, _ in _walk([[1] * n] * n, [[True] * n] * n)]

    def test_count_is_factorial_of_n_minus_one(self):
        assert len(self.walk_all(4)) == 6
        assert len(self.walk_all(5)) == 24

    def test_every_cycle_anchored_distinct(self):
        orders = self.walk_all(5)
        assert len(set(orders)) == len(orders)
        assert all(order[0] == 0 for order in orders)
        assert all(HamiltonianCycle(order).order == order for order in orders)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_cycles(generate("random", 11, seed=0), cap=10)
        assert len(self.walk_all(8)) == 5040
        below, unit = enumerate_cycles(generate("random", 8, seed=0), cap=8)
        assert len(below) + len(unit) <= 5040


class TestEnumerateCycles:
    def test_circulant_counts(self, circulant4):
        below, unit = enumerate_cycles(circulant4)
        assert len(below) == 1 and len(unit) == 4

    def test_perturbed5_counts(self, perturbed5):
        below, unit = enumerate_cycles(perturbed5)
        assert len(below) == 12
        assert unit == ()

    def test_consistent_all_unit(self, consistent3):
        below, unit = enumerate_cycles(consistent3)
        assert below == () and len(unit) == 2

    def test_split_by_product_in_enumeration_order(self, circulant4, double4):
        for a in (circulant4, double4, generate("random", 5, seed=3)):
            below, unit = enumerate_cycles(a)
            cycles = [HamiltonianCycle((0,) + rest) for rest in itertools.permutations(range(1, a.n))]
            assert [c for c in cycles if cycle_product(a, c) < 1] == list(below)
            assert [c for c in cycles if cycle_product(a, c) == 1] == list(unit)

    def test_below_cap_bound(self):
        # Half of all cycles at most, equality exactly when no unit products.
        for seed in range(12):
            for n in (3, 4, 5):
                a = generate("random", n, seed=seed)
                below, unit = enumerate_cycles(a)
                bound = __import__("math").factorial(n - 1) // 2
                assert len(below) <= bound
                if not unit:
                    assert len(below) == bound


class TestDecompose:
    def test_consistent_ray_short_circuit(self, consistent3):
        d = decompose(consistent3)
        assert d.ray == normalize(consistent3.column(0))
        assert d.cones == () and d.unit_cycles == ()

    def test_circulant_single_cone(self, circulant4):
        d = decompose(circulant4)
        assert len(d.cones) == 1 and len(d.unit_cycles) == 4
        assert d.cones[0].product == Fraction(1, 16)

    def test_double4_three_cones(self, double4):
        d = decompose(double4)
        assert [(c.cycle.order, c.product) for c in d.cones] == [
            ((0, 1, 2, 3), Fraction(1, 3)),
            ((0, 1, 3, 2), Fraction(2, 3)),
            ((0, 2, 1, 3), Fraction(1, 2)),
        ]

    def test_membership_agrees_with_certificate(self):
        rng = random.Random(21)
        for seed in range(15):
            n = rng.randint(3, 5)
            a = generate("random", n, seed=seed)
            d = decompose(a)
            for _ in range(60):
                w = random_weight_vector(rng, n)
                cycle = membership(d, w)
                assert (cycle is not None) == is_efficient(a, w).efficient

    def test_membership_on_consistent_ray(self, consistent3):
        d = decompose(consistent3)
        w = tuple(x * 3 for x in consistent3.column(0))
        cycle = membership(d, w)
        assert cycle is not None
        assert proportional(w, consistent3.column(0))
        assert membership(d, fractions(1, 1, 1)) is None

    def test_membership_builds_no_table_for_inefficient(self, monkeypatch, double4, consistent3):
        # The certificate refuses an inefficient vector before any table is built.
        cases = [(double4, fractions(2, 4, 5, 4)), (consistent3, fractions(1, 1, 1))]
        decomposed = [(decompose(a), w) for a, w in cases]

        def refuse(*args):
            raise AssertionError("membership built a digraph")

        monkeypatch.setattr(decomposition, "build_digraph", refuse)
        for d, w in decomposed:
            assert membership(d, w) is None
        # An efficient vector still walks the full table.
        with pytest.raises(AssertionError, match="built a digraph"):
            membership(decomposed[0][0], double4.column(1))

    def test_membership_rejects_wrong_length(self):
        for a in (generate("random", 4, seed=0), consistent_matrix(fractions(1, 2, 3, 4))):
            d = decompose(a)
            for n in (3, 5):
                with pytest.raises(ValueError):
                    membership(d, fractions(*[1] * n))

    def test_cap_propagates(self):
        a = generate("random", 11, seed=1)
        with pytest.raises(CapExceededError):
            decompose(a, cap=10)


class TestLazyRecords:
    """``decompose`` keeps the walk's orders and builds records on first read."""

    @staticmethod
    def eager(a):
        below, unit = enumerate_cycles(a)
        return Decomposition(a, tuple(EfficiencyCone(a, c) for c in below), unit)

    @pytest.mark.parametrize("kind,n", [("simple", 5), ("double", 5), ("random", 6), ("column", 4)])
    def test_lazy_is_the_eager_record(self, kind, n):
        a = generate(kind, n, seed=1)
        for clone in (lambda x: x, copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            lazy, eager = decompose(a), self.eager(a)
            assert lazy.cone_orders == eager.cone_orders and lazy.unit_orders == eager.unit_orders
            # Each clone reads the records of a fresh decomposition first.
            lazy = clone(lazy)
            assert type(lazy) is Decomposition
            assert lazy == eager and eager == lazy
            assert hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
            assert pickle.dumps(lazy) == pickle.dumps(eager)

    def test_records_built_once_on_first_read(self, monkeypatch, double4):
        d = decompose(double4)
        assert d.cone_orders == ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)) and d.unit_orders == ()

        def refuse(*args):
            raise AssertionError("a record was built")

        with monkeypatch.context() as patch:
            patch.setattr(decomposition, "EfficiencyCone", refuse)
            with pytest.raises(AssertionError, match="a record was built"):
                d.cones
        assert [c.cycle.order for c in d.cones] == list(d.cone_orders)
        monkeypatch.setattr(decomposition, "EfficiencyCone", refuse)
        assert d.cones is d.cones and d.unit_cycles == ()

    def test_fields_stay_closed(self, double4):
        d = decompose(double4)
        for name in ("cones", "unit_cycles", "cone_orders"):
            with pytest.raises(AttributeError):
                setattr(d, name, ())
        with pytest.raises(AttributeError, match="'Decomposition' object has no attribute 'unlisted'"):
            d.unlisted


class TestConvexityReport:
    def test_consistent_is_convex(self, consistent3):
        report = convexity_report(decompose(consistent3))
        assert report.verdict == "convex" and report.reason == "shared-edges"
        # The one ray's dominance digraph is complete.
        assert report.shared_edges == tuple((i, j) for i in range(3) for j in range(3) if i != j)
        check_convexity_report(consistent3, report)

    def test_single_cone_is_convex(self, circulant4):
        d = decompose(circulant4)
        report = convexity_report(d)
        assert report.verdict == "convex" and report.reason == "shared-edges"
        # The rays of one cone share its cycle.
        assert set(d.cones[0].cycle.edges()) <= set(report.shared_edges)
        check_convexity_report(circulant4, report)

    def test_double4_non_convex_with_witness(self, double4):
        report = convexity_report(decompose(double4))
        assert report.verdict == "non_convex" and report.reason == "witness"
        u, v, t = report.witness
        blend = tuple(t * ui + (1 - t) * vi for ui, vi in zip(u, v))
        assert is_efficient(double4, u).efficient
        assert is_efficient(double4, v).efficient
        assert not is_efficient(double4, blend).efficient

    def test_perturbed5_decided(self, perturbed5):
        # Most blends of this matrix's extremes certify efficient, yet the
        # draws find one that is not.
        report = convexity_report(decompose(perturbed5))
        assert report.verdict == "non_convex" and report.shared_edges is None
        check_convexity_report(perturbed5, report)

    @pytest.mark.parametrize("kind", ["simple", "double", "column", "random"])
    def test_generated_verdicts(self, kind):
        # Simple-perturbed matrices are convex, the other kinds are not.
        for n in (4, 5, 6, 7):
            for seed in range(5):
                a = generate(kind, n, seed=seed)
                report = convexity_report(decompose(a))
                assert report.verdict == ("convex" if kind == "simple" else "non_convex")
                check_convexity_report(a, report)

    def test_witness_of_the_whole_ray_draws(self, double4, monkeypatch):
        # Each draw builds its two rays alone, as runs of one; no cone's ray
        # list is built, and the witness is the one the draws over whole ray lists found.
        # At random n = 4, seed 4, the draws reach rays u, v for which only
        # one of t*u + (1-t)*v and (1-t)*u + t*v is efficient, so the
        # witness also pins which ray takes the weight t.
        kinds = ("double", "column", "random")
        matrices = [double4] + [generate(kind, n, seed=s) for kind in kinds for n in (4, 5, 6) for s in range(5)]
        decomposed = [decompose(a) for a in matrices]
        expected = [convexity_draws_reference(d) for d in decomposed]

        runs = []

        def single(a, order, lo, hi):
            runs.append(hi - lo + 1)
            return rays(a, order, lo, hi)

        rays = effvec.cones._rays
        for module in (effvec.cones, decomposition):
            monkeypatch.setattr(module, "_rays", single)
        for d, witness in zip(decomposed, expected):
            assert witness is not None
            report = convexity_report(d)
            assert report.verdict == "non_convex" and report.witness == witness
        assert runs and set(runs) == {1}

    def test_undecided_is_refused(self, double4, monkeypatch):
        # Without draws no witness turns up, and double4's rays share no
        # strongly connected set of edges.
        monkeypatch.setattr(decomposition, "_DRAWS", 0)
        with pytest.raises(CapExceededError, match="no witness in 0 blend draws"):
            convexity_report(decompose(double4))

    def test_deterministic_under_seed(self, double4):
        d = decompose(double4)
        first = convexity_report(d)
        second = convexity_report(d)
        assert (first.verdict, first.reason, first.witness) == (
            second.verdict,
            second.reason,
            second.witness,
        )
