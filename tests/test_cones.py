"""Efficiency cones: products, extreme rays, membership, unit-cycle repair.

Cone membership is ``build_digraph(a, w).has_cycle(cycle)``; ``in_cone``
asserts that it equals the Fraction reference each time it is asked.
"""

from fractions import Fraction

import pytest

import effvec.cones
from effvec import (
    EfficiencyCone,
    HamiltonianCycle,
    MonomialTransform,
    build_digraph,
    consistent_matrix,
    cycle_product,
    decompose,
    efficiency_cone,
    generate,
    is_efficient,
    membership,
    min_reversal_vector,
    monomial_similarity,
    resolve_unit_cycle,
)
from effvec.cones import _ray
from effvec.generators import KINDS
from helpers import (
    cone_contains_reference,
    cone_extremes_reference,
    cycles_reference,
    fractions,
    identity_cycle,
    in_cone,
    in_conic_hull,
    unit_cycle_fixture,
)


@pytest.fixture
def subunit_cycle():
    return HamiltonianCycle.from_vertices((0, 3, 2, 1))


class TestCycleProduct:
    def test_circulant_products(self, circulant4, subunit_cycle):
        assert cycle_product(circulant4, subunit_cycle) == Fraction(1, 16)
        assert cycle_product(circulant4, identity_cycle(4)) == 16

    def test_consistent_products_all_one(self, consistent3):
        for cycle in (identity_cycle(3), HamiltonianCycle.from_vertices((0, 2, 1))):
            assert cycle_product(consistent3, cycle) == 1


class TestConeExtremes:
    def test_circulant_extremes_frozen(self, circulant4, subunit_cycle):
        extremes = efficiency_cone(circulant4, subunit_cycle).extremes
        expected = {
            fractions(1, 8, 4, 2),
            fractions(1, "1/2", "1/4", "1/8"),
            fractions(1, "1/2", "1/4", 2),
            fractions(1, "1/2", 4, 2),
        }
        assert set(extremes) == expected

    def test_extremes_satisfy_all_inequalities(self, circulant4, subunit_cycle):
        cone = efficiency_cone(circulant4, subunit_cycle)
        for ext in cone.extremes:
            assert in_cone(circulant4, cone.cycle, ext)
            assert is_efficient(circulant4, ext).efficient

    def test_chain_solution_solves_omitted_system(self, circulant4, subunit_cycle):
        # Omitting edge t turns the other n-1 inequalities into equalities;
        # below product 1, extreme ray t is that solution.
        edges = subunit_cycle.edges()
        extremes = efficiency_cone(circulant4, subunit_cycle).extremes
        for omit in range(4):
            w = extremes[omit]
            for t, (i, j) in enumerate(edges):
                if t != omit:
                    assert w[i] == circulant4.entries[i][j] * w[j]

    def test_product_above_one_rejected(self, circulant4):
        with pytest.raises(ValueError):
            efficiency_cone(circulant4, identity_cycle(4))

    def test_unit_product_single_ray(self, consistent3):
        cone = efficiency_cone(consistent3, identity_cycle(3))
        assert len(cone.extremes) == 1
        assert cone.singleton

    def test_subunit_cone_has_n_distinct_extremes(self, double4):
        for order in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
            cycle = HamiltonianCycle.from_vertices(order)
            if cycle_product(double4, cycle) < 1:
                assert len(efficiency_cone(double4, cycle).extremes) == 4


class TestLazyRays:
    """A cone is its matrix and its cycle; its rays are built on first read."""

    def test_record_holds_matrix_and_cycle(self):
        assert list(EfficiencyCone._fields) == ["matrix", "cycle"]

    def test_no_ray_built_without_a_read(self, monkeypatch):
        a = generate("random", 5, seed=3)

        def refuse(*args):
            raise AssertionError("no extreme ray was asked for")

        monkeypatch.setattr(effvec.cones, "_extremes", refuse)
        d = decompose(a)
        assert [c.cycle for c in d.cones] == list(cycles_reference(a)[0])
        assert membership(d, a.column(0)) is not None
        for cone in d.cones:
            min_reversal_vector(a, cone.cycle)
        with pytest.raises(AssertionError):
            d.cones[0].extremes

    def test_rays_built_once_and_equal_reference(self):
        a = generate("random", 5, seed=3)
        for cone in decompose(a).cones:
            assert cone.extremes == cone_extremes_reference(a, cone.cycle)
            assert cone.extremes is cone.extremes
            assert cone.product < 1 and not cone.singleton


class TestSingleRay:
    """``_ray(a, order, k)`` builds entry k of a cone's extremes alone."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_ray_of_every_cone(self, kind):
        for n in range(3, 8):
            for seed in range(3):
                a = generate(kind, n, seed=seed)
                for cone in decompose(a).cones:
                    assert len(cone.extremes) == n
                    for k, ray in enumerate(cone.extremes):
                        assert _ray(a, cone.cycle.order, k) == ray

    def test_unit_cycle_ray(self, consistent3):
        # At product 1 every omitted edge gives the one ray.
        cycle = identity_cycle(3)
        (ray,) = EfficiencyCone(consistent3, cycle).extremes
        assert [_ray(consistent3, cycle.order, k) for k in range(3)] == [ray] * 3


class TestConeMembership:
    def test_interior_point(self, circulant4, subunit_cycle):
        assert in_cone(circulant4, subunit_cycle, fractions(1, 1, 1, 1))

    def test_outside_point(self, circulant4, subunit_cycle):
        assert not in_cone(circulant4, subunit_cycle, fractions(1, 16, 1, 1))

    def test_membership_equals_conic_hull(self, circulant4, subunit_cycle):
        import random

        rng = random.Random(9)
        extremes = efficiency_cone(circulant4, subunit_cycle).extremes
        for _ in range(200):
            w = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(4))
            assert in_cone(circulant4, subunit_cycle, w) == in_conic_hull(extremes, w)

    def test_conic_combinations_stay_inside(self, circulant4, subunit_cycle):
        import random

        rng = random.Random(10)
        extremes = efficiency_cone(circulant4, subunit_cycle).extremes
        for _ in range(200):
            coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 5)) for _ in extremes]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            blend = tuple(
                sum(c * e[i] for c, e in zip(coeffs, extremes)) for i in range(4)
            )
            assert in_cone(circulant4, subunit_cycle, blend)

    def test_rejects_wrong_length(self, consistent3):
        a = generate("random", 4, seed=0)
        cases = [(a, HamiltonianCycle.from_vertices((0, 2, 1, 3)), fractions(*[1] * n)) for n in (3, 5)]
        cases.append((consistent3, identity_cycle(3), fractions(1, 1, 1, 1)))
        for m, cycle, w in cases:
            with pytest.raises(ValueError):
                build_digraph(m, w)
            with pytest.raises(ValueError):
                cone_contains_reference(m, cycle, w)
        with pytest.raises(ValueError, match="cycle length 3 does not match digraph size 4"):
            build_digraph(a, fractions(1, 1, 1, 1)).has_cycle(identity_cycle(3))


class TestResolveUnitCycle:
    def check(self, a, cycle=None):
        cycle = cycle or identity_cycle(a.n)
        out = resolve_unit_cycle(a, cycle)
        entries = [a.entries[i][j] for i, j in out.edges()]
        assert all(e <= 1 for e in entries)
        assert any(e < 1 for e in entries)
        return out

    def test_consecutive_case(self):
        a = unit_cycle_fixture(4, {2: (Fraction(1, 2), 1)})
        out = self.check(a)
        assert out.order == (0, 2, 1, 3)

    def test_wrap_case_long_offset(self):
        a = unit_cycle_fixture(6, {3: (1, 2, Fraction(1, 2))})
        out = self.check(a)
        assert out.order == (0, 1, 3, 4, 2, 5)

    def test_wrap_case_even(self):
        a = unit_cycle_fixture(4, {2: (1, Fraction(1, 2))})
        out = self.check(a)
        assert out.order == (0, 1, 3, 2)

    def test_wrap_case_odd(self):
        a = unit_cycle_fixture(5, {2: (1, 2, Fraction(1, 2))})
        out = self.check(a)
        assert out.order == (0, 2, 4, 3, 1)

    def test_transposed_consecutive_case(self):
        a = unit_cycle_fixture(4, {2: (2, 1)})
        out = self.check(a)
        assert out.order == (0, 3, 1, 2)

    def test_higher_offset_scan(self):
        # First off-unit diagonal sits at offset 3.
        a = unit_cycle_fixture(6, {3: (Fraction(1, 3), 1, 1)})
        self.check(a)

    def test_relabeled_cycle(self):
        # Same structure reached through a non-identity vertex labeling.
        a = unit_cycle_fixture(5, {2: (1, 2, Fraction(1, 2))})
        t = MonomialTransform(scale=fractions(1, 1, 1, 1, 1), perm=(3, 0, 4, 1, 2))
        b = monomial_similarity(a, t)
        cycle = HamiltonianCycle.from_vertices(tuple(t.perm[v] for v in range(5)))
        assert cycle_product(b, cycle) == 1
        out = self.check(b, cycle)
        assert sorted(out.order) == [0, 1, 2, 3, 4]

    def test_scaled_cycle_entries(self):
        # Scaling moves cycle entries off 1; reject such cycles.
        a = unit_cycle_fixture(4, {2: (1, Fraction(1, 2))})
        t = MonomialTransform(scale=fractions(1, 3, 1, 1), perm=(0, 1, 2, 3))
        b = monomial_similarity(a, t)
        with pytest.raises(ValueError):
            resolve_unit_cycle(b, identity_cycle(4))

    def test_consistent_matrix_rejected(self, consistent3):
        with pytest.raises(ValueError):
            resolve_unit_cycle(consistent3, identity_cycle(3))

    def test_output_in_subunit_set(self):
        from effvec import enumerate_cycles

        a = unit_cycle_fixture(5, {2: (1, 2, Fraction(1, 2))})
        out = self.check(a)
        below, _ = enumerate_cycles(a)
        assert out in below
