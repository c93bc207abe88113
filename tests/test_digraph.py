"""Dominance digraphs, strong connectivity, Hamiltonian cycles, certificates."""

from fractions import Fraction

import pytest

import effvec.digraph
from effvec import (
    HamiltonianCycle,
    build_digraph,
    exhaustive_hamiltonian,
    find_hamiltonian_cycle,
    generate,
    is_efficient,
    random_weight_vector,
    strongly_connected,
)
from helpers import fractions, kosaraju_reference, semicomplete_digraphs

import random


class TestHamiltonianCycle:
    def test_canonical_rotation(self):
        c = HamiltonianCycle.from_vertices((2, 0, 1))
        assert c.order == (0, 1, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            HamiltonianCycle.from_vertices((0, 0, 1))

    def test_edges_close_the_loop(self):
        c = HamiltonianCycle.from_vertices((0, 3, 2, 1))
        assert c.edges() == ((0, 3), (3, 2), (2, 1), (1, 0))


class TestBuildDigraph:
    def test_edges_for_ones_vector(self, circulant4):
        g = build_digraph(circulant4, fractions(1, 1, 1, 1))
        expected = {(0, 2), (2, 0), (0, 3), (1, 0), (1, 3), (3, 1), (2, 1), (3, 2)}
        actual = {
            (i, j) for i in range(4) for j in range(4) if i != j and g.has_edge(i, j)
        }
        assert actual == expected

    def test_always_semicomplete(self):
        rng = random.Random(11)
        for seed in range(25):
            a = generate("random", rng.randint(3, 6), seed=seed)
            w = random_weight_vector(rng, a.n)
            g = build_digraph(a, w)
            assert all(
                g.has_edge(i, j) or g.has_edge(j, i)
                for i in range(a.n)
                for j in range(i + 1, a.n)
            )

    def test_boundary_gives_both_edges(self):
        a = generate("consistent", 3, seed=0)
        w = a.column(0)
        g = build_digraph(a, w)
        assert all(g.has_edge(i, j) for i in range(3) for j in range(3) if i != j)


def _reachable(g, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in range(g.n):
            if v not in seen and v != u and g.has_edge(u, v):
                seen.add(v)
                stack.append(v)
    return seen


class TestStrongConnectivity:
    def test_matches_reachability_oracle(self):
        rng = random.Random(5)
        for seed in range(60):
            a = generate("random", rng.randint(3, 6), seed=seed)
            w = random_weight_vector(rng, a.n)
            g = build_digraph(a, w)
            strong, components = strongly_connected(g)
            oracle = all(len(_reachable(g, s)) == g.n for s in range(g.n))
            assert strong == oracle
            assert sorted(v for comp in components for v in comp) == list(range(g.n))

    def test_components_in_topological_order(self):
        rng = random.Random(6)
        for seed in range(40):
            a = generate("random", rng.randint(3, 6), seed=seed)
            w = random_weight_vector(rng, a.n)
            g = build_digraph(a, w)
            _, components = strongly_connected(g)
            position = {}
            for k, comp in enumerate(components):
                for v in comp:
                    position[v] = k
            for i in range(g.n):
                for j in range(g.n):
                    if i != j and g.has_edge(i, j):
                        assert position[i] <= position[j]


    def test_matches_kosaraju_on_every_semicomplete_digraph_up_to_five(self):
        # The score scan must return the graph search's components, in the
        # same topological order, ties (2-cycles) included.
        counted = 0
        for n in (2, 3, 4, 5):
            for g in semicomplete_digraphs(n):
                assert strongly_connected(g) == kosaraju_reference(g)
                counted += 1
        assert counted == 3 + 3**3 + 3**6 + 3**10

    def test_dominance_digraphs_match_kosaraju(self):
        rng = random.Random(8)
        for seed in range(30):
            a = generate("random", rng.randint(3, 40), seed=seed)
            for w in (random_weight_vector(rng, a.n), a.column(rng.randrange(a.n))):
                g = build_digraph(a, w)
                assert strongly_connected(g) == kosaraju_reference(g)


class TestFindHamiltonianCycle:
    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(7)
        for seed in range(120):
            a = generate("random", rng.randint(3, 6), seed=seed)
            w = random_weight_vector(rng, a.n)
            g = build_digraph(a, w)
            strong, _ = strongly_connected(g)
            brute = exhaustive_hamiltonian(g)
            assert strong == (brute is not None)
            if strong:
                fast = find_hamiltonian_cycle(g)
                assert fast is not None
                assert all(g.has_edge(i, j) for i, j in fast.edges())

    def test_rejects_non_strong_input(self, double4):
        w = fractions(2, 4, 5, 4)
        g = build_digraph(double4, w)
        with pytest.raises(ValueError):
            find_hamiltonian_cycle(g)

    def test_every_semicomplete_digraph_up_to_four(self):
        # The construction runs no SCC pass of its own: it must return a
        # valid cycle on every strong digraph and raise on every other one.
        # Each pair is an edge one way, the other way, or both ways.
        seen = {True: 0, False: 0}
        for n in (2, 3, 4):
            for g in semicomplete_digraphs(n):
                strong, _ = strongly_connected(g)
                seen[strong] += 1
                if strong:
                    cycle = find_hamiltonian_cycle(g)
                    assert cycle.n == n
                    assert all(g.has_edge(i, j) for i, j in cycle.edges())
                else:
                    with pytest.raises(ValueError):
                        find_hamiltonian_cycle(g)
        assert seen[True] + seen[False] == 3 + 27 + 729
        assert seen[True] > 0 and seen[False] > 0

    def test_polynomial_on_adversarial_order(self):
        # A single consistent ray gives a digraph with exactly one cycle
        # through n vertices; insertion must still find it fast.
        n = 9
        w = tuple(Fraction(2) ** k for k in range(n))
        from effvec import consistent_matrix

        a = consistent_matrix(w)
        g = build_digraph(a, w)
        cycle = find_hamiltonian_cycle(g)
        assert cycle is not None
        assert all(g.has_edge(i, j) for i, j in cycle.edges())


class TestIsEfficient:
    def test_circulant_columns(self, circulant4):
        for k in range(4):
            cert = is_efficient(circulant4, circulant4.column(k))
            assert cert.efficient and cert.cycle is not None and cert.cut is None

    def test_circulant_certificate_cycle(self, circulant4):
        cert = is_efficient(circulant4, fractions(1, "1/2", "1/4", "1/8"))
        assert cert.efficient
        assert cert.cycle == HamiltonianCycle.from_vertices((0, 3, 2, 1))

    def test_double_blend_inefficient_with_cut(self, double4):
        cert = is_efficient(double4, fractions(2, 4, 5, 4))
        assert not cert.efficient and cert.cycle is None
        assert cert.cut == (2,)
        g = build_digraph(double4, fractions(2, 4, 5, 4))
        outside = [v for v in range(4) if v not in cert.cut]
        for u in cert.cut:
            for v in outside:
                assert not g.has_edge(v, u)

    def test_consistent_only_ray(self, consistent3):
        assert is_efficient(consistent3, consistent3.column(0)).efficient
        assert not is_efficient(consistent3, fractions(1, 1, 1)).efficient

    def test_rejects_wrong_length(self, consistent3):
        with pytest.raises(ValueError):
            is_efficient(consistent3, fractions(1, 1, 1, 1))

    def test_one_scc_pass_per_certificate(self, monkeypatch, circulant4, double4):
        calls = []

        def counting(g):
            calls.append(g)
            return strongly_connected(g)

        monkeypatch.setattr(effvec.digraph, "strongly_connected", counting)
        cases = [(circulant4, circulant4.column(0), True), (double4, fractions(2, 4, 5, 4), False)]
        for a, w, efficient in cases:
            calls.clear()
            assert is_efficient(a, w).efficient is efficient
            assert len(calls) == 1


class TestExhaustiveOracle:
    def test_refuses_large_n(self):
        a = generate("random", 9, seed=0)
        g = build_digraph(a, random_weight_vector(random.Random(0), 9))
        with pytest.raises(ValueError):
            exhaustive_hamiltonian(g)

    def test_finds_unique_cycle(self, consistent3):
        w = consistent3.column(0)
        g = build_digraph(consistent3, w)
        brute = exhaustive_hamiltonian(g)
        assert brute is not None
        # Boundary vector: every pair has both edges, any rotation works.
        assert sorted(brute.order) == [0, 1, 2]

    def test_limit_dimension(self):
        a = generate("consistent", 8, seed=3)
        g = build_digraph(a, a.column(0))
        brute = exhaustive_hamiltonian(g)
        assert brute is not None and len(brute.order) == 8
