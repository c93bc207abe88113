"""Dominance digraphs, strong connectivity, Hamiltonian cycles, certificates."""

import collections
import itertools
from fractions import Fraction

import pytest

import effvec.digraph
from effvec import (
    DominanceDigraph,
    EfficiencyCertificate,
    HamiltonianCycle,
    ReciprocalMatrix,
    build_digraph,
    common_digraph,
    consistent_matrix,
    exhaustive_hamiltonian,
    generate,
    improve,
    is_efficient,
    random_weight_vector,
)
from effvec.generators import KINDS
from helpers import (
    common_digraph_reference,
    cone_contains_reference,
    edge_reference,
    fractions,
    kosaraju_reference,
    semicomplete_digraphs,
    semicomplete_matrix,
)

import random


class TestHamiltonianCycle:
    def test_canonical_rotation(self):
        c = HamiltonianCycle.from_vertices((2, 0, 1))
        assert c.order == (0, 1, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            HamiltonianCycle.from_vertices((0, 0, 1))

    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1, 3), (1, 0, 2), (0,)])
    def test_public_constructor_checks(self, order):
        # The walker's private constructor skips these checks; this one may not.
        with pytest.raises(ValueError):
            HamiltonianCycle(order)

    def test_unchecked_equals_checked(self):
        order = (0, 2, 3, 1)
        fast = HamiltonianCycle._unchecked(order)
        assert fast == HamiltonianCycle(order)
        assert hash(fast) == hash(HamiltonianCycle(order))
        assert fast.edges() == HamiltonianCycle(order).edges()

    def test_edges_close_the_loop(self):
        c = HamiltonianCycle.from_vertices((0, 3, 2, 1))
        assert c.edges() == ((0, 3), (3, 2), (2, 1), (1, 0))


class TestDominanceDigraph:
    @pytest.mark.parametrize(
        "adjacency",
        [
            # Empty 3-vertex digraph: path insertion would drop vertices.
            ((False,) * 3,) * 3,
            ((True, False), (False, True)),
            ((True, True), (True,)),
            ((True, True, True), (True, True, True)),
        ],
    )
    def test_public_constructor_refuses(self, adjacency):
        with pytest.raises(ValueError):
            DominanceDigraph(adjacency)

    def test_built_digraphs_pass_the_check(self):
        rng = random.Random(3)
        for seed in range(10):
            a = generate("random", rng.randint(2, 12), seed=seed)
            g = build_digraph(a, random_weight_vector(rng, a.n))
            assert DominanceDigraph(g.adjacency) == g


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


@pytest.mark.parametrize("kind", KINDS)
def test_cycles_and_shared_edges_equal_fraction_references(kind):
    rng = random.Random(kind)
    for n in range(3, 7):
        cycles = [HamiltonianCycle((0,) + rest) for rest in itertools.permutations(range(1, n))]
        for seed in range(3):
            a = generate(kind, n, seed=seed)
            vectors = [random_weight_vector(rng, n) for _ in range(20)]
            for w in vectors:
                g = build_digraph(a, w)
                for cycle in cycles:
                    assert g.has_cycle(cycle) == cone_contains_reference(a, cycle, w)
            columns = [a.column(k) for k in range(n)]
            for group in (vectors, vectors[:1], columns, []):
                assert common_digraph(a, group) == common_digraph_reference(a, group)


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
    # The verdict and the cut of ``is_efficient`` against graph searches
    # over the full table.
    def test_matches_reachability_oracle(self):
        rng = random.Random(5)
        for seed in range(60):
            a = generate("random", rng.randint(3, 6), seed=seed)
            w = random_weight_vector(rng, a.n)
            g = build_digraph(a, w)
            cert = is_efficient(a, w)
            oracle = all(len(_reachable(g, s)) == g.n for s in range(g.n))
            assert cert.efficient == oracle
            if not oracle:
                # The source component: it reaches every vertex, and no
                # vertex outside it reaches into it.
                cut = set(cert.cut)
                assert all(len(_reachable(g, u)) == g.n for u in cut)
                assert all(not _reachable(g, v) & cut for v in range(g.n) if v not in cut)

    def test_components_in_topological_order(self):
        # The cut is the first component: every pair between it and the
        # rest has only the edge leaving it.
        rng = random.Random(6)
        cuts = 0
        for seed in range(40):
            a = generate("random", rng.randint(3, 6), seed=seed)
            w = random_weight_vector(rng, a.n)
            g = build_digraph(a, w)
            cert = is_efficient(a, w)
            if cert.efficient:
                continue
            cuts += 1
            outside = [j for j in range(g.n) if j not in cert.cut]
            for i in cert.cut:
                for j in outside:
                    assert g.has_edge(i, j) and not g.has_edge(j, i)
        assert cuts

    def test_matches_kosaraju_on_every_semicomplete_digraph_up_to_five(self):
        # The runs of the insertion path must give the graph search's
        # verdict and first component, ties (2-cycles) included, and the
        # cycle must use only the digraph's edges.
        counted = 0
        for n in (2, 3, 4, 5):
            ones = (Fraction(1),) * n
            for g in semicomplete_digraphs(n):
                cert = is_efficient(semicomplete_matrix(g), ones)
                strong, components = kosaraju_reference(g)
                assert cert.efficient == strong
                if strong:
                    assert g.has_cycle(cert.cycle)
                else:
                    assert cert.cut == components[0]
                counted += 1
        assert counted == 3 + 3**3 + 3**6 + 3**10

    def test_dominance_digraphs_match_kosaraju(self):
        rng = random.Random(8)
        for seed in range(30):
            a = generate("random", rng.randint(3, 40), seed=seed)
            for w in (random_weight_vector(rng, a.n), a.column(rng.randrange(a.n))):
                check_reference_certificate(a, w, is_efficient(a, w))


class TestFindHamiltonianCycle:
    # The cycle of ``is_efficient`` against the exhaustive search.
    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(7)
        for seed in range(120):
            a = generate("random", rng.randint(3, 6), seed=seed)
            w = random_weight_vector(rng, a.n)
            g = build_digraph(a, w)
            cert = is_efficient(a, w)
            brute = exhaustive_hamiltonian(g)
            assert cert.efficient == (brute is not None)
            if cert.efficient:
                assert g.has_cycle(cert.cycle)

    def test_rejects_non_strong_input(self, double4):
        w = fractions(2, 4, 5, 4)
        cert = is_efficient(double4, w)
        assert cert.cycle is None and cert.cut is not None
        assert exhaustive_hamiltonian(build_digraph(double4, w)) is None

    def test_every_semicomplete_digraph_up_to_four(self):
        # A valid cycle on every strong digraph, and none on every other
        # one, as the exhaustive search finds.
        # Each pair is an edge one way, the other way, or both ways.
        seen = {True: 0, False: 0}
        for n in (2, 3, 4):
            for g in semicomplete_digraphs(n):
                cert = is_efficient(semicomplete_matrix(g), (Fraction(1),) * n)
                assert cert.efficient == (exhaustive_hamiltonian(g) is not None)
                seen[cert.efficient] += 1
                if cert.efficient:
                    assert g.has_cycle(cert.cycle)
                else:
                    assert cert.cycle is None
        assert seen[True] + seen[False] == 3 + 27 + 729
        assert seen[True] > 0 and seen[False] > 0

    def test_polynomial_on_adversarial_order(self):
        # A single consistent ray gives a digraph with exactly one cycle
        # through n vertices; insertion must still find it fast.
        n = 9
        w = tuple(Fraction(2) ** k for k in range(n))
        a = consistent_matrix(w)
        cycle = is_efficient(a, w).cycle
        assert cycle is not None
        assert build_digraph(a, w).has_cycle(cycle)


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
        # The single component pass is the run scan over the insertion path;
        # a one-vertex cut is found by the candidate sweep and needs none.
        calls = []
        component_ends = effvec.digraph._component_ends

        def counting(edge, path):
            calls.append(path)
            return component_ends(edge, path)

        monkeypatch.setattr(effvec.digraph, "_component_ends", counting)
        cases = [
            (circulant4, circulant4.column(0), None, 1),
            (double4, fractions(2, 4, 5, 4), (2,), 0),
            (circulant4, fractions(1, 3, 1, 3), (1, 3), 1),
        ]
        for a, w, cut, passes in cases:
            calls.clear()
            assert is_efficient(a, w).cut == cut
            assert len(calls) == passes


def column_perturbed(rng: random.Random, n: int):
    """A consistent matrix with one whole column disturbed, at any n
    (``generate`` draws distinct factors, so stops at n = 55)."""
    base = consistent_matrix(random_weight_vector(rng, n))
    rows = [list(row) for row in base.entries]
    c = rng.randrange(n)
    off_unit = [Fraction(p, q) for p in range(1, 10) for q in range(1, 10) if p != q]
    for i in range(n):
        if i != c:
            rows[i][c] *= rng.choice(off_unit)
            rows[c][i] = 1 / rows[i][c]
    return ReciprocalMatrix(tuple(map(tuple, rows)))


def vector_kinds(rng: random.Random, a):
    """(kind, vector, closed) for the five vector kinds; ``closed`` is the
    subset no edge enters, for the subset-scaled kind, else None."""
    n = a.n
    column = a.column(rng.randrange(n))
    yield "column", column, None
    yield "palette", random_weight_vector(rng, n), None
    yield "float", tuple(Fraction(float(x) * rng.uniform(0.5, 2.0)) for x in column), None
    subset = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
    # Entries and palette ratios stay below 2**20, so no edge enters the subset.
    scaled = tuple(x * 2**40 if i in subset else x for i, x in enumerate(random_weight_vector(rng, n)))
    yield "scaled", scaled, subset
    yield "noisy", tuple(x * Fraction(rng.randint(90, 110), 100) for x in column), None


def check_reference_certificate(a, w, cert: EfficiencyCertificate) -> None:
    """Check a certificate against the full table, with every pair compared:
    the verdict and the cut from a general graph search, and each edge of
    the cycle read from the table."""
    g = build_digraph(a, w)
    strong, components = kosaraju_reference(g)
    assert cert.efficient == strong
    if strong:
        assert cert.cut is None and g.has_cycle(cert.cycle)
    else:
        assert cert.cycle is None and cert.cut == components[0]


def noisy_column_150():
    """A +-10% noisy column vector on a column-perturbed n = 150 matrix: the
    input whose cycle growth repeats the most edge queries."""
    rng = random.Random(150)
    a = column_perturbed(rng, 150)
    column = a.column(rng.randrange(150))
    return a, tuple(x * Fraction(rng.randint(90, 110), 100) for x in column)


def certify_counting_reads(a, w):
    """``is_efficient(a, w)`` and a Counter of its reads of the numerator
    table, by (row, column); each comparison of a pair reads both entries."""
    reads = collections.Counter()

    class CountedRow(tuple):
        def __getitem__(self, j):
            reads[self.i, j] += 1
            return tuple.__getitem__(self, j)

    rows = []
    for i, row in enumerate(a._numerators):
        rows.append(CountedRow(row))
        rows[-1].i = i
    counted = ReciprocalMatrix(a.entries)
    object.__setattr__(counted, "_numerators", tuple(rows))
    return is_efficient(counted, w), reads


class TestEdgeOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_table_reference(self, kind):
        rng = random.Random(f"oracle:{kind}")
        seen = {True: 0, False: 0}
        for seed, n in enumerate((3, 4, 5, 6, 7, 9, 12, 16, 20, 27, 33, 40)):
            a = generate(kind, n, seed=seed)
            for vector, w, closed in vector_kinds(rng, a):
                cert = is_efficient(a, w)
                check_reference_certificate(a, w, cert)
                seen[cert.efficient] += 1
                if closed is not None:
                    assert not cert.efficient and set(cert.cut) <= closed
        assert seen[True] and seen[False]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_table_reference_at_150(self, kind):
        rng = random.Random(f"oracle-150:{kind}")
        a = column_perturbed(rng, 150) if kind == "column" else generate(kind, 150, seed=1)
        for vector, w, closed in vector_kinds(rng, a):
            cert = is_efficient(a, w)
            check_reference_certificate(a, w, cert)
            if closed is not None:
                assert not cert.efficient and set(cert.cut) <= closed

    def test_builds_no_digraph(self, monkeypatch, double4):
        cases = [(double4, double4.column(1)), (double4, fractions(2, 4, 5, 4))]

        def refuse(*args):
            raise AssertionError("is_efficient built a digraph")

        monkeypatch.setattr(effvec.digraph, "build_digraph", refuse)
        monkeypatch.setattr(effvec.digraph.DominanceDigraph, "_unchecked", refuse)
        certs = [is_efficient(a, w) for a, w in cases]
        monkeypatch.undo()
        assert [c.efficient for c in certs] == [True, False]
        for (a, w), cert in zip(cases, certs):
            check_reference_certificate(a, w, cert)

    def test_each_pair_compared_at_most_once(self):
        # Every comparison of the pair (i, j), by the edge test or inline in
        # the scan, reads the numerator table at (i, j) and at (j, i) once.
        # Counting those reads counts the products wherever they are made.
        a, w = noisy_column_150()
        reads = collections.Counter()

        class CountedRow(tuple):
            def __getitem__(self, j):
                reads[self.i, j] += 1
                return tuple.__getitem__(self, j)

        rows = []
        for i, row in enumerate(a._numerators):
            rows.append(CountedRow(row))
            rows[-1].i = i
        counted = ReciprocalMatrix(a.entries)
        object.__setattr__(counted, "_numerators", tuple(rows))
        cert = is_efficient(counted, w)
        check_reference_certificate(a, w, cert)
        assert set(reads.values()) == {1}
        assert all((j, i) in reads for i, j in reads)
        assert len(reads) // 2 <= 150 * 149 // 2

    @pytest.mark.parametrize("k", [0, 1, 74, 148, 149])
    def test_one_vertex_cut_reads_linear_pairs(self, monkeypatch, k):
        # A vertex scaled far above the rest is a one-vertex cut; the sweep
        # certifies it from at most 2n - 3 pairs and builds no path.
        rng = random.Random(f"one-vertex:{k}")
        a = column_perturbed(rng, 150)
        w = tuple(x * 2**40 if i == k else x for i, x in enumerate(random_weight_vector(rng, 150)))

        def refuse(*args):
            raise AssertionError("is_efficient built the insertion path")

        monkeypatch.setattr(effvec.digraph, "_hamiltonian_path", refuse)
        cert, reads = certify_counting_reads(a, w)
        monkeypatch.undo()
        assert cert.cut == (k,)
        check_reference_certificate(a, w, cert)
        assert set(reads.values()) == {1}
        assert len(reads) // 2 <= 2 * 150 - 3

    def test_each_pair_compared_at_most_once_after_sweep(self):
        # Subset-scaled vectors whose cut is not one vertex: the sweep's
        # pairs are read again by the path, from the table.
        rng = random.Random("pair-once-scaled")
        a = generate("random", 150, seed=1)
        cuts = 0
        for size in (2, 40, 149):
            subset = frozenset(rng.sample(range(150), size))
            w = tuple(x * 2**40 if i in subset else x for i, x in enumerate(random_weight_vector(rng, 150)))
            cert, reads = certify_counting_reads(a, w)
            check_reference_certificate(a, w, cert)
            assert set(cert.cut) <= subset
            cuts += len(cert.cut) > 1
            assert set(reads.values()) == {1}
            assert all((j, i) in reads for i, j in reads)
        assert cuts

    @pytest.mark.parametrize("kind", ["consistent", "double", "chosen"])
    def test_ties_match_full_table_reference(self, kind):
        # Tied pairs carry both edges; the scan must record both, as the
        # Fraction test w_i >= a_ij * w_j does.
        rng = random.Random(f"ties:{kind}")
        tied = 0
        for seed, n in enumerate((3, 4, 5, 6, 7, 9, 12, 20, 33)):
            if kind == "consistent":
                a = consistent_matrix(random_weight_vector(rng, n))
                vectors = [a.column(k) for k in range(n)]
            elif kind == "double":
                a = generate("double", n, seed=seed)
                vectors = [a.column(k) for k in range(n)]
            else:
                a = generate("random", n, seed=seed)
                vectors = [tied_vector(rng, a) for _ in range(6)]
            for w in vectors:
                adjacency = tuple(tuple(edge_reference(a, w, i, j) for j in range(n)) for i in range(n))
                tied += sum(adjacency[i][j] and adjacency[j][i] for j in range(n) for i in range(j))
                assert build_digraph(a, w).adjacency == adjacency
                check_reference_certificate(a, w, is_efficient(a, w))
        assert tied


def tied_vector(rng: random.Random, a):
    """A vector that ties on randomly chosen pairs: each vertex in a random
    order either takes w_i = a_ij * w_j for an earlier vertex j or a random
    palette value."""
    order = rng.sample(range(a.n), a.n)
    w = [None] * a.n
    w[order[0]] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    for k, i in enumerate(order[1:], 1):
        if rng.random() < 0.7:
            j = order[rng.randrange(k)]
            w[i] = a.entries[i][j] * w[j]
        else:
            w[i] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return tuple(w)


def improve_reference(a, w):
    """``improve`` with the scale factor as the Fraction max over the
    crossing pairs."""
    vec = tuple(w)
    certificate = is_efficient(a, vec)
    if certificate.efficient:
        return None
    e = a.entries
    while not certificate.efficient:
        inside = set(certificate.cut)
        outside = [j for j in range(a.n) if j not in inside]
        factor = max(e[i][j] * vec[j] / vec[i] for i in inside for j in outside)
        vec = tuple(v * factor if t in inside else v for t, v in enumerate(vec))
        certificate = is_efficient(a, vec)
    return vec


def test_improve_matches_fraction_max():
    # Palette and subset-scaled vectors on a column-perturbed n = 150
    # matrix take tens of rounds.
    rng = random.Random("improve-150")
    a = column_perturbed(rng, 150)
    vectors = {kind: w for kind, w, _ in vector_kinds(rng, a) if kind in ("palette", "scaled")}
    for kind, w in vectors.items():
        better = improve(a, w)
        assert better is not None and better == improve_reference(a, w), kind
        assert all(type(x) is Fraction for x in better)


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
