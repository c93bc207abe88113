"""Property-based invariants over randomized matrices and vectors."""

import itertools
import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effvec import (
    HamiltonianCycle,
    MonomialTransform,
    build_digraph,
    consistent_matrix,
    cycle_product,
    decompose,
    efficiency_cone,
    enumerate_cycles,
    format_matrix,
    format_vector,
    generate,
    is_consistent,
    is_efficient,
    membership,
    min_reversal_vector,
    monomial_similarity,
    parse_matrix,
    parse_vector,
    probe,
    resolve_unit_cycle,
    transform_vector,
)
from effvec.generators import KINDS
from effvec.matrices import ReciprocalMatrix
from helpers import identity_cycle, in_cone

entries = st.fractions(
    min_value=Fraction(1, 9), max_value=Fraction(9), max_denominator=9
).filter(lambda f: f > 0)


@st.composite
def matrix_and_vector(draw, min_n=3, max_n=5):
    n = draw(st.integers(min_n, max_n))
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(entries, min_size=pairs, max_size=pairs))
    rows = [[Fraction(1)] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            value = next(it)
            rows[i][j] = value
            rows[j][i] = 1 / value
    w = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    return ReciprocalMatrix.from_rows(rows), w


@st.composite
def transforms(draw, n):
    scale = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    perm = tuple(draw(st.permutations(range(n))))
    return MonomialTransform(scale=scale, perm=perm)


@st.composite
def matrix_vector_transform(draw, min_n=3, max_n=5):
    a, w = draw(matrix_and_vector(min_n, max_n))
    t = draw(transforms(a.n))
    return a, w, t


@given(matrix_and_vector())
@settings(deadline=None)
def test_digraph_semicomplete(pair):
    a, w = pair
    g = build_digraph(a, w)
    for i in range(a.n):
        for j in range(i + 1, a.n):
            assert g.has_edge(i, j) or g.has_edge(j, i)


_PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
VECTOR_KINDS = ("column", "palette", "float", "subset", "coprime")


@st.composite
def generated_matrix_and_vector(draw):
    """A generator-kind matrix with n = 2..12 and a vector of one of five kinds:
    a column (ties on every edge), palette quotients p/q with p, q <= 9,
    float-derived (53-bit dyadic denominators), palette scaled up on an
    index subset, and pairwise-coprime denominators."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2 if kind in ("consistent", "random") else 3, 12))
    a = generate(kind, n, seed=draw(st.integers(0, 10**6)))
    vector_kind = draw(st.sampled_from(VECTOR_KINDS))
    palette = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    if vector_kind == "column":
        w = a.column(draw(st.integers(0, n - 1)))
    elif vector_kind == "palette":
        w = tuple(draw(st.lists(palette, min_size=n, max_size=n)))
    elif vector_kind == "float":
        factors = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        column = a.column(draw(st.integers(0, n - 1)))
        w = tuple(Fraction(float(c) * f) for c, f in zip(column, factors))
    elif vector_kind == "subset":
        base = draw(st.lists(palette, min_size=n, max_size=n))
        subset = draw(st.sets(st.integers(0, n - 1)))
        w = tuple(v * 1000 if i in subset else v for i, v in enumerate(base))
    else:
        denominators = draw(st.lists(st.sampled_from(_PRIMES), min_size=n, max_size=n, unique=True))
        numerators = draw(st.lists(st.integers(1, 2**53), min_size=n, max_size=n))
        w = tuple(Fraction(p, q) for p, q in zip(numerators, denominators))
    assume(all(v > 0 for v in w))
    return a, w


@given(generated_matrix_and_vector())
@settings(deadline=None, max_examples=300)
def test_integer_edge_test_matches_fraction_definition(pair):
    a, w = pair
    g = build_digraph(a, w)
    for i in range(a.n):
        for j in range(a.n):
            assert g.has_edge(i, j) == (w[i] >= a.entries[i][j] * w[j])


@given(generated_matrix_and_vector())
@settings(deadline=None, max_examples=100)
def test_integer_consistency_test_matches_fraction_definition(pair):
    a, _ = pair
    e = a.entries
    n = a.n
    triples = itertools.product(range(n), repeat=3)
    transitive = all(e[i][j] * e[j][k] == e[i][k] for i, j, k in triples)
    assert is_consistent(a) == transitive


@given(matrix_vector_transform())
@settings(deadline=None)
def test_efficiency_invariant_under_monomial_similarity(triple):
    a, w, t = triple
    image = monomial_similarity(a, t)
    assert (
        is_efficient(a, w).efficient
        == is_efficient(image, transform_vector(w, t)).efficient
    )


@given(matrix_and_vector())
@settings(deadline=None)
def test_certificate_is_sound(pair):
    a, w = pair
    cert = is_efficient(a, w)
    g = build_digraph(a, w)
    if cert.efficient:
        assert all(g.has_edge(i, j) for i, j in cert.cycle.edges())
    else:
        inside = set(cert.cut)
        for u in inside:
            for v in range(a.n):
                if v not in inside:
                    assert not g.has_edge(v, u)


@given(matrix_and_vector(), st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_decomposition_membership_matches_certificate(pair, salt):
    a, w = pair
    d = decompose(a)
    cycle = membership(d, w)
    assert (cycle is not None) == is_efficient(a, w).efficient
    if cycle is not None and d.ray is None:
        cone = efficiency_cone(a, cycle)
        assert in_cone(a, cone.cycle, w)


@given(matrix_and_vector())
@settings(deadline=None, max_examples=60)
def test_cone_closed_under_entrywise_products_of_squares(pair):
    # Efficiency cones are log-convex: members of a cycle's cone for the
    # squared matrix multiply into the cone of the fourth-power matrix,
    # which keeps the geometric midpoint rational.
    a, w = pair
    squared = ReciprocalMatrix.from_rows([[x * x for x in row] for row in a.entries])
    fourth = ReciprocalMatrix.from_rows(
        [[x * x for x in row] for row in squared.entries]
    )
    below, _ = enumerate_cycles(squared)
    assume(below)
    cycle = below[0]
    extremes = efficiency_cone(squared, cycle).extremes
    u, v = extremes[0], extremes[-1]
    product = tuple(ui * vi for ui, vi in zip(u, v))
    cone = efficiency_cone(fourth, cycle)
    assert in_cone(fourth, cone.cycle, product)


@given(matrix_and_vector())
@settings(deadline=None, max_examples=80)
def test_min_reversal_counts(pair):
    a, _ = pair
    below, unit = enumerate_cycles(a)
    at_most = sorted(below + unit, key=lambda c: c.order)
    for cycle in at_most[:4]:
        vec, along = min_reversal_vector(a, cycle)
        has_above = any(a.entries[i][j] > 1 for i, j in cycle.edges())
        expected = 0 if (has_above or cycle_product(a, cycle) == 1) else 1
        assert along == expected
        assert is_efficient(a, vec).efficient


@given(matrix_and_vector())
@settings(deadline=None)
def test_formats_round_trip(pair):
    a, w = pair
    assert parse_matrix(format_matrix(a)) == a
    assert parse_vector(format_vector(w)) == w


@given(matrix_and_vector())
@settings(deadline=None, max_examples=60)
def test_probe_agrees_with_certificate_on_columns(pair):
    a, w = pair
    # Columns are always efficient: nothing may dominate them, including w.
    for k in range(a.n):
        assert not probe(a, a.column(k), w).dominates or not is_efficient(
            a, w
        ).efficient


@given(st.integers(4, 6), st.lists(entries, min_size=1, max_size=4))
@settings(deadline=None)
def test_resolve_unit_cycle_on_random_fixtures(n, values):
    # n = 3 admits no such fixture: every entry lies on the cycle itself.
    rows = [[Fraction(1)] * n for _ in range(n)]
    offset = 2
    usable = min(len(values), n - offset)
    assume(usable >= 1)
    for i in range(usable):
        rows[i][i + offset] = values[i]
        rows[i + offset][i] = 1 / values[i]
    a = ReciprocalMatrix.from_rows(rows)
    assume(not is_consistent(a))
    out = resolve_unit_cycle(a, identity_cycle(n))
    along = [a.entries[i][j] for i, j in out.edges()]
    assert all(e <= 1 for e in along)
    assert any(e < 1 for e in along)


@given(st.lists(entries, min_size=3, max_size=6))
@settings(deadline=None)
def test_consistent_matrices_have_unit_products(ws):
    a = consistent_matrix(tuple(ws))
    assert is_consistent(a)
    below, unit = enumerate_cycles(a)
    assert below == ()
    assert len(unit) == math.factorial(a.n - 1)
    assert all(cycle_product(a, c) == 1 for c in unit)
