"""Shared test utilities: exact linear algebra and fixture builders."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

from effvec import (
    Decomposition,
    DominanceDigraph,
    HamiltonianCycle,
    ReciprocalMatrix,
    Vec,
    as_weight_vector,
    build_digraph,
    is_efficient,
    normalize,
)


def solve_linear(columns: list[Vec], target: Vec) -> list[Fraction] | None:
    """Exact coefficients x with sum_k x_k * columns[k] = target, else None.

    Gauss-Jordan over Fractions; None when the system is singular or
    inconsistent.  Used to certify conic-hull membership independently of
    the library's own cone logic.
    """
    n = len(target)
    m = len(columns)
    rows = [[columns[k][i] for k in range(m)] + [target[i]] for i in range(n)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(m):
        pivot = next((k for k in range(r, n) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [value * inv for value in rows[r]]
        for k in range(n):
            if k != r and rows[k][c] != 0:
                factor = rows[k][c]
                rows[k] = [vk - factor * vr for vk, vr in zip(rows[k], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    for k in range(r, n):
        if rows[k][m] != 0:
            return None
    solution = [Fraction(0)] * m
    for row_index, c in enumerate(pivot_cols):
        solution[c] = rows[row_index][m]
    # Free columns stay zero; verify the candidate actually reproduces target.
    for i in range(n):
        if sum(solution[k] * columns[k][i] for k in range(m)) != target[i]:
            return None
    return solution


def in_conic_hull(extremes: tuple[Vec, ...], vec: Vec) -> bool:
    """Whether vec is a nonnegative combination of the extreme vectors."""
    coeffs = solve_linear(list(extremes), vec)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def matrix_of(rows: list[list]) -> ReciprocalMatrix:
    return ReciprocalMatrix.from_rows(
        [[Fraction(x) for x in row] for row in rows]
    )


def unit_cycle_fixture(n: int, diagonals: dict[int, tuple]) -> ReciprocalMatrix:
    """Matrix whose identity-rotation cycle is all ones.

    diagonals maps an offset k to the entries a[i][i+k] for i = 0..n-k-1;
    offsets not listed stay at 1.
    """
    rows = [[Fraction(1)] * n for _ in range(n)]
    for k, values in diagonals.items():
        for i, value in enumerate(values):
            rows[i][i + k] = Fraction(value)
            rows[i + k][i] = 1 / Fraction(value)
    return ReciprocalMatrix.from_rows(rows)


def identity_cycle(n: int) -> HamiltonianCycle:
    return HamiltonianCycle.from_vertices(tuple(range(n)))


def fractions(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


# --- Fraction references for the integer cycle kernel ---------------------


def chain_solution_reference(a: ReciprocalMatrix, cycle: HamiltonianCycle, omit: int) -> Vec:
    """Back-substitution along the cycle with edge ``omit`` left slack.

    Sets the vertex after the omitted edge to 1, divides by each entry in
    turn around the cycle, then normalizes: the Fraction loop the library
    replaced by prefix products.
    """
    order = cycle.order
    n = cycle.n
    w = [Fraction(0)] * n
    w[order[(omit + 1) % n]] = Fraction(1)
    for t in range(omit + 1, omit + n):
        src = order[t % n]
        dst = order[(t + 1) % n]
        w[dst] = w[src] / a.entries[src][dst]
    return normalize(w)


def cycle_product_reference(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> Fraction:
    product = Fraction(1)
    for i, j in cycle.edges():
        product *= a.entries[i][j]
    return product


def cone_extremes_reference(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> tuple[Vec, ...]:
    """One back-substituted ray per omitted edge, duplicates dropped."""
    rays: list[Vec] = []
    for omit in range(cycle.n):
        ray = chain_solution_reference(a, cycle, omit)
        if ray not in rays:
            rays.append(ray)
    return tuple(rays)


# --- Fraction references for the dominance edge test -----------------------


def edge_reference(a: ReciprocalMatrix, w: Vec, i: int, j: int) -> bool:
    """The dominance edge i -> j of (a, w): w_i >= a_ij * w_j as Fractions."""
    return w[i] >= a.entries[i][j] * w[j]


def cone_contains_reference(a: ReciprocalMatrix, cycle: HamiltonianCycle, w) -> bool:
    """Whether w satisfies w_i >= a_ij * w_j on every edge of the cycle, in
    Fractions: the test ``EfficiencyCone.contains`` made before cone
    membership went through the dominance digraph.  Raises ValueError for a
    non-positive vector or one whose length differs from the cycle's."""
    vec = as_weight_vector(w)
    if len(vec) != cycle.n:
        raise ValueError(f"vector length {len(vec)} does not match matrix dimension {cycle.n}")
    return all(edge_reference(a, vec, i, j) for i, j in cycle.edges())


def band_contains_reference(band, w) -> bool:
    """Whether w meets cap*w_0 >= w_top >= w_k >= w_bottom >= floor*w_0 for
    every middle k, in Fractions: the chain ``EfficiencyBand.contains``
    tested before band membership went through the dominance digraph.
    Raises ValueError for a non-positive vector or one whose length differs
    from the band's matrix."""
    vec = as_weight_vector(w)
    if len(vec) != band.matrix.n:
        raise ValueError(f"vector length {len(vec)} does not match matrix dimension {band.matrix.n}")
    hi, lo = vec[band.top], vec[band.bottom]
    if not (band.cap * vec[0] >= hi and lo >= band.floor * vec[0] and hi >= lo):
        return False
    middle = [vec[k] for k in range(1, len(vec)) if k not in (band.top, band.bottom)]
    return all(hi >= mk >= lo for mk in middle)


def in_cone(a: ReciprocalMatrix, cycle: HamiltonianCycle, w) -> bool:
    """Cone membership as the library decides it, through the dominance
    digraph's ``has_cycle``, after asserting that it equals the reference."""
    inside = build_digraph(a, w).has_cycle(cycle)
    assert inside == cone_contains_reference(a, cycle, w), (cycle, w)
    return inside


def common_digraph_reference(a: ReciprocalMatrix, vectors: list[Vec]) -> tuple[tuple[bool, ...], ...]:
    """Edge i -> j when ``edge_reference`` holds for every vector."""
    n = a.n
    return tuple(
        tuple(all(edge_reference(a, w, i, j) for w in vectors) for j in range(n)) for i in range(n)
    )


# --- references for the cycle walker ----------------------------------------


def cycles_reference(
    a: ReciprocalMatrix,
) -> tuple[tuple[HamiltonianCycle, ...], tuple[HamiltonianCycle, ...]]:
    """(product < 1, product == 1) over every cycle that
    ``itertools.permutations`` lists, each product a Fraction: the split
    ``enumerate_cycles`` made before its walker."""
    below, unit = [], []
    for rest in itertools.permutations(range(1, a.n)):
        cycle = HamiltonianCycle((0,) + rest)
        product = cycle_product_reference(a, cycle)
        if product < 1:
            below.append(cycle)
        elif product == 1:
            unit.append(cycle)
    return tuple(below), tuple(unit)


def membership_reference(d: Decomposition, w: Vec) -> HamiltonianCycle | None:
    """The first cone of ``d.cones`` whose every edge inequality w meets,
    or for a consistent matrix the rotation cycle when w meets its edges:
    the cone scan ``membership`` made before its walker."""
    a = d.matrix
    if d.ray is not None:
        cycle = HamiltonianCycle(tuple(range(a.n)))
        return cycle if cone_contains_reference(a, cycle, w) else None
    return next((c.cycle for c in d.cones if cone_contains_reference(a, c.cycle, w)), None)


def common_cone_reference(a: ReciprocalMatrix) -> HamiltonianCycle | None:
    """The first permutation cycle that every column digraph carries: the
    full scan ``columns_common_cone`` made before its walker."""
    graphs = [build_digraph(a, a.column(j)) for j in range(a.n)]
    for rest in itertools.permutations(range(1, a.n)):
        cycle = HamiltonianCycle((0,) + rest)
        if all(g.has_edge(i, j) for g in graphs for i, j in cycle.edges()):
            return cycle
    return None


def walk_reference(
    num: list[list[int]], allowed: list[list[bool]]
) -> list[tuple[tuple[int, ...], int, int]]:
    """Every permutation cycle through allowed edges, as (order, r, s) with
    r and s the products of ``num[i][j]`` and ``num[j][i]`` over its edges."""
    found = []
    for rest in itertools.permutations(range(1, len(num))):
        order = (0,) + rest
        edges = list(zip(order, order[1:] + order[:1]))
        if all(allowed[i][j] for i, j in edges):
            r = math.prod(num[i][j] for i, j in edges)
            s = math.prod(num[j][i] for i, j in edges)
            found.append((order, r, s))
    return found


def _classify_reference(a_ij: Fraction, wi: Fraction, wj: Fraction) -> str | None:
    if a_ij == 1:
        return "tie-broken" if wi != wj else None
    if wi == wj:
        return "tie-forced"
    if a_ij < 1 and wi > wj:
        return "strict-flip"
    if a_ij > 1 and wi < wj:
        return "strict-flip"
    return None


def count_reversals_reference(
    a: ReciprocalMatrix, w: Vec, cycle: HamiltonianCycle | None = None
) -> tuple[tuple[tuple[int, int, str], ...], int | None]:
    """(pairs, along_cycle) of the reversal scan, compared as Fractions."""
    n = a.n
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            kind = _classify_reference(a.entries[i][j], w[i], w[j])
            if kind is not None:
                pairs.append((i, j, kind))
    along = None
    if cycle is not None:
        joined = {(min(i, j), max(i, j)) for i, j in cycle.edges()}
        along = sum(1 for i, j, _ in pairs if (i, j) in joined)
    return tuple(pairs), along


def min_reversal_vector_reference(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> tuple[Vec, int]:
    """Omit the first largest entry, back-substitute, count along the cycle."""
    entries = [a.entries[i][j] for i, j in cycle.edges()]
    top = max(entries)
    wrap = min(t for t, value in enumerate(entries) if value == top)
    vec = chain_solution_reference(a, cycle, wrap)
    along = count_reversals_reference(a, vec, cycle)[1]
    assert along is not None
    return vec, along


def check_convexity_report(a: ReciprocalMatrix, report) -> None:
    """Check a convexity verdict independently of the library.

    "non_convex": the witness endpoints u and v are efficient and the blend
    t*u + (1-t)*v is not.  "convex": the rays are recomputed by Fraction
    back-substitution on every cycle below product 1 (or as a consistent
    matrix's column), the certificate is exactly the set of edges i -> j
    that hold on every ray, each tested on integers, and Kosaraju finds it
    strongly connected.
    """
    if report.verdict == "non_convex":
        u, v, t = report.witness
        assert 0 < t < 1
        blend = tuple(t * ui + (1 - t) * vi for ui, vi in zip(u, v))
        assert is_efficient(a, u).efficient and is_efficient(a, v).efficient
        assert not is_efficient(a, blend).efficient
        return
    assert report.verdict == "convex" and report.reason == "shared-edges"
    n = a.n
    below, _ = cycles_reference(a)
    rays = {r for c in below for r in cone_extremes_reference(a, c)} or {normalize(a.column(0))}
    integer_rays = []
    for ray in rays:
        scale = math.lcm(*(x.denominator for x in ray))
        integer_rays.append([int(x * scale) for x in ray])

    def holds(i: int, j: int) -> bool:
        e = a.entries[i][j]
        return all(r[i] * e.denominator >= e.numerator * r[j] for r in integer_rays)

    shared = {(i, j) for i in range(n) for j in range(n) if i != j and holds(i, j)}
    assert set(report.shared_edges) == shared
    adjacency = tuple(tuple(i == j or (i, j) in shared for j in range(n)) for i in range(n))
    assert kosaraju_reference(SimpleNamespace(n=n, adjacency=adjacency))[0]


# --- graph-search reference for the strong components ------------------------


def kosaraju_reference(g: DominanceDigraph) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Kosaraju SCC pass on any digraph; components in topological order.

    Reference for the verdict and the cut of ``is_efficient``: a general
    graph search over the full adjacency that, unlike the runs of the
    insertion path ``is_efficient`` reads, does not need the digraph to be
    semi-complete.
    """
    n = g.n
    adj = g.adjacency

    finish: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        seen[start] = True
        while stack:
            v, nxt = stack[-1]
            advanced = False
            for j in range(nxt, n):
                if adj[v][j] and not seen[j] and j != v:
                    stack[-1] = (v, j + 1)
                    stack.append((j, 0))
                    seen[j] = True
                    advanced = True
                    break
            if not advanced:
                finish.append(v)
                stack.pop()

    components: list[tuple[int, ...]] = []
    assigned = [False] * n
    for v in reversed(finish):
        if assigned[v]:
            continue
        member = [v]
        assigned[v] = True
        queue = [v]
        while queue:
            u = queue.pop()
            for j in range(n):
                # reverse edge u <- j
                if adj[j][u] and not assigned[j] and j != u:
                    assigned[j] = True
                    member.append(j)
                    queue.append(j)
        components.append(tuple(sorted(member)))
    return len(components) == 1, tuple(components)


def semicomplete_digraphs(n: int):
    """Every semi-complete digraph on n vertices: each pair i < j carries
    i -> j, j -> i, or both, so 3**C(n, 2) digraphs in all."""
    pairs = list(itertools.combinations(range(n), 2))
    for pattern in itertools.product((0, 1, 2), repeat=len(pairs)):
        adj = [[True] * n for _ in range(n)]
        for (i, j), kind in zip(pairs, pattern):
            adj[i][j] = kind != 1
            adj[j][i] = kind != 0
        yield DominanceDigraph(tuple(map(tuple, adj)))


def semicomplete_matrix(g: DominanceDigraph) -> ReciprocalMatrix:
    """A matrix whose dominance digraph at w = (1, ..., 1) is g: a_ij = 1
    where both edges exist, 1/2 where only i -> j does, 2 where only
    j -> i does."""
    entries = {(True, True): Fraction(1), (True, False): Fraction(1, 2), (False, True): Fraction(2)}
    adj = g.adjacency
    rows = (tuple(entries[row[j], adj[j][i]] for j in range(g.n)) for i, row in enumerate(adj))
    return ReciprocalMatrix(tuple(rows))


# --- references for the ranking arithmetic ----------------------------------


def gram_reference(a: ReciprocalMatrix) -> list[list[Fraction]]:
    """A A^T from n**3 Fraction products: the comprehension the integer
    gram of ``singular_vector`` replaced."""
    n = a.n
    e = a.entries
    return [[sum(e[i][k] * e[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def spectral_residual_reference(rows: list[list[Fraction]], vec: Vec) -> Fraction:
    """max|M v - lambda v| / max v from n**2 Fraction products: the residual
    ``perron_vector`` and ``singular_vector`` computed before the integer
    rows."""
    n = len(vec)
    image = [sum(rows[i][j] * vec[j] for j in range(n)) for i in range(n)]
    lam = max(image[i] / vec[i] for i in range(n))
    return max(abs(image[i] - lam * vec[i]) for i in range(n)) / max(vec)


def radicand_reference(a: ReciprocalMatrix, powers: list[int], i: int) -> Fraction:
    """prod_k (a_ik / a_0k)^powers[k] as a running Fraction product: the
    radicand ``weighted_geometric`` built before the numerator table."""
    radicand = Fraction(1)
    for k, m in enumerate(powers):
        if m:
            radicand *= (a.entries[i][k] / a.entries[0][k]) ** m
    return radicand


def nth_root_floor_reference(x: int, n: int) -> int:
    """floor(x ** (1/n)) by Newton iteration from 2**ceil(bits/n): the start
    ``nth_root_floor`` used before its float-seeded one."""
    if x < 2 or n == 1:
        return x
    guess = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        better = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if better >= guess:
            break
        guess = better
    while guess**n > x:
        guess -= 1
    return guess
