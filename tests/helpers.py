"""Shared test utilities: exact linear algebra and fixture builders."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from effvec import (
    Decomposition,
    DominanceDigraph,
    HamiltonianCycle,
    ReciprocalMatrix,
    Vec,
    is_efficient,
    normalize,
    proportional,
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
        reversing = {(min(i, j), max(i, j)) for i, j, _ in pairs}
        along = sum(1 for i, j in cycle.edges() if (min(i, j), max(i, j)) in reversing)
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


def convexity_witness_reference(
    d: Decomposition, samples: int, seed: int
) -> tuple[Vec, Vec, Fraction] | None:
    """The witness search of ``convexity_report`` over a materialized list
    of all cone pairs: the first (u, v, t) whose blend is inefficient."""
    weights = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    cone_pairs = list(itertools.combinations(range(len(d.cones)), 2))
    total = len(weights) * sum(
        len(d.cones[i].extremes) * len(d.cones[j].extremes) for i, j in cone_pairs
    )

    def inefficient(u: Vec, v: Vec, t: Fraction) -> bool:
        blend = tuple(t * ui + (1 - t) * vi for ui, vi in zip(u, v))
        return not proportional(u, v) and not is_efficient(d.matrix, blend).efficient

    if total <= samples:
        for i, j in cone_pairs:
            for u in d.cones[i].extremes:
                for v in d.cones[j].extremes:
                    for t in weights:
                        if inefficient(u, v, t):
                            return u, v, t
        return None
    rng = random.Random(seed)
    for _ in range(samples):
        i, j = rng.choice(cone_pairs)
        u = rng.choice(d.cones[i].extremes)
        v = rng.choice(d.cones[j].extremes)
        t = rng.choice(weights)
        if inefficient(u, v, t):
            return u, v, t
    return None


# --- graph-search reference for the score-sequence components ---------------


def kosaraju_reference(g: DominanceDigraph) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Kosaraju SCC pass on any digraph; components in topological order.

    Reference for ``strongly_connected``: a general graph search that, unlike
    the score-sequence scan, does not need the digraph to be semi-complete.
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
