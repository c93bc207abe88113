"""Independent checks of effvec's outputs, in integer arithmetic.

Nothing here imports effvec.  Every rational is read as its numerator and
denominator, and every comparison is a cross-multiplication of integers.
A check that does not hold raises :class:`CheckFailed`.

A matrix is passed as ``(P, Q)``: integer tables with ``a_ij = P[i][j] /
Q[i][j]``.  A dominance edge i -> j exists when ``w_i >= a_ij * w_j``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

IntMatrix = tuple[list[list[int]], list[list[int]]]


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def int_matrix(rows: Sequence[Sequence[Fraction]]) -> IntMatrix:
    return (
        [[v.numerator for v in row] for row in rows],
        [[v.denominator for v in row] for row in rows],
    )


def to_ints(vec: Iterable[Fraction]) -> list[int]:
    """The smallest positive integer multiple of a positive rational vector."""
    vec = [Fraction(v) for v in vec]
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (scale // v.denominator) for v in vec]
    require(all(x > 0 for x in ints), "vector has a non-positive component")
    return ints


def edge(m: IntMatrix, w: Sequence[int], i: int, j: int) -> bool:
    p, q = m
    return w[i] * q[i][j] >= p[i][j] * w[j]


def _reach(m: IntMatrix, w: Sequence[int], forward: bool) -> int:
    n = len(w)
    seen = {0}
    todo = [0]
    while todo:
        u = todo.pop()
        for v in range(n):
            if v not in seen and (edge(m, w, u, v) if forward else edge(m, w, v, u)):
                seen.add(v)
                todo.append(v)
    return len(seen)


def efficient(m: IntMatrix, vec: Iterable[Fraction]) -> bool:
    """Own verdict: the dominance digraph is strongly connected."""
    w = to_ints(vec)
    n = len(w)
    return _reach(m, w, True) == n and _reach(m, w, False) == n


def check_cycle(m: IntMatrix, w: Sequence[int], order: Sequence[int]) -> None:
    """A Hamiltonian cycle all of whose edges are dominance edges."""
    n = len(w)
    require(sorted(order) == list(range(n)), f"cycle {list(order)} is not Hamiltonian")
    for t in range(n):
        i, j = order[t], order[(t + 1) % n]
        require(edge(m, w, i, j), f"cycle edge {i}->{j} is not a dominance edge")


def check_cut(m: IntMatrix, w: Sequence[int], cut: Sequence[int]) -> None:
    """A non-empty proper vertex set that no dominance edge enters."""
    n = len(w)
    inside = set(cut)
    require(len(inside) == len(cut), "cut repeats a vertex")
    require(inside <= set(range(n)), "cut names a vertex out of range")
    require(0 < len(inside) < n, "cut is empty or the whole vertex set")
    for i in range(n):
        if i in inside:
            continue
        for j in inside:
            require(not edge(m, w, i, j), f"edge {i}->{j} enters the cut")


def check_certificate(
    m: IntMatrix,
    vec: Iterable[Fraction],
    is_efficient: bool,
    cycle: Sequence[int] | None,
    cut: Sequence[int] | None,
) -> bool:
    """Validate whichever witness the verdict carries; return the verdict."""
    w = to_ints(vec)
    if is_efficient:
        require(cycle is not None, "efficient verdict without a cycle")
        check_cycle(m, w, cycle)
    else:
        require(cut is not None, "inefficient verdict without a cut")
        check_cut(m, w, cut)
    return is_efficient


def cycle_product(m: IntMatrix, order: Sequence[int]) -> tuple[int, int]:
    p, q = m
    n = len(order)
    num = den = 1
    for t in range(n):
        i, j = order[t], order[(t + 1) % n]
        num *= p[i][j]
        den *= q[i][j]
    return num, den


def cycle_classes(m: IntMatrix) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]], int]:
    """Own enumeration of the cycles anchored at 0: (below 1, at 1, count above 1)."""
    n = len(m[0])
    below: set[tuple[int, ...]] = set()
    unit: set[tuple[int, ...]] = set()
    above = 0
    for rest in itertools.permutations(range(1, n)):
        order = (0,) + rest
        num, den = cycle_product(m, order)
        if num < den:
            below.add(order)
        elif num == den:
            unit.add(order)
        else:
            above += 1
    return below, unit, above


def check_decomposition(
    m: IntMatrix, cone_cycles: Sequence[tuple[int, ...]], unit_cycles: Sequence[tuple[int, ...]]
) -> None:
    """Cones = cycles below 1 = cycles above 1 <= (n-1)!/2; unit cycles match."""
    n = len(m[0])
    below, unit, above = cycle_classes(m)
    require(len(set(cone_cycles)) == len(cone_cycles), "a cone is listed twice")
    require(set(cone_cycles) == below, f"{len(cone_cycles)} cones, {len(below)} cycles below 1")
    require(len(below) == above, f"{len(below)} cycles below 1 but {above} above")
    require(len(below) <= math.factorial(n - 1) // 2, "more cones than (n-1)!/2")
    require(set(unit_cycles) == unit and len(unit_cycles) == len(unit), "unit cycles differ")


def check_cone(m: IntMatrix, order: Sequence[int], product: Fraction, extremes: Sequence) -> None:
    """Product < 1 recomputed; each extreme meets every cycle inequality,
    n - 1 of them with equality, and each leaves a different one slack."""
    p, q = m
    n = len(order)
    num, den = cycle_product(m, order)
    require(num < den, "cone cycle product is not below 1")
    require(product.numerator * den == num * product.denominator, "cone product differs")
    require(len(extremes) == n, f"{len(extremes)} extremes, expected {n}")
    slack_edges = set()
    for ray in extremes:
        w = to_ints(ray)
        slack = []
        for t in range(n):
            i, j = order[t], order[(t + 1) % n]
            lhs, rhs = w[i] * q[i][j], p[i][j] * w[j]
            require(lhs >= rhs, f"extreme violates cycle inequality {i}->{j}")
            if lhs > rhs:
                slack.append(t)
        require(len(slack) == 1, f"extreme has {n - len(slack)} tight inequalities")
        slack_edges.add(slack[0])
    require(len(slack_edges) == n, "two extremes leave the same inequality slack")


def reversal_rule(m: IntMatrix, order: Sequence[int]) -> int:
    """Fewest reversals along a cycle: 0 when an entry exceeds 1 or the product is 1."""
    p, q = m
    n = len(order)
    edges = [(order[t], order[(t + 1) % n]) for t in range(n)]
    num, den = cycle_product(m, order)
    if num == den or any(p[i][j] > q[i][j] for i, j in edges):
        return 0
    return 1


def check_min_reversal(m: IntMatrix, order: Sequence[int], vec: Sequence[Fraction], count: int) -> None:
    require(count == reversal_rule(m, order), f"reversal count {count} breaks the rule")
    check_cycle(m, to_ints(vec), order)


def check_witness(m: IntMatrix, u: Sequence[Fraction], v: Sequence[Fraction], t: Fraction) -> None:
    """A non-convexity witness: u and v efficient, their blend not."""
    require(0 < t < 1, "blend weight outside (0, 1)")
    require(efficient(m, u) and efficient(m, v), "witness endpoint is not efficient")
    blend = [t * ui + (1 - t) * vi for ui, vi in zip(u, v)]
    require(not efficient(m, blend), "witness blend is efficient")


def proportional(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    x, y = to_ints(u), to_ints(v)
    return len(x) == len(y) and all(x[0] * y[i] == y[0] * x[i] for i in range(len(x)))


def check_geometric(m: IntMatrix, vec: Sequence[Fraction]) -> None:
    """vec is the exact geometric mean of the columns: (v_i/v_0)^n = prod_k a_ik/a_0k."""
    p, q = m
    n = len(p)
    w = to_ints(vec)
    for i in range(1, n):
        lhs = w[i] ** n
        rhs = w[0] ** n
        for k in range(n):
            lhs *= p[0][k] * q[i][k]
            rhs *= q[0][k] * p[i][k]
        require(lhs == rhs, f"component {i} is not the exact geometric mean")


def band_count(canonical_first_row: Sequence[Fraction]) -> int:
    """Ordered pairs (i, j), i, j >= 1, with a_0i < a_0j: one per distinct-value pair."""
    values = list(canonical_first_row[1:])
    return sum(1 for x, y in itertools.combinations(values, 2) if x != y)


def consistent_without(m: IntMatrix, drop: int) -> bool:
    p, q = m
    keep = [t for t in range(len(p)) if t != drop]
    f = keep[0]
    # a_if == a_ij * a_jf for every kept i, j
    return all(
        p[i][f] * q[i][j] * q[j][f] == p[i][j] * p[j][f] * q[i][f] for i in keep for j in keep
    )


def check_canonical_form(
    m: IntMatrix,
    canonical: Sequence[Sequence[Fraction]],
    scale: Sequence[Fraction],
    perm: Sequence[int],
    index: int,
) -> None:
    """canonical = the transform of the matrix, with an all-ones trailing block."""
    p, q = m
    n = len(p)
    require(sorted(perm) == list(range(n)) and perm[index] == 0, "bad permutation")
    require(consistent_without(m, index), "deleting the perturbed index leaves no consistent block")
    for i in range(n):
        for j in range(n):
            c = canonical[perm[i]][perm[j]]
            # c == a_ij * s_i / s_j
            lhs = c.numerator * q[i][j] * scale[i].denominator * scale[j].numerator
            rhs = p[i][j] * scale[i].numerator * scale[j].denominator * c.denominator
            require(lhs == rhs, f"canonical entry for ({i},{j}) is not the transformed one")
    for i in range(1, n):
        for j in range(1, n):
            require(canonical[i][j] == 1, "canonical trailing block is not all ones")


def band_contains(band: tuple[int, int, Fraction, Fraction], w: Sequence[Fraction]) -> bool:
    """cap*w_0 >= w_top >= w_k >= w_bottom >= floor*w_0 for every middle k."""
    top, bottom, cap, floor = band
    x = to_ints(w)
    hi, lo = x[top], x[bottom]
    if not (cap.numerator * x[0] >= hi * cap.denominator and lo * floor.denominator >= floor.numerator * x[0]):
        return False
    return hi >= lo and all(hi >= x[k] >= lo for k in range(1, len(x)) if k not in (top, bottom))


def check_bands(
    canonical: Sequence[Sequence[Fraction]],
    bands: Sequence[tuple[int, int, Fraction, Fraction]],
) -> None:
    """One band per ordered pair with a_0top < a_0bottom, at most C(n-1, 2)."""
    n = len(canonical)
    first = canonical[0]
    require(len(bands) <= math.comb(n - 1, 2), f"{len(bands)} bands exceed C(n-1, 2)")
    require(len(bands) == band_count(first), f"{len(bands)} bands, expected {band_count(first)}")
    require(len({(b[0], b[1]) for b in bands}) == len(bands), "a band is listed twice")
    for top, bottom, cap, floor in bands:
        require(1 <= top < n and 1 <= bottom < n and top != bottom, "band indices out of range")
        require(first[top] < first[bottom], "band pair does not satisfy a_0top < a_0bottom")
        require(cap == canonical[top][0] and floor == canonical[bottom][0], "band bounds differ")


def check_band_union(
    m: IntMatrix,
    bands: Sequence[tuple[int, int, Fraction, Fraction]],
    scale: Sequence[Fraction],
    perm: Sequence[int],
    samples: Iterable[Sequence[Fraction]],
) -> None:
    """Band-union membership in canonical coordinates equals the own verdict."""
    for w in samples:
        moved = [Fraction(0)] * len(w)
        for i, wi in enumerate(w):
            moved[perm[i]] = wi * scale[i]
        in_union = any(band_contains(b, moved) for b in bands)
        require(in_union == efficient(m, w), "band union disagrees with the verdict")


def parse_matrix_text(text: str) -> list[list[Fraction]]:
    """Own reader for the text matrix format, used on `generate` output."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    n = int(lines[0])
    rows = [[Fraction(tok) for tok in line.split()] for line in lines[1 : n + 1]]
    require(len(rows) == n and all(len(r) == n for r in rows), "matrix is not n by n")
    for i in range(n):
        require(rows[i][i] == 1, "diagonal entry is not 1")
        for j in range(n):
            require(rows[i][j] > 0 and rows[i][j] * rows[j][i] == 1, "matrix is not reciprocal")
    return rows
