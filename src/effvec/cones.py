"""Efficiency cones carved out by Hamiltonian cycles.

Requiring a fixed Hamiltonian cycle to appear in the dominance digraph of
(a, w) pins w into a convex polyhedral cone: one linear inequality per cycle
edge, ``w[i] >= a[i][j] * w[j]``, tested by ``DominanceDigraph.has_cycle``.
These cones are the building blocks of the efficient set.  The product of
the entries along the cycle controls the shape: product < 1 gives a full
set of extreme rays, 1 collapses the cone to a single ray, > 1 empties it.

Everything about one cycle comes from integer products read from the
numerator table of the matrix: the product and its comparison with 1, and
the extreme rays, which a cone builds on first read; below product 1,
entry k of ``extremes`` is the ray that leaves edge k slack.  One builder,
``_rays``, makes any run of those rays from a backward and a forward run
of products, so the rays it returns share their values; a caller that
needs one ray, the minimum-reversal vector or a convexity draw, asks it
for a run of one.  No Fraction arithmetic decides anything.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .digraph import HamiltonianCycle
from .matrices import ReciprocalMatrix, Vec, is_consistent
from .records import Record

__all__ = [
    "EfficiencyCone",
    "cycle_product",
    "efficiency_cone",
    "resolve_unit_cycle",
]

# Vertex 0 sits at position 0 of every cycle, so every ray starts at 1.
_ONE = Fraction(1)


def _rays(a: ReciprocalMatrix, order: Sequence[int], lo: int, hi: int) -> list[Vec]:
    """The extreme rays that leave edges lo..hi of the cycle ``order`` slack.

    With P_j the product of the entries on edges 0..j-1 and Pi = P_n, the
    ray leaving edge k slack holds 1/P_j at positions j <= k and Pi/P_j,
    the product of the entries from edge j to the last, beyond.  Integer
    products run backward from the closing edge to position lo + 1, then
    forward from vertex 0, and the ray for k is taken once the forward run
    has set position k, so the rays share their values and at most 2n - 4
    Fractions are built: 1/P_1 and Pi/P_(n-1) are entries of column 0.  At
    product 1 every k gives the same ray.
    """
    num, entries = a._numerators, a.entries
    n = len(order)
    w = [_ONE] * n  # by vertex; vertex 0 sits at position 0
    v = order[-1]
    r, s, w[v] = num[v][0], num[0][v], entries[v][0]
    for u in order[n - 2 : lo : -1]:
        r *= num[u][v]
        s *= num[v][u]
        w[u] = Fraction(r, s)
        v = u
    rays = [tuple(w)] if lo == 0 else []
    if hi:
        u = order[1]
        r, s, w[u] = num[0][u], num[u][0], entries[u][0]
        if lo <= 1:
            rays.append(tuple(w))
        for k in range(2, hi + 1):
            v = order[k]
            r *= num[u][v]
            s *= num[v][u]
            w[v] = Fraction(s, r)
            if k >= lo:
                rays.append(tuple(w))
            u = v
    return rays


def _extremes(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> tuple[Vec, ...]:
    """All extreme rays, in the order of the omitted edge, or the one ray
    at product 1: the rays are pairwise distinct exactly when the cycle
    product Pi differs from 1.  Pi = e_0 * Pi/P_1, and ray 0 holds Pi/P_1
    at position 1, so Pi is compared with 1 as two integer products."""
    num, order = a._numerators, cycle.order
    if len(order) != len(num):
        raise ValueError("cycle length does not match matrix dimension")
    rays = _rays(a, order, 0, len(order) - 1)
    u = order[1]
    x = rays[0][u]
    r, s = num[0][u] * x.numerator, num[u][0] * x.denominator
    if r > s:
        raise ValueError("cycle product exceeds 1; the cone is empty")
    return (rays[0],) if r == s else tuple(rays)


def cycle_product(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> Fraction:
    """Product of the matrix entries along the cycle."""
    num, order = a._numerators, cycle.order
    if len(order) != len(num):
        raise ValueError("cycle length does not match matrix dimension")
    r = s = 1
    src = order[-1]
    for dst in order:
        r *= num[src][dst]
        s *= num[dst][src]
        src = dst
    return Fraction(r, s)


class EfficiencyCone(Record):
    """Convex cone of weight vectors whose dominance digraph contains a cycle.

    Its matrix and cycle fix it, and its repr shows the cycle; w is in it
    exactly when ``build_digraph(matrix, w).has_cycle(cycle)``.  The cached
    ``extremes``, built on first read, are its canonical rays: solving all
    but one edge inequality as equalities gives one ray per omitted edge, in
    edge order; at product <= 1 the omitted one holds and they span the cone.
    """

    _fields = ("matrix", "cycle")

    def __init__(self, matrix: ReciprocalMatrix, cycle: HamiltonianCycle) -> None:
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "cycle", cycle)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(cycle={self.cycle!r})"

    @property
    def product(self) -> Fraction:
        return cycle_product(self.matrix, self.cycle)

    @property
    def singleton(self) -> bool:
        return self.product == 1

    @functools.cached_property
    def extremes(self) -> tuple[Vec, ...]:
        return _extremes(self.matrix, self.cycle)


def efficiency_cone(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> EfficiencyCone:
    """The cone record for a cycle with product at most 1."""
    cone = EfficiencyCone(a, cycle)
    if cone.product > 1:
        raise ValueError("cycle product exceeds 1; the cone is empty")
    return cone


def _consecutive_case_positions(n: int, k: int, diag: list[Fraction]) -> list[int] | None:
    """Cycle through an entry < 1 followed by <= 1 on the k-th upper diagonal."""
    m = n - k
    for i in range(1, m):  # 1-based diagonal positions with a successor
        if diag[i - 1] < 1 and diag[i] <= 1:
            return [i, i + k] + list(range(i + 1, i + k)) + list(range(i + k + 1, n + 1)) + list(range(1, i))
    return None


def _wrap_case_positions(n: int, k: int) -> list[int]:
    """Cycle through the final diagonal entry, valid once the consecutive
    case fails in both orientations and that entry is < 1."""
    if k > 2:
        return [n - k, n] + list(range(1, n - k)) + list(range(n - k + 1, n))
    if n % 2 == 0:
        return [1] + list(range(2, n + 1, 2)) + list(range(n - 1, 2, -2))
    return list(range(1, n - 1, 2)) + [n] + list(range(n - 1, 1, -2))


def resolve_unit_cycle(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> HamiltonianCycle:
    """Replace an all-ones cycle of an inconsistent matrix by a sub-unit one.

    Requires every matrix entry along ``cycle`` to equal 1.  Returns a
    Hamiltonian cycle whose entries are all at most 1 with at least one
    strictly below 1, so its cone strictly absorbs the input ray.
    """
    if cycle.n != a.n:
        raise ValueError("cycle length does not match matrix dimension")
    # Entry (i, j) is num[i][j] / num[j][i], so it compares with 1 as they do.
    num = a._numerators
    if any(num[i][j] != num[j][i] for i, j in cycle.edges()):
        raise ValueError("resolve_unit_cycle needs a cycle whose entries all equal 1")
    if is_consistent(a):
        raise ValueError("matrix is consistent; every cycle stays at product 1")

    order = cycle.order
    n = a.n
    # Work in positions along the cycle, so the cycle becomes 1 -> 2 -> ... -> n -> 1.
    b = [[a.entries[order[t]][order[s]] for s in range(n)] for t in range(n)]

    for k in range(2, n - 1):
        diag = [b[i][i + k] for i in range(n - k)]
        if any(value != 1 for value in diag):
            break
    else:  # pragma: no cover - an inconsistent matrix has an off-unit diagonal
        raise ValueError("no off-unit diagonal found despite inconsistency")

    # Try the consecutive case in both orientations before any wrap case:
    # the wrap constructions are only valid once the consecutive case fails
    # on the diagonal and on its reciprocal.
    mirrored = [1 / value for value in diag]
    m = n - k
    transposed = False
    positions = _consecutive_case_positions(n, k, diag)
    if positions is None:
        positions = _consecutive_case_positions(n, k, mirrored)
        transposed = positions is not None
    if positions is None:
        if diag[m - 1] < 1:
            positions = _wrap_case_positions(n, k)
        elif mirrored[m - 1] < 1:
            positions = _wrap_case_positions(n, k)
            transposed = True
        else:  # pragma: no cover - the diagonal ends off-unit when both searches fail
            raise ValueError("no replacement construction applies")

    pos0 = [p - 1 for p in positions]
    if transposed:
        # A cycle built against the transpose reads its entries backwards here.
        pos0 = [pos0[0]] + pos0[:0:-1]
    replacement = HamiltonianCycle.from_vertices([order[p] for p in pos0])

    pairs = [(num[i][j], num[j][i]) for i, j in replacement.edges()]
    if any(r > s for r, s in pairs) or all(r == s for r, s in pairs):
        raise ValueError("constructed cycle fails its guarantee; please report this input")
    return replacement
