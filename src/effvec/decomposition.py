"""Decomposing the efficient set into cycle cones.

For an inconsistent matrix, the efficient vectors are exactly the union of
the cones of Hamiltonian cycles whose entry product is strictly below 1;
cycles at product exactly 1 contribute single rays already absorbed by that
union.  One depth-first walker lists the cycles anchored at vertex 0 through
a given set of edges, in lexicographic order, with each product carried as
integer prefix products.  Over all edges it visits the (n-1)! cycles once
and splits them into the sub-unit and the unit cycles; that enumeration is
refused beyond a configurable cap instead of silently taking forever.  A
vector lies in a cycle's cone exactly when every cycle edge is an edge of
its dominance digraph, so membership walks only that digraph's edges.
The efficient set is convex exactly when it is the hull of all the cones'
extreme rays: an inefficient blend of two rays disproves it, and the edges
of ``common_digraph`` over the rays, strongly connected, prove it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

from .cones import EfficiencyCone
from .digraph import HamiltonianCycle, build_digraph, common_digraph, is_efficient
from .errors import CapExceededError
from .matrices import ReciprocalMatrix, Vec, is_consistent, normalize, proportional
from .records import Record

__all__ = [
    "DEFAULT_CYCLE_CAP",
    "Decomposition",
    "ConvexityReport",
    "enumerate_cycles",
    "decompose",
    "membership",
    "convexity_report",
]

DEFAULT_CYCLE_CAP = 10


def _refuse_beyond_cap(n: int, cap: int) -> None:
    """Refuse a walk that may visit all (n-1)! cycles when n exceeds the cap."""
    if n > cap:
        raise CapExceededError(
            f"enumeration over (n-1)! cycles refused for n={n} (cap {cap}); raise the cap explicitly"
        )


def _walk(
    num: Sequence[Sequence[int]], allowed: Sequence[Sequence[bool]]
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Hamiltonian cycles through allowed edges, as (order, r, s).

    A depth-first walk from vertex 0 that takes the unvisited vertices in
    increasing order and extends a path only along ``allowed[i][j]``, so it
    yields the cycles in the lexicographic order of the remaining vertices,
    as ``itertools.permutations`` lists them.  r/s is the cycle product:
    r and s multiply ``num[i][j]`` and ``num[j][i]`` over the edges, as
    prefix products that every cycle through a path shares.
    """
    # The closing edge v -> 0: whether it is allowed, and its r and s factors.
    home = [row[0] for row in allowed]
    home_r = [row[0] for row in num]
    home_s = num[0]

    def extend(order: tuple[int, ...], rest: tuple[int, ...], r: int, s: int):
        u = order[-1]
        out, row = num[u], allowed[u]
        if len(rest) == 1:
            v = rest[0]
            if row[v] and home[v]:
                yield (*order, v), r * out[v] * home_r[v], s * num[v][u] * home_s[v]
            return
        for k, v in enumerate(rest):
            if row[v]:
                yield from extend((*order, v), rest[:k] + rest[k + 1 :], r * out[v], s * num[v][u])

    return extend((0,), tuple(range(1, len(num))), 1, 1)


def enumerate_cycles(
    a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP
) -> tuple[tuple[HamiltonianCycle, ...], tuple[HamiltonianCycle, ...]]:
    """Split all cycles by entry product: (product < 1, product == 1).

    The two tuples are disjoint and each keeps the walker's lexicographic
    order.  Cycles at product exactly 1 come with their reversals, which
    also sit at 1; cycles above 1 are the reversals of the sub-unit ones and
    are dropped.  Each product is compared with 1 as its integer numerator
    against its denominator.
    """
    _refuse_beyond_cap(a.n, cap)
    below_one: list[HamiltonianCycle] = []
    unit: list[HamiltonianCycle] = []
    complete = [(True,) * a.n] * a.n
    cycle = HamiltonianCycle._unchecked
    for order, r, s in _walk(a._numerators, complete):
        if r < s:
            below_one.append(cycle(order))
        elif r == s:
            unit.append(cycle(order))
    return tuple(below_one), tuple(unit)


class Decomposition(Record):
    """Cone cover of the efficient set of a matrix.

    ``cones`` holds one cone per sub-unit-product cycle, in enumeration
    order.  ``unit_cycles`` lists the cycles sitting exactly at product 1,
    whose single-ray cones are contained in cones already listed.  For a
    consistent matrix both are empty and ``ray`` carries the one efficient
    direction.
    """

    matrix: ReciprocalMatrix
    cones: tuple[EfficiencyCone, ...]
    unit_cycles: tuple[HamiltonianCycle, ...]
    ray: Vec | None
    __slots__ = _fields = ("matrix", "cones", "unit_cycles", "ray")

    def __init__(self, matrix, cones, unit_cycles, ray=None) -> None:
        self._set(matrix, cones, unit_cycles, ray)


def decompose(a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP) -> Decomposition:
    """Full cone decomposition of the efficient set of ``a``; rays come on first read."""
    if is_consistent(a):
        return Decomposition(matrix=a, cones=(), unit_cycles=(), ray=normalize(a.column(0)))
    below_one, unit = enumerate_cycles(a, cap)
    cones = tuple(EfficiencyCone(a, c) for c in below_one)  # the walk put each product below 1
    return Decomposition(matrix=a, cones=cones, unit_cycles=unit)


def membership(d: Decomposition, w: Sequence[Fraction]) -> HamiltonianCycle | None:
    """First cone (in enumeration order) containing w, or None.

    None means w is not efficient for the decomposed matrix, which
    ``is_efficient`` decides first: without strong connectivity the
    dominance digraph g(w) has no Hamiltonian cycle at all, and no table
    is built.  The cone of a cycle contains an efficient w exactly when
    g(w) contains the cycle, so the answer is the first cycle of g(w) with
    product below 1, walked over the full table; ``d.cones`` is not read.
    Every cycle of a consistent matrix has product 1, so there the walk
    takes the first cycle of g(w): g(w) is strongly connected only on the
    ray, where it is complete, so members report the rotation
    0 -> 1 -> ... -> n-1 -> 0.
    """
    if not is_efficient(d.matrix, w).efficient:
        return None
    walk = _walk(d.matrix._numerators, build_digraph(d.matrix, w).adjacency)
    order = next((order for order, r, s in walk if r < s or d.ray is not None), None)
    return None if order is None else HamiltonianCycle._unchecked(order)


class ConvexityReport(Record):
    """Verdict on convexity of the efficient set: "convex" or "non_convex".

    A "non_convex" verdict carries a checked witness (u, v, t): both
    endpoints efficient, the blend t*u + (1-t)*v not.  A "convex" verdict
    carries ``shared_edges``, the edges (i, j) that the dominance digraph of
    every extreme ray contains; they form a strongly connected digraph.
    """

    verdict: str
    reason: str
    witness: tuple[Vec, Vec, Fraction] | None
    shared_edges: tuple[tuple[int, int], ...] | None
    __slots__ = _fields = ("verdict", "reason", "witness", "shared_edges")

    def __init__(self, verdict, reason, witness=None, shared_edges=None) -> None:
        self._set(verdict, reason, witness, shared_edges)


# The witness search: seeded draws of blends of two cones' extreme rays.
_DRAWS = 1000
_SEED = 0
_BLEND_WEIGHTS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _reaches_all(adjacency: Sequence[Sequence[bool]]) -> bool:
    """Whether every vertex is reached from vertex 0 along the edges."""
    n = len(adjacency)
    seen = {0}
    for _ in range(n - 1):  # a path visits at most n - 1 further vertices
        seen |= {j for i in seen for j in range(n) if adjacency[i][j]}
    return len(seen) == n


def convexity_report(d: Decomposition) -> ConvexityReport:
    """Convexity verdict for the efficient set of the decomposed matrix.

    First, up to ``_DRAWS`` seeded draws of a blend of extreme rays from two
    distinct cones; an inefficient blend proves the set non-convex.  Then
    the edges shared by every ray's dominance digraph: each is a linear
    inequality, so every point of the rays' hull keeps them, and when they
    are strongly connected the whole hull is efficient and is the set.
    Raises CapExceededError when neither step settles the question.
    """
    a = d.matrix
    cones = d.cones
    rng = random.Random(_SEED)
    for _ in range(_DRAWS if len(cones) > 1 else 0):
        i, j = rng.sample(range(len(cones)), 2)
        u, v = rng.choice(cones[i].extremes), rng.choice(cones[j].extremes)
        t = rng.choice(_BLEND_WEIGHTS)
        blend = tuple(t * ui + (1 - t) * vi for ui, vi in zip(u, v))
        if not proportional(u, v) and not is_efficient(a, blend).efficient:
            return ConvexityReport(verdict="non_convex", reason="witness", witness=(u, v, t))
    rays = [d.ray] if d.ray is not None else dict.fromkeys(r for c in cones for r in c.extremes)
    shared = common_digraph(a, rays)
    if _reaches_all(shared) and _reaches_all(tuple(zip(*shared))):
        edges = tuple((i, j) for i, row in enumerate(shared) for j, has in enumerate(row) if has and i != j)
        return ConvexityReport(verdict="convex", reason="shared-edges", shared_edges=edges)
    raise CapExceededError(
        f"convexity undecided: no witness in {_DRAWS} blend draws, "
        "and the rays' shared edges are not strongly connected"
    )
