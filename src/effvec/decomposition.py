"""Decomposing the efficient set into cycle cones.

For an inconsistent matrix, the efficient vectors are exactly the union of
the cones of Hamiltonian cycles whose entry product is strictly below 1;
cycles at product exactly 1 contribute single rays already absorbed by that
union.  One depth-first walker lists the cycles anchored at vertex 0 through
a given set of edges, in lexicographic order, with each product carried as
integer prefix products; it is one lazy loop, so a caller that stops at
the first cycle pays only for the paths tried before it.  Over all edges
it visits the (n-1)! cycles once and splits them into the sub-unit and the
unit cycles; that enumeration is refused beyond a configurable cap instead
of silently taking forever.  A decomposition keeps the walk's cycle orders
and builds its cone and cycle records on first read.  A vector lies in a
cycle's cone exactly when every cycle edge is an edge of its dominance
digraph, so membership walks only that digraph's edges.  The efficient set
is convex exactly when it is the hull of all the cones' extreme rays: an
inefficient blend of two rays, each built alone, disproves it, and the
edges of ``common_digraph`` over the rays, strongly connected, prove it.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Iterator, Sequence

from .cones import EfficiencyCone, _ray
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
    r and s multiply ``num[i][j]`` and ``num[j][i]`` over the edges.  The
    walk is one loop over a mutable path: ``rest`` holds the unvisited
    vertices in increasing order, and each depth keeps its prefix products,
    which every cycle through the path shares, and the index in ``rest`` of
    its next candidate.  It is lazy: taking the first cycle reads no row
    beyond that cycle's path and its dead ends.
    """
    n = len(num)
    # The closing edge v -> 0: whether it is allowed, and its r and s factors.
    home = [row[0] for row in allowed]
    home_r = [row[0] for row in num]
    home_s = num[0]
    rest = list(range(1, n))
    path = [0] * n
    R, S = [1] * n, [1] * n  # R[d], S[d]: products over the edges of path[:d]
    at = [0] * n  # at[d]: where path[d] stood in ``rest``
    last = n - 1
    d, k = 1, 0  # fill position d, trying rest[k] next
    while True:
        u = path[d - 1]
        row = allowed[u]
        if d == last:
            v = rest[0]
            if row[v] and home[v]:
                path[d] = v
                yield tuple(path), R[d] * num[u][v] * home_r[v], S[d] * num[v][u] * home_s[v]
        else:
            m = n - d
            while k < m and not row[rest[k]]:
                k += 1
            if k < m:
                v = path[d] = rest.pop(k)
                at[d] = k
                R[d + 1] = R[d] * num[u][v]
                S[d + 1] = S[d] * num[v][u]
                d, k = d + 1, 0
                continue
        # Position d is exhausted: put back the vertex before it and try the next.
        d -= 1
        if not d:
            return
        k = at[d]
        rest.insert(k, path[d])
        k += 1


def _split(a: ReciprocalMatrix, cap: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Orders of all cycles by entry product: (product < 1, product == 1).

    Each list keeps the walker's lexicographic order.  Cycles above 1 are
    the reversals of the sub-unit ones and are dropped.  Each product is
    compared with 1 as its integer numerator against its denominator.
    """
    _refuse_beyond_cap(a.n, cap)
    below_one: list[tuple[int, ...]] = []
    unit: list[tuple[int, ...]] = []
    complete = [(True,) * a.n] * a.n
    for order, r, s in _walk(a._numerators, complete):
        if r < s:
            below_one.append(order)
        elif r == s:
            unit.append(order)
    return below_one, unit


def enumerate_cycles(
    a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP
) -> tuple[tuple[HamiltonianCycle, ...], tuple[HamiltonianCycle, ...]]:
    """Split all cycles by entry product: (product < 1, product == 1).

    The two tuples are disjoint and each keeps the walker's lexicographic
    order.  Cycles at product exactly 1 come with their reversals, which
    also sit at 1; cycles above 1 are the reversals of the sub-unit ones and
    are dropped.
    """
    below_one, unit = _split(a, cap)
    cycle = HamiltonianCycle._unchecked
    return tuple(map(cycle, below_one)), tuple(map(cycle, unit))


class Decomposition(Record):
    """Cone cover of the efficient set of a matrix.

    ``cones`` holds one cone per sub-unit-product cycle, in enumeration
    order.  ``unit_cycles`` lists the cycles sitting exactly at product 1,
    whose single-ray cones are contained in cones already listed.  For a
    consistent matrix both are empty and ``ray`` carries the one efficient
    direction.  ``cone_orders`` and ``unit_orders`` are the cycle orders
    of both, as int tuples.  ``decompose`` sets only the orders, and the
    records of ``cones`` and ``unit_cycles`` are built when each is first
    read, so a caller that counts or walks the orders builds none; a
    decomposition built from its records reads their orders on first use.
    Equality, hash, repr and copies read the records.
    """

    matrix: ReciprocalMatrix
    ray: Vec | None
    _fields = ("matrix", "cones", "unit_cycles", "ray")

    def __init__(self, matrix, cones, unit_cycles, ray=None) -> None:
        self._set(matrix, cones, unit_cycles, ray)

    @functools.cached_property
    def cones(self) -> tuple[EfficiencyCone, ...]:
        return tuple(EfficiencyCone(self.matrix, HamiltonianCycle._unchecked(o)) for o in self.cone_orders)

    @functools.cached_property
    def unit_cycles(self) -> tuple[HamiltonianCycle, ...]:
        return tuple(map(HamiltonianCycle._unchecked, self.unit_orders))

    @functools.cached_property
    def cone_orders(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cone.cycle.order for cone in self.cones)

    @functools.cached_property
    def unit_orders(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cycle.order for cycle in self.unit_cycles)


def decompose(a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP) -> Decomposition:
    """Full cone decomposition of the efficient set of ``a``: the walk's
    orders, with records on first read of ``cones`` and ``unit_cycles`` and
    rays on first read of a cone's ``extremes``."""
    if is_consistent(a):
        return Decomposition(matrix=a, cones=(), unit_cycles=(), ray=normalize(a.column(0)))
    below_one, unit = _split(a, cap)
    d = Decomposition.__new__(Decomposition)
    d.__dict__.update(matrix=a, ray=None, cone_orders=tuple(below_one), unit_orders=tuple(unit))
    return d


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
    distinct cones; an inefficient blend proves the set non-convex.  A draw
    picks two cycle orders and a ray index for each, builds just those two
    rays with ``_ray`` and forms each blend component as one Fraction from
    integer cross products; no cone record is read.  Then the edges shared
    by every ray's dominance digraph: each is a linear inequality, so every
    point of the rays' hull keeps them, and when they are strongly
    connected the whole hull is efficient and is the set.  Raises
    CapExceededError when neither step settles the question.
    """
    a = d.matrix
    orders = d.cone_orders
    positions = range(a.n)  # every sub-unit cone has n rays
    rng = random.Random(_SEED)
    for _ in range(_DRAWS if len(orders) > 1 else 0):
        i, j = rng.sample(range(len(orders)), 2)
        u, v = _ray(a, orders[i], rng.choice(positions)), _ray(a, orders[j], rng.choice(positions))
        t = rng.choice(_BLEND_WEIGHTS)
        p, q = t.numerator, t.denominator
        blend = tuple(
            Fraction(
                p * x.numerator * y.denominator + (q - p) * y.numerator * x.denominator,
                q * x.denominator * y.denominator,
            )
            for x, y in zip(u, v)
        )
        if not proportional(u, v) and not is_efficient(a, blend).efficient:
            return ConvexityReport(verdict="non_convex", reason="witness", witness=(u, v, t))
    rays = [d.ray] if d.ray is not None else dict.fromkeys(r for c in d.cones for r in c.extremes)
    shared = common_digraph(a, rays)
    if _reaches_all(shared) and _reaches_all(tuple(zip(*shared))):
        edges = tuple((i, j) for i, row in enumerate(shared) for j, has in enumerate(row) if has and i != j)
        return ConvexityReport(verdict="convex", reason="shared-edges", shared_edges=edges)
    raise CapExceededError(
        f"convexity undecided: no witness in {_DRAWS} blend draws, "
        "and the rays' shared edges are not strongly connected"
    )
