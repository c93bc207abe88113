"""Decomposing the efficient set into cycle cones.

For an inconsistent matrix, the efficient vectors are exactly the union of
the cones of Hamiltonian cycles whose entry product is strictly below 1;
cycles at product exactly 1 contribute single rays already absorbed by that
union.  Enumeration walks all (n-1)! cycles anchored at vertex 0, which is
refused beyond a configurable cap instead of silently taking forever, and
splits them once into the sub-unit and the unit cycles.  A vector lies in a
cycle's cone exactly when every cycle edge is an edge of its dominance
digraph.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .cones import EfficiencyCone, _chain, efficiency_cone
from .digraph import HamiltonianCycle, build_digraph, is_efficient
from .errors import CapExceededError
from .matrices import ReciprocalMatrix, Vec, is_consistent, normalize, proportional

__all__ = [
    "DEFAULT_CYCLE_CAP",
    "Decomposition",
    "ConvexityReport",
    "all_cycles",
    "enumerate_cycles",
    "decompose",
    "membership",
    "convexity_report",
]

DEFAULT_CYCLE_CAP = 10


def all_cycles(n: int, cap: int = DEFAULT_CYCLE_CAP) -> Iterator[HamiltonianCycle]:
    """All (n-1)! directed Hamiltonian cycles anchored at vertex 0, in
    lexicographic order of the remaining vertices."""
    if n > cap:
        raise CapExceededError(
            f"enumeration over (n-1)! cycles refused for n={n} (cap {cap}); raise the cap explicitly"
        )
    for rest in itertools.permutations(range(1, n)):
        yield HamiltonianCycle((0,) + rest)


def enumerate_cycles(
    a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP
) -> tuple[tuple[HamiltonianCycle, ...], tuple[HamiltonianCycle, ...]]:
    """Split all cycles by entry product: (product < 1, product == 1).

    The two tuples are disjoint and each keeps enumeration order.  Cycles at
    product exactly 1 come with their reversals, which also sit at 1; cycles
    above 1 are the reversals of the sub-unit ones and are dropped.  Each
    product is compared with 1 as its integer numerator against its
    denominator.
    """
    below_one: list[HamiltonianCycle] = []
    unit: list[HamiltonianCycle] = []
    for cycle in all_cycles(a.n, cap):
        R, S = _chain(a, cycle)
        if R[-1] < S[-1]:
            below_one.append(cycle)
        elif R[-1] == S[-1]:
            unit.append(cycle)
    return tuple(below_one), tuple(unit)


@dataclass(frozen=True)
class Decomposition:
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
    ray: Vec | None = None


def decompose(a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP) -> Decomposition:
    """Full cone decomposition of the efficient set of ``a``."""
    if is_consistent(a):
        return Decomposition(matrix=a, cones=(), unit_cycles=(), ray=normalize(a.column(0)))
    below_one, unit = enumerate_cycles(a, cap)
    cones = tuple(efficiency_cone(a, c) for c in below_one)
    return Decomposition(matrix=a, cones=cones, unit_cycles=unit)


def membership(d: Decomposition, w: Sequence[Fraction]) -> HamiltonianCycle | None:
    """First cone (in enumeration order) containing w, or None.

    None means w is not efficient for the decomposed matrix.  For a
    consistent matrix, members of the single ray report the rotation cycle
    0 -> 1 -> ... -> n-1 -> 0: the dominance digraph contains it exactly
    when w lies on the ray.
    """
    g = build_digraph(d.matrix, w)
    if d.ray is not None:
        cycle = HamiltonianCycle(tuple(range(d.matrix.n)))
        return cycle if all(g.has_edge(i, j) for i, j in cycle.edges()) else None
    return next(
        (c.cycle for c in d.cones if all(g.has_edge(i, j) for i, j, _ in c.inequalities)), None
    )


@dataclass(frozen=True)
class ConvexityReport:
    """Verdict on convexity of the efficient set.

    ``verdict`` is "convex", "non_convex", or "unknown".  A "non_convex"
    verdict carries a checked witness (u, v, t): both endpoints efficient,
    the blend t*u + (1-t)*v not.  "convex" is only claimed on structural
    grounds; a fruitless witness search stays "unknown".
    """

    verdict: str
    reason: str | None = None
    witness: tuple[Vec, Vec, Fraction] | None = None


_BLEND_WEIGHTS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def convexity_report(d: Decomposition, samples: int = 1000, seed: int = 0) -> ConvexityReport:
    """Convexity verdict for the efficient set of the decomposed matrix.

    A single sub-unit cycle (or a consistent matrix) is convex outright.
    Otherwise blends of extreme vectors drawn from distinct cones are tested
    for efficiency; the scan is exhaustive when it fits in ``samples`` draws
    and seeded-random beyond that.
    """
    if d.ray is not None:
        return ConvexityReport(verdict="convex", reason="common-cycle")
    if len(d.cones) == 1:
        return ConvexityReport(verdict="convex", reason="single-cycle")

    a = d.matrix

    def test(u: Vec, v: Vec, t: Fraction) -> ConvexityReport | None:
        if proportional(u, v):
            return None
        blend = tuple(t * ui + (1 - t) * vi for ui, vi in zip(u, v))
        if not is_efficient(a, blend).efficient:
            return ConvexityReport(verdict="non_convex", reason="witness", witness=(u, v, t))
        return None

    # Blends over all pairs of cones: sum of s_i * s_j over i < j, in O(cones).
    sizes = [len(cone.extremes) for cone in d.cones]
    total = len(_BLEND_WEIGHTS) * (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
    if total <= samples:
        for i, j in itertools.combinations(range(len(d.cones)), 2):
            for u in d.cones[i].extremes:
                for v in d.cones[j].extremes:
                    for t in _BLEND_WEIGHTS:
                        found = test(u, v, t)
                        if found:
                            return found
    else:
        # Draw the index of a pair (i, j), i < j, in lexicographic order and
        # decode it; row i starts at starts[i].  choice() over the range
        # draws as it would over the list of pairs, without building it.
        m = len(d.cones)
        starts = [i * m - i * (i + 1) // 2 for i in range(m)]
        pair_indices = range(m * (m - 1) // 2)
        rng = random.Random(seed)
        for _ in range(samples):
            k = rng.choice(pair_indices)
            i = bisect.bisect_right(starts, k) - 1
            j = i + 1 + k - starts[i]
            u = rng.choice(d.cones[i].extremes)
            v = rng.choice(d.cones[j].extremes)
            found = test(u, v, rng.choice(_BLEND_WEIGHTS))
            if found:
                return found
    return ConvexityReport(verdict="unknown")
