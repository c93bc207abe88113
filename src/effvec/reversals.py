"""Order reversals between a weight vector and its comparison matrix.

A pair (i, j) reverses order when the vector disagrees with the matrix about
who ranks higher: the matrix prefers j but the vector weakly prefers i (or
conversely), or exactly one of the two expresses a tie.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cones import _rays
from .digraph import HamiltonianCycle
from .matrices import ReciprocalMatrix, Vec, as_weight_vector
from .records import Record

__all__ = ["ReversalReport", "count_reversals", "min_reversal_vector"]

# Reversal kinds: the vector strictly contradicts a strict comparison, the
# vector breaks a tie the matrix expresses, or the vector ties a strict one.
STRICT_FLIP = "strict-flip"
TIE_BROKEN = "tie-broken"
TIE_FORCED = "tie-forced"


class ReversalReport(Record):
    """Reversing pairs of (matrix, vector), with an optional cycle-local count."""

    __slots__ = _fields = ("pairs", "along_cycle")

    def __init__(self, pairs: tuple[tuple[int, int, str], ...], along_cycle: int | None = None) -> None:
        self._set(pairs, along_cycle)

    @property
    def count(self) -> int:
        return len(self.pairs)


def _classify(
    num: Sequence[Sequence[int]], p: Sequence[int], q: Sequence[int], i: int, j: int
) -> str | None:
    """Reversal kind of the pair (i, j), or None; symmetric in i and j.

    With a_ij = num[i][j]/num[j][i] and w_i = p_i/q_i, comparing a_ij with 1
    and w_i with w_j are integer comparisons.
    """
    r, s = num[i][j], num[j][i]
    x, y = p[i] * q[j], p[j] * q[i]
    if r == s:
        return TIE_BROKEN if x != y else None
    if x == y:
        return TIE_FORCED
    return STRICT_FLIP if (r < s) == (x > y) else None


def count_reversals(
    a: ReciprocalMatrix, w: Sequence[Fraction], cycle: HamiltonianCycle | None = None
) -> ReversalReport:
    """Scan all index pairs i < j for order reversals.

    With ``cycle`` given, also counts how many of the cycle's edge pairs
    reverse (each unordered pair counted once).
    """
    vec = as_weight_vector(w)
    n = a.n
    if len(vec) != n:
        raise ValueError("vector length does not match matrix dimension")
    p = [v.numerator for v in vec]
    q = [v.denominator for v in vec]
    num = a._numerators
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            kind = _classify(num, p, q, i, j)
            if kind is not None:
                pairs.append((i, j, kind))
    along = None
    if cycle is not None:
        if cycle.n != n:
            raise ValueError("cycle length does not match matrix dimension")
        joined = {(min(edge), max(edge)) for edge in cycle.edges()}  # two edges at n = 2
        along = sum(1 for i, j, _ in pairs if (i, j) in joined)
    return ReversalReport(pairs=tuple(pairs), along_cycle=along)


def min_reversal_vector(a: ReciprocalMatrix, cycle: HamiltonianCycle) -> tuple[Vec, int]:
    """Efficient vector from ``cycle``'s cone minimizing reversals along it.

    It is the cone's extreme ray that leaves the cycle's first largest entry
    e_k slack.  One pass over the cycle finds k, by integer cross products,
    and the cycle product; ``_rays`` then builds that ray alone.  The
    cycle-local reversal count is 0 exactly when some entry along the cycle
    exceeds 1 or the cycle product equals 1; otherwise it is 1, and no
    vector of the cone does better.
    """
    num, order = a._numerators, cycle.order
    if len(order) != len(num):
        raise ValueError("cycle length does not match matrix dimension")
    r = s = 1
    top, top_r, top_s = 0, 0, 1
    src = order[0]
    for t, dst in enumerate((*order[1:], src)):
        x, y = num[src][dst], num[dst][src]
        if x * top_s > top_r * y:
            top, top_r, top_s = t, x, y
        r *= x
        s *= y
        src = dst
    if r > s:
        raise ValueError("cycle product exceeds 1; the cone is empty")
    (ray,) = _rays(a, order, top, top)
    return ray, int(r < s and top_r <= top_s)
