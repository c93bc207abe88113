"""Brute-force cross-checks, independent of the graph criterion.

These routines exist to validate the fast paths: a factorial Hamiltonian
search over raw adjacency, and an exponential subset-scaling search that
refutes efficiency straight from the definition.  Both are oracles for
small n only and refuse n above ``EXHAUSTIVE_LIMIT``.  A found dominator is
always re-validated entrywise by ``probe``, and the subset search is
complete: it finds a dominator exactly when one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .digraph import DominanceDigraph, HamiltonianCycle
from .matrices import ReciprocalMatrix, Vec, as_weight_vector, proportional

__all__ = ["DominanceProbe", "exhaustive_hamiltonian", "dominance_search", "probe"]

EXHAUSTIVE_LIMIT = 8


def exhaustive_hamiltonian(g: DominanceDigraph) -> HamiltonianCycle | None:
    """Try all (n-1)! anchored vertex orders; first cycle fully present wins."""
    n = g.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search limited to n <= {EXHAUSTIVE_LIMIT}")
    for rest in itertools.permutations(range(1, n)):
        order = (0,) + rest
        if all(g.has_edge(order[t], order[(t + 1) % n]) for t in range(n)):
            return HamiltonianCycle(order)
    return None


@dataclass(frozen=True)
class DominanceProbe:
    """Entrywise comparison of two candidate vectors against a matrix.

    ``candidate`` dominates ``base`` when every absolute deviation
    |a[i][j] - v[i]/v[j]| is at most the base's, at least one is strictly
    smaller, and the vectors are not proportional.
    """

    base: Vec
    candidate: Vec
    weak: bool
    strict_positions: tuple[tuple[int, int], ...]
    proportional: bool

    @property
    def dominates(self) -> bool:
        return self.weak and bool(self.strict_positions) and not self.proportional


def probe(a: ReciprocalMatrix, base: Sequence[Fraction], candidate: Sequence[Fraction]) -> DominanceProbe:
    """Exact entrywise dominance comparison."""
    w = as_weight_vector(base)
    v = as_weight_vector(candidate)
    n = a.n
    if len(w) != n or len(v) != n:
        raise ValueError("vector length does not match matrix dimension")
    weak = True
    strict: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dev_w = abs(a.entries[i][j] - w[i] / w[j])
            dev_v = abs(a.entries[i][j] - v[i] / v[j])
            if dev_v > dev_w:
                weak = False
            elif dev_v < dev_w:
                strict.append((i, j))
    return DominanceProbe(
        base=tuple(w),
        candidate=tuple(v),
        weak=weak,
        strict_positions=tuple(strict),
        proportional=proportional(w, v),
    )


def dominance_search(a: ReciprocalMatrix, w: Sequence[Fraction]) -> Vec | None:
    """A vector dominating w, found by scaling vertex subsets; None if none exists.

    w is inefficient exactly when some nonempty proper subset T has every
    cross pair slack, ``w_i > a_ij * w_j`` for i in T and j outside.  Scaling
    T by its tightest cross factor, the largest ``a_ij * w_j / w_i``, then
    beats w entrywise.  So trying every subset in order of size is
    complete; each candidate is validated by ``probe`` before it is
    returned.  Refuses n above ``EXHAUSTIVE_LIMIT``.
    """
    base = as_weight_vector(w)
    n = a.n
    if len(base) != n:
        raise ValueError("vector length does not match matrix dimension")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search limited to n <= {EXHAUSTIVE_LIMIT}")
    e = a.entries
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            factor = max(
                e[i][j] * base[j] / base[i] for i in subset for j in range(n) if j not in inside
            )
            if factor == 1:
                continue
            candidate = tuple(v * factor if t in inside else v for t, v in enumerate(base))
            if probe(a, base, candidate).dominates:
                return candidate
    return None
