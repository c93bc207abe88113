"""Ranking-vector candidates and their efficiency certificates.

Columns of a reciprocal matrix are always efficient; weighted geometric
means of columns are too.  Spectral candidates (the Perron vector and the
left singular vector) come from floating power iteration, are rationalized
exactly, and can certify either way.  Every candidate carries the exact
certificate computed for the vector actually returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .decomposition import DEFAULT_CYCLE_CAP, all_cycles
from .digraph import EfficiencyCertificate, HamiltonianCycle, build_digraph, is_efficient
from .errors import ConvergenceError
from .matrices import ReciprocalMatrix, Vec, is_consistent, normalize
from .rationals import nth_root_exact, nth_root_floor

__all__ = [
    "RankingCandidate",
    "column_vector",
    "weighted_geometric",
    "perron_vector",
    "singular_vector",
    "columns_common_cone",
]

DEFAULT_TOLERANCE = Fraction(1, 10**12)
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class RankingCandidate:
    """A proposed ranking vector with its exact efficiency certificate.

    ``exact`` records whether the vector is the mathematically exact object
    or a rationalized approximation; ``residual`` reports the exact spectral
    defect max|A v - lambda v| / max|v| for spectral candidates.
    """

    method: str
    vector: Vec
    certificate: EfficiencyCertificate
    exact: bool
    residual: Fraction | None = None


def column_vector(a: ReciprocalMatrix, k: int) -> RankingCandidate:
    """Column k (0-based) as a ranking candidate (always efficient).

    The method label uses the 1-based index, matching report conventions.
    """
    vec = normalize(a.column(k))
    return RankingCandidate(
        method=f"column-{k + 1}",
        vector=vec,
        certificate=is_efficient(a, vec),
        exact=True,
    )


def _decimal_places(tolerance: Fraction) -> int:
    """Smallest d >= 0 with tolerance >= 10**-d, on the integer numerator
    and denominator, so a tolerance below the float range still counts."""
    p, q = tolerance.numerator, tolerance.denominator
    # log10(q/p) > (q.bit_length() - p.bit_length() - 1) * log10(2), so the
    # start is below the answer and the loop takes a few steps.
    d = max(0, (q.bit_length() - p.bit_length()) * 30102 // 100000 - 1)
    while p * 10**d < q:
        d += 1
    return d


def _approx_root(value: Fraction, q: int, digits: int) -> Fraction:
    """The q-th root of value floored to ``digits`` decimals, with the
    digits doubled until the floor is positive, so tiny roots stay weights."""
    while True:
        scaled = (value.numerator * 10 ** (q * digits)) // value.denominator
        root = nth_root_floor(scaled, q)
        if root:
            return Fraction(root, 10**digits)
        digits *= 2


def weighted_geometric(
    a: ReciprocalMatrix,
    weights: Sequence[Fraction] | None = None,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> RankingCandidate:
    """Entrywise weighted geometric mean of the columns.

    ``weights`` are nonnegative rationals summing to 1 (default: equal).
    The normalized mean has components (prod_k (a[i][k]/a[0][k])^weights[k]);
    each is computed exactly when its radicand is a perfect power, otherwise
    approximated to within ``tolerance`` and rationalized.
    """
    n = a.n
    if weights is None:
        weights = tuple(Fraction(1, n) for _ in range(n))
    if len(weights) != n:
        raise ValueError("weight count does not match matrix dimension")
    if any(t < 0 for t in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative rationals summing to 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")

    q = math.lcm(*(t.denominator for t in weights))
    numerators = [t.numerator * (q // t.denominator) for t in weights]
    digits = _decimal_places(tolerance) + 2

    components: list[Fraction] = []
    exact = True
    for i in range(n):
        radicand = Fraction(1)
        for k in range(n):
            if numerators[k]:
                radicand *= (a.entries[i][k] / a.entries[0][k]) ** numerators[k]
        root = nth_root_exact(radicand, q)
        if root is None:
            exact = False
            root = _approx_root(radicand, q, digits)
        components.append(root)

    vec = normalize(components)
    return RankingCandidate(
        method="weighted-geometric",
        vector=vec,
        certificate=is_efficient(a, vec),
        exact=exact,
    )


def _power_iteration(
    matrix: np.ndarray, tolerance: Fraction, max_iterations: int
) -> np.ndarray:
    tol = float(tolerance)
    x = np.ones(matrix.shape[0])
    delta = math.inf
    for _ in range(max_iterations):
        y = matrix @ x
        ratios = y / x
        delta = ratios.max() / ratios.min() - 1.0
        x = y / y.max()
        if delta < tol:
            return x
    raise ConvergenceError(max_iterations, delta)


def _spectral_candidate(
    a: ReciprocalMatrix,
    exact_rows: list[list[Fraction]],
    method: str,
    tolerance: Fraction,
    max_iterations: int,
) -> RankingCandidate:
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if tolerance <= Fraction(1, 2**52):
        # The iteration's relative change bottoms out near float epsilon.
        raise ValueError(f"{method} tolerance must exceed float epsilon 2**-52 (about 2.2e-16)")
    if is_consistent(a):
        # The efficient set of a consistent matrix is a single ray; only the
        # exact column direction (the exact fixed point) can certify it.
        vec = normalize(a.column(0))
        return RankingCandidate(
            method=method,
            vector=vec,
            certificate=is_efficient(a, vec),
            exact=True,
            residual=Fraction(0),
        )
    try:
        matrix = np.array([[float(v) for v in row] for row in exact_rows])
    except OverflowError:
        raise ValueError(
            f"{method} power iteration needs entries within the float range (about 1.8e308)"
        ) from None
    approx = _power_iteration(matrix, tolerance, max_iterations)
    vec = normalize(tuple(Fraction(float(value)) for value in approx))
    n = len(vec)
    image = [sum(exact_rows[i][j] * vec[j] for j in range(n)) for i in range(n)]
    lam = max(image[i] / vec[i] for i in range(n))
    residual = max(abs(image[i] - lam * vec[i]) for i in range(n)) / max(vec)
    return RankingCandidate(
        method=method,
        vector=vec,
        certificate=is_efficient(a, vec),
        exact=False,
        residual=residual,
    )


def perron_vector(
    a: ReciprocalMatrix,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> RankingCandidate:
    """Rationalized principal eigenvector by power iteration.

    Convergence is measured scale-free: the spread of the entrywise ratio
    between successive iterates must drop below ``tolerance``.  The residual
    is evaluated exactly against the rational matrix.
    """
    rows = [list(row) for row in a.entries]
    return _spectral_candidate(a, rows, "perron", tolerance, max_iterations)


def singular_vector(
    a: ReciprocalMatrix,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> RankingCandidate:
    """Rationalized left singular vector: power iteration on A A^T."""
    n = a.n
    e = a.entries
    gram = [[sum(e[i][k] * e[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return _spectral_candidate(a, gram, "singular", tolerance, max_iterations)


def columns_common_cone(
    a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP
) -> HamiltonianCycle | None:
    """A cycle whose cone contains every column of the matrix, if one exists.

    When found, the whole conic hull of the columns is efficient, so any
    weighted geometric or arithmetic column blend is safe.  The first
    qualifying cycle in enumeration order is returned.  A cycle whose edges
    a positive vector satisfies has product at most 1, so no product test
    is needed.
    """
    graphs = [build_digraph(a, a.column(j)) for j in range(a.n)]
    for cycle in all_cycles(a.n, cap):
        edges = cycle.edges()
        if all(g.has_edge(i, j) for g in graphs for i, j in edges):
            return cycle
    return None
