"""Ranking-vector candidates and their efficiency certificates.

Columns of a reciprocal matrix are always efficient; weighted geometric
means of columns are too.  Spectral candidates (the Perron vector and the
left singular vector) come from a float power iteration whose row products
are correctly rounded ``math.fsum`` sums, so they are the same on every
platform.  They are rationalized exactly and can certify either way.  Every
candidate carries the exact certificate computed for the vector actually
returned.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .decomposition import DEFAULT_CYCLE_CAP, _refuse_beyond_cap, _walk
from .digraph import EfficiencyCertificate, HamiltonianCycle, build_digraph, is_efficient
from .errors import CapExceededError, ConvergenceError
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
# Bit length allowed for a scaled radicand of weighted_geometric.  The q-th
# root of a b-bit integer takes on the order of q Newton steps, each a power
# of b bits, so the cost grows with both q and b.
MAX_RADICAND_BITS = 1 << 16


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


def _bit_length(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


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
    approximated to within ``tolerance`` and rationalized.  With q the lcm
    of the weight denominators, the work is refused up front with
    CapExceededError when a radicand scaled by 10**(q * digits) could need
    more than ``MAX_RADICAND_BITS`` bits.
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
    # Row i's radicand has a numerator and a denominator of at most
    # sum_k n_k * (bit lengths of a_ik and a_0k) bits together, and the
    # decimal scale adds q * digits * log2(10) < q * digits * 3.3220 bits.
    # Integers only: q may be far beyond the float range.
    top = a.entries[0]
    entry_bits = max(
        sum(m * (_bit_length(row[k]) + _bit_length(top[k])) for k, m in enumerate(numerators))
        for row in a.entries
    )
    if entry_bits + q * digits * 33220 // 10000 > MAX_RADICAND_BITS:
        raise CapExceededError(
            "weighted geometric mean refused: its roots would need radicands of more than "
            f"{MAX_RADICAND_BITS} bits; use weights with smaller denominators or a coarser tolerance"
        )

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


def _power_iteration(rows: list[list[float]], tolerance: Fraction) -> list[float]:
    """Iterate x -> A x / max(A x) until the ratios of successive iterates
    spread by less than ``tolerance``.

    ``math.fsum`` rounds each row product correctly, so the iterates do not
    depend on the platform or the Python version (``sum`` of floats rounds
    differently from 3.12 on).  An iterate with a zero or non-finite
    component has left the float range, and the loop stops there.
    """
    tol = float(tolerance)
    x = [1.0] * len(rows)
    delta = math.inf
    for iteration in range(1, MAX_ITERATIONS + 1):
        try:
            y = [math.fsum(map(operator.mul, row, x)) for row in rows]
        except OverflowError:  # an intermediate sum beyond the float range
            raise ConvergenceError(iteration, delta) from None
        ratios = [yi / xi for yi, xi in zip(y, x)]
        delta = max(ratios) / min(ratios) - 1.0
        top = max(y)
        x = [yi / top for yi in y]
        if not all(0.0 < xi < math.inf for xi in x):
            raise ConvergenceError(iteration, delta)
        if delta < tol:
            return x
    raise ConvergenceError(MAX_ITERATIONS, delta)


def _spectral_candidate(
    a: ReciprocalMatrix,
    exact_rows: list[list[Fraction]],
    method: str,
    tolerance: Fraction,
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
        matrix = [[float(v) for v in row] for row in exact_rows]
    except OverflowError:
        raise ValueError(
            f"{method} power iteration needs entries within the float range (about 1.8e308)"
        ) from None
    approx = _power_iteration(matrix, tolerance)
    vec = normalize(tuple(Fraction(value) for value in approx))
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
) -> RankingCandidate:
    """Rationalized principal eigenvector by power iteration.

    Convergence is measured scale-free: the spread of the entrywise ratio
    between successive iterates must drop below ``tolerance``.  The residual
    is evaluated exactly against the rational matrix.
    """
    rows = [list(row) for row in a.entries]
    return _spectral_candidate(a, rows, "perron", tolerance)


def _gram(a: ReciprocalMatrix) -> list[list[Fraction]]:
    """A A^T, built on integers.

    Row i of A is N_i / L_i, with L_i the lcm of the row's denominators (the
    numerators ``num[k][i]`` of its transpose), so entry (i, j) is
    sum_k N_ik N_jk / (L_i L_j).
    """
    n = a.n
    num = a._numerators
    lcms = [math.lcm(*(num[k][i] for k in range(n))) for i in range(n)]
    scaled = [[num[i][k] * (lcms[i] // num[k][i]) for k in range(n)] for i in range(n)]
    return [
        [Fraction(sum(map(operator.mul, scaled[i], scaled[j])), lcms[i] * lcms[j]) for j in range(n)]
        for i in range(n)
    ]


def singular_vector(
    a: ReciprocalMatrix,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> RankingCandidate:
    """Rationalized left singular vector: power iteration on A A^T."""
    return _spectral_candidate(a, _gram(a), "singular", tolerance)


def columns_common_cone(
    a: ReciprocalMatrix, cap: int = DEFAULT_CYCLE_CAP
) -> HamiltonianCycle | None:
    """A cycle whose cone contains every column of the matrix, if one exists.

    When found, the whole conic hull of the columns is efficient, so any
    weighted geometric or arithmetic column blend is safe.  The first
    qualifying cycle in enumeration order is returned: the first cycle of
    the walk through the edges every column digraph shares.  A cycle whose
    edges a positive vector satisfies has product at most 1, so no product
    test is needed.
    """
    _refuse_beyond_cap(a.n, cap)
    graphs = [build_digraph(a, a.column(j)).adjacency for j in range(a.n)]
    # Row i of the shared digraph: the edges i -> j that every column's has.
    shared = [tuple(map(all, zip(*rows))) for rows in zip(*graphs)]
    first = next(_walk(a._numerators, shared), None)
    return None if first is None else HamiltonianCycle(first[0])
