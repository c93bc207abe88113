"""Ranking-vector candidates and their efficiency certificates.

Columns of a reciprocal matrix are always efficient; weighted geometric
means of columns are too.  Spectral candidates (the Perron vector and the
left singular vector) come from a float power iteration whose row products
are correctly rounded ``math.fsum`` sums, so they are the same on every
platform.  They are rationalized exactly and can certify either way.  Every
candidate carries the exact certificate computed for the vector actually
returned.

The exact side work runs on the integer numerator table of the matrix: each
row of A, and of the gram A A^T, is a row of integers over one denominator.
Column candidates and geometric radicands are single integer quotients, the
spectral residual is one integer dot product per row, and the float matrix
of the power iteration comes from correctly rounded integer divisions, so
it equals the rounding of every exact entry.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .decomposition import DEFAULT_CYCLE_CAP, _refuse_beyond_cap, _walk
from .digraph import EfficiencyCertificate, HamiltonianCycle, common_digraph, is_efficient
from .errors import CapExceededError, ConvergenceError
from .matrices import ReciprocalMatrix, Vec, is_consistent, normalize
from .rationals import nth_root_exact, nth_root_floor
from .records import Record

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


class RankingCandidate(Record):
    """A proposed ranking vector with its exact efficiency certificate.

    ``exact`` records whether the vector is the mathematically exact object
    or a rationalized approximation; ``residual`` reports the exact spectral
    defect max|A v - lambda v| / max|v| for spectral candidates.
    """

    method: str
    vector: Vec
    certificate: EfficiencyCertificate
    exact: bool
    residual: Fraction | None
    __slots__ = _fields = ("method", "vector", "certificate", "exact", "residual")

    def __init__(self, method, vector, certificate, exact, residual=None) -> None:
        self._set(method, vector, certificate, exact, residual)


def column_vector(a: ReciprocalMatrix, k: int) -> RankingCandidate:
    """Column k (0-based) as a ranking candidate (always efficient).

    The method label uses the 1-based index, matching report conventions.
    """
    if not 0 <= k < a.n:
        raise IndexError(f"column index {k} out of range for n={a.n}")
    num = a._numerators
    # a_ik / a_0k on the table: a_ik = num[i][k] / num[k][i].
    vec = tuple(Fraction(num[i][k] * num[k][0], num[k][i] * num[0][k]) for i in range(a.n))
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


def _radicand(num: Sequence[Sequence[int]], powers: Sequence[int], i: int) -> Fraction:
    """prod_k (a_ik / a_0k)^powers[k] from the numerator table: one integer
    numerator and one denominator, reduced once."""
    top = bottom = 1
    for k, m in enumerate(powers):
        if m:
            top *= (num[i][k] * num[k][0]) ** m
            bottom *= (num[k][i] * num[0][k]) ** m
    return Fraction(top, bottom)


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
    num = a._numerators
    bits = [[x.bit_length() for x in row] for row in num]
    # Entry (i, k) of a reciprocal matrix has bit length bits[i][k] + bits[k][i].
    entry_bits = max(
        sum(m * (bits[i][k] + bits[k][i] + bits[0][k] + bits[k][0]) for k, m in enumerate(numerators))
        for i in range(n)
    )
    if entry_bits + q * digits * 33220 // 10000 > MAX_RADICAND_BITS:
        raise CapExceededError(
            "weighted geometric mean refused: its roots would need radicands of more than "
            f"{MAX_RADICAND_BITS} bits; use weights with smaller denominators or a coarser tolerance"
        )

    components: list[Fraction] = []
    exact = True
    for i in range(n):
        radicand = _radicand(num, numerators, i)
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
    # A tolerance beyond the float range stops as the largest float does.
    tol = float(min(tolerance, sys.float_info.max))
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


def _integer_rows(a: ReciprocalMatrix) -> tuple[list[list[int]], list[int]]:
    """Row i of A as integers N_i over one denominator L_i.

    L_i is the lcm of the row's denominators, which are the numerators
    ``num[k][i]`` of its transpose, so a_ik = N_ik / L_i.
    """
    n = a.n
    num = a._numerators
    lcms = [math.lcm(*(num[k][i] for k in range(n))) for i in range(n)]
    rows = [[num[i][k] * (lcms[i] // num[k][i]) for k in range(n)] for i in range(n)]
    return rows, lcms


# A spectral matrix on integers: (K, R, S) stands for the matrix with entry
# (i, j) equal to K_ij / (R_i S_j).
_IntegerMatrix = tuple[list[list[int]], list[int], list[int]]


def _gram(a: ReciprocalMatrix) -> _IntegerMatrix:
    """A A^T, whose entry (i, j) is N_i . N_j / (L_i L_j); the integer dot
    products form a symmetric table, so each is computed once."""
    rows, lcms = _integer_rows(a)
    n = a.n
    gram = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, row, rows[j]))
    return gram, lcms, lcms


def _residual(m: _IntegerMatrix, vec: Vec) -> Fraction:
    """The exact spectral defect max|M v - lambda v| / max|v|, with lambda
    the largest ratio (M v)_i / v_i.

    The defect does not change when v is scaled, so v is scaled to integers
    c_j and divided by each column denominator S_j over their lcm P: then
    (M v)_i / v_i = s_i / (R_i P c_i), with s_i one integer dot product.
    """
    rows, row_den, col_den = m
    d = math.lcm(*(v.denominator for v in vec))
    p = math.lcm(*col_den)
    c = [v.numerator * (d // v.denominator) for v in vec]
    scaled = [cj * (p // sj) for cj, sj in zip(c, col_den)]
    image = [sum(map(operator.mul, row, scaled)) for row in rows]
    lam = max(Fraction(si, r * p * ci) for si, r, ci in zip(image, row_den, c))
    return max(abs(Fraction(si, r * p) - lam * ci) for si, r, ci in zip(image, row_den, c)) / max(c)


def _spectral_candidate(
    a: ReciprocalMatrix,
    build: Callable[[ReciprocalMatrix], _IntegerMatrix],
    method: str,
    tolerance: Fraction,
) -> RankingCandidate:
    """Power iteration on ``build(a)``, which only an inconsistent matrix needs."""
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
    exact = build(a)
    rows, row_den, col_den = exact
    try:
        # Integer true division is correctly rounded, as float(Fraction) is.
        floats = [[k / (r * s) for k, s in zip(row, col_den)] for row, r in zip(rows, row_den)]
    except OverflowError:
        raise ValueError(
            f"{method} power iteration needs entries within the float range (about 1.8e308)"
        ) from None
    approx = _power_iteration(floats, tolerance)
    vec = normalize(tuple(Fraction(value) for value in approx))
    return RankingCandidate(
        method=method,
        vector=vec,
        certificate=is_efficient(a, vec),
        exact=False,
        residual=_residual(exact, vec),
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
    return _spectral_candidate(a, lambda a: (*_integer_rows(a), [1] * a.n), "perron", tolerance)


def singular_vector(
    a: ReciprocalMatrix,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> RankingCandidate:
    """Rationalized left singular vector: power iteration on A A^T."""
    return _spectral_candidate(a, _gram, "singular", tolerance)


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
    shared = common_digraph(a, (a.column(j) for j in range(a.n)))
    first = next(_walk(a._numerators, shared), None)
    return None if first is None else HamiltonianCycle._unchecked(first[0])
