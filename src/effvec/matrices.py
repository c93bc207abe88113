"""Reciprocal comparison matrices, weight vectors, and monomial transforms.

A reciprocal matrix holds pairwise comparison ratios: every entry is a
positive rational and ``a[j][i] == 1 / a[i][j]``.  Weight vectors are tuples
of positive Fractions; two vectors that differ by a positive scalar factor
describe the same ranking, so :func:`normalize` fixes the first component
to 1 as the canonical representative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .rationals import rationalize
from .records import Record

__all__ = [
    "Vec",
    "ReciprocalMatrix",
    "MonomialTransform",
    "as_weight_vector",
    "normalize",
    "proportional",
    "consistent_matrix",
    "is_consistent",
    "monomial_similarity",
    "transform_vector",
]

Vec = tuple[Fraction, ...]


def as_weight_vector(values: Iterable[int | float | str | Fraction]) -> Vec:
    """Validate and convert a sequence of positive scalars to a weight vector."""
    vec = tuple(rationalize(v) for v in values)
    if len(vec) < 2:
        raise ValueError("weight vectors need at least two components")
    if any(v.numerator <= 0 for v in vec):
        raise ValueError("weight vector components must be positive")
    return vec


def normalize(w: Sequence[Fraction]) -> Vec:
    """Scale so the first component equals 1 (canonical form)."""
    first = w[0]
    if first <= 0:
        raise ValueError("weight vector components must be positive")
    return tuple(v / first for v in w)


def proportional(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """True when u and v differ only by a positive scalar factor."""
    if len(u) != len(v):
        return False
    return all(u[0] * v[i] == v[0] * u[i] for i in range(len(u)))


class ReciprocalMatrix(Record):
    """Square positive matrix with unit diagonal and exact reciprocal symmetry.

    ``_numerators[i][j]``, built here but not a field, is the numerator of
    the reduced ``entries[i][j]`` and, by reciprocity, the denominator of
    ``entries[j][i]``: one integer table for the edge and consistency tests.
    """

    _fields = ("entries",)
    __slots__ = ("entries", "_numerators")

    def __init__(self, entries: Sequence[Sequence[Fraction]]) -> None:
        entries = tuple(map(tuple, entries))
        n = len(entries)
        if n < 2:
            raise ValueError("comparison matrices need dimension at least 2")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for j, value in enumerate(row):
                if not isinstance(value, Fraction):
                    raise TypeError("matrix entries must be Fractions")
                if value.numerator <= 0:
                    raise ValueError(f"entry ({i},{j}) is not positive")
        if any(type(value) is not Fraction for row in entries for value in row):
            # Rays and minimum-reversal vectors reuse entries: keep them plain.
            entries = tuple(tuple(map(Fraction, row)) for row in entries)
        num = tuple(tuple(value.numerator for value in row) for row in entries)
        for i in range(n):
            if num[i][i] != 1 or entries[i][i].denominator != 1:
                raise ValueError(f"diagonal entry ({i},{i}) must equal 1")
            for j in range(i + 1, n):
                # Reduced fractions: a_ji == 1 / a_ij swaps numerator and denominator.
                if num[j][i] != entries[i][j].denominator or num[i][j] != entries[j][i].denominator:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not reciprocal")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_numerators", num)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | float | str | Fraction]]) -> "ReciprocalMatrix":
        return cls([[rationalize(v) for v in row] for row in rows])

    @property
    def n(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> Vec:
        if not 0 <= j < self.n:
            raise IndexError(f"column index {j} out of range for n={self.n}")
        return tuple(row[j] for row in self.entries)


def consistent_matrix(w: Sequence[Fraction]) -> ReciprocalMatrix:
    """The rank-one comparison matrix with entries w_i / w_j."""
    vec = as_weight_vector(w)
    return ReciprocalMatrix([[wi / wj for wj in vec] for wi in vec])


def _consistent_on(a: ReciprocalMatrix, keep: Sequence[int]) -> bool:
    """Whether the principal submatrix on ``keep`` is consistent, on integers.

    Reciprocity makes agreement with the first kept column equivalent to
    full transitivity.  With a_ij = num[i][j] / num[j][i] and f = keep[0],
    the test a_if == a_ij * a_jf is an integer cross-product equality,
    symmetric in i and j, so the pairs i < j suffice.
    """
    num = a._numerators
    f = keep[0]
    for x, i in enumerate(keep):
        for j in keep[x + 1 :]:
            if num[i][f] * num[j][i] * num[f][j] != num[i][j] * num[j][f] * num[f][i]:
                return False
    return True


def is_consistent(a: ReciprocalMatrix) -> bool:
    """True when every triple satisfies a_ij * a_jk == a_ik exactly."""
    return _consistent_on(a, range(a.n))


class MonomialTransform(Record):
    """Positive diagonal rescaling followed by an index permutation.

    ``perm[i]`` is the new position of index i; ``scale[i]`` multiplies the
    weight at old index i.  These transforms preserve efficiency structure.
    """

    __slots__ = _fields = ("scale", "perm")

    def __init__(self, scale: Sequence[Fraction], perm: Sequence[int]) -> None:
        scale, perm = tuple(scale), tuple(perm)
        n = len(scale)
        if len(perm) != n:
            raise ValueError("scale and permutation must have equal length")
        if sorted(perm) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        if any(not isinstance(s, Fraction) or s <= 0 for s in scale):
            raise ValueError("scale factors must be positive Fractions")
        self._set(scale, perm)

    @property
    def n(self) -> int:
        return len(self.scale)


def monomial_similarity(a: ReciprocalMatrix, t: MonomialTransform) -> ReciprocalMatrix:
    """Apply the transform to a matrix: rescale ratios, then relabel indices."""
    if t.n != a.n:
        raise ValueError("transform dimension does not match matrix")
    n = a.n
    out = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[t.perm[i]][t.perm[j]] = a.entries[i][j] * t.scale[i] / t.scale[j]
    return ReciprocalMatrix(out)


def transform_vector(w: Sequence[Fraction], t: MonomialTransform) -> Vec:
    """Apply the transform to a weight vector (rescale, then relabel)."""
    if t.n != len(w):
        raise ValueError("transform dimension does not match vector")
    out = [Fraction(1)] * t.n
    for i in range(t.n):
        out[t.perm[i]] = w[i] * t.scale[i]
    return tuple(out)
