"""Deterministic random fixtures for tests, demos, and self-checks."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import CapExceededError
from .matrices import ReciprocalMatrix, Vec, consistent_matrix

__all__ = ["KINDS", "MAX_DIMENSION", "random_weight_vector", "generate"]

KINDS = ("consistent", "simple", "double", "column", "random")

MAX_DIMENSION = 1000  # n = 1000 takes a few seconds; the cost grows as n**2

# Small-ratio palette in the style of verbal comparison scales.  Values are
# deduplicated so sampling without replacement yields distinct ratios.
_SCALE = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 10)})
_OFF_UNIT = [f for f in _SCALE if f != 1]


def random_weight_vector(rng: random.Random, n: int) -> Vec:
    """Positive rational vector with numerators and denominators up to 9."""
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


def _perturb(rows: list[list[Fraction]], i: int, j: int, factor: Fraction) -> None:
    rows[i][j] *= factor
    rows[j][i] = 1 / rows[i][j]


def generate(kind: str, n: int, seed: int = 0) -> ReciprocalMatrix:
    """Random reciprocal matrix of a structural kind, reproducible by seed.

    Kinds: consistent, simple (one disturbed comparison), double (two
    disturbed comparisons against one index), column (a whole column
    disturbed), random (independent entries).  Perturbed kinds need n >= 3,
    and column needs n <= 55, one distinct off-unit palette value per row.
    Distinct factors are drawn so the class is as large as the dimension
    allows, but rescaling absorbs one factor per column: a fully disturbed
    column classifies as column only for n >= 5 (double at n = 4), and any
    disturbance of a 3-dimensional matrix classifies as simple.  A
    dimension above ``MAX_DIMENSION`` is refused with ``CapExceededError``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if n > MAX_DIMENSION:
        raise CapExceededError(f"dimension {n} exceeds the limit of {MAX_DIMENSION}")
    if kind in ("simple", "double", "column") and n < 3:
        raise ValueError(f"kind {kind!r} needs n >= 3")
    if kind == "column" and n > len(_OFF_UNIT) + 1:
        # Each disturbed entry takes a distinct off-unit palette value.
        raise ValueError(f"kind 'column' needs n <= {len(_OFF_UNIT) + 1}")
    rng = random.Random(seed)

    if kind == "random":
        rows = [[Fraction(1)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rng.choice(_SCALE)
                rows[j][i] = 1 / rows[i][j]
        return ReciprocalMatrix(tuple(tuple(row) for row in rows))

    base = consistent_matrix(random_weight_vector(rng, n))
    rows = [list(row) for row in base.entries]
    if kind == "consistent":
        pass
    elif kind == "simple":
        i, j = rng.sample(range(n), 2)
        _perturb(rows, i, j, rng.choice(_OFF_UNIT))
    elif kind == "double":
        i = rng.randrange(n)
        j1, j2 = rng.sample([t for t in range(n) if t != i], 2)
        f1, f2 = rng.sample(_OFF_UNIT, 2)
        _perturb(rows, i, j1, f1)
        _perturb(rows, i, j2, f2)
    else:  # column
        c = rng.randrange(n)
        factors = rng.sample(_OFF_UNIT, n - 1)
        for i, factor in zip((t for t in range(n) if t != c), factors):
            _perturb(rows, i, c, factor)
    return ReciprocalMatrix(tuple(tuple(row) for row in rows))
