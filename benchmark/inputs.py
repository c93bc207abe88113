"""Seeded inputs for the benchmark, built without any help from effvec.

Matrices come back as rows of ``Fraction`` entries; the benchmark hands them
to the program and the checker reads only their numerators and
denominators.  Nothing here imports effvec, so a change to the package's own
fixtures cannot change what the benchmark measures.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

Rows = list[list[Fraction]]
Vector = tuple[Fraction, ...]

# Verbal-scale ratios p/q with 1 <= p, q <= 9.
PALETTE = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 10)})
OFF_UNIT = [f for f in PALETTE if f != 1]
PLACE = {v: k for k, v in enumerate(PALETTE)}


@functools.cache
def _ratios() -> list[list[Fraction]]:
    """Every quotient of two palette entries, so that a matrix is filled by
    lookup rather than by one exact division per entry."""
    return [[u / v for v in PALETTE] for u in PALETTE]


def rng_for(workload: str, seed: int) -> random.Random:
    """One generator per (workload, seed); string seeds are stable across runs."""
    return random.Random(f"{workload}:{seed}")


def palette_vector(rng: random.Random, n: int) -> Vector:
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


def random_rows(rng: random.Random, n: int) -> Rows:
    """Independent palette entries above the diagonal."""
    inverse = _ratios()[PLACE[Fraction(1)]]
    rows = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.randrange(len(PALETTE))
            rows[i][j] = PALETTE[k]
            rows[j][i] = inverse[k]
    return rows


def consistent_rows(rng: random.Random, n: int) -> Rows:
    ratios = _ratios()
    places = [PLACE[x] for x in palette_vector(rng, n)]
    return [[ratios[i][j] for j in places] for i in places]


def _perturb(rows: Rows, i: int, j: int, factor: Fraction) -> None:
    rows[i][j] *= factor
    rows[j][i] = 1 / rows[i][j]


def column_rows(rng: random.Random, n: int) -> Rows:
    """Consistent except in one column, every entry of which is disturbed."""
    rows = consistent_rows(rng, n)
    c = rng.randrange(n)
    others = [t for t in range(n) if t != c]
    if n - 1 <= len(OFF_UNIT):
        factors = rng.sample(OFF_UNIT, n - 1)
    else:
        factors = [rng.choice(OFF_UNIT) for _ in others]
    for i, factor in zip(others, factors):
        _perturb(rows, i, c, factor)
    return rows


def double_rows(rng: random.Random, n: int) -> Rows:
    """Consistent except for two disturbed entries in one column."""
    rows = consistent_rows(rng, n)
    c = rng.randrange(n)
    i1, i2 = rng.sample([t for t in range(n) if t != c], 2)
    f1, f2 = rng.sample(OFF_UNIT, 2)
    _perturb(rows, i1, c, f1)
    _perturb(rows, i2, c, f2)
    return rows


MATRIX_KINDS = {
    "random": random_rows,
    "consistent": consistent_rows,
    "column": column_rows,
    "double": double_rows,
}


def column(rows: Rows, k: int) -> Vector:
    return tuple(row[k] for row in rows)


def float_vector(rng: random.Random, rows: Rows) -> Vector:
    """A column blurred in floating point, read back exactly.

    Each component is a float with its full 53-bit mantissa, as rationalized
    spectral output is.
    """
    base = column(rows, rng.randrange(len(rows)))
    return tuple(Fraction(float(x) * rng.uniform(0.5, 2.0)) for x in base)


def subset_scaled(rng: random.Random, rows: Rows) -> tuple[Vector, frozenset[int]]:
    """A palette vector with one index subset raised far above the rest.

    Returns the vector and the subset S.  The factor exceeds every
    ``w_j / (a_ji * w_i)`` with i in S and j outside, so no dominance edge
    enters S: the vector is inefficient and S is closed.
    """
    n = len(rows)
    w = list(palette_vector(rng, n))
    subset = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
    outside = [j for j in range(n) if j not in subset]
    # The largest ratio, found in floats: a power of two at least four times
    # it clears the ratio whatever the rounding, and costs no exact division.
    fw = [float(x) for x in w]
    ratio = max(fw[j] / (float(rows[j][i]) * fw[i]) for i in subset for j in outside)
    factor = 1 << max(1, math.ceil(math.log2(ratio)) + 2)
    for i in subset:
        w[i] *= factor
    return tuple(w), subset


def format_rows(rows: Rows) -> str:
    """The text matrix format: the dimension, then one row per line."""
    lines = [str(len(rows))]
    lines += [" ".join(_literal(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def format_vector(w: Vector) -> str:
    return " ".join(_literal(v) for v in w) + "\n"


def _literal(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
