"""Column-perturbed consistent matrices and their closed-form efficient sets.

A matrix is column-perturbed consistent when removing one index leaves a
consistent block: only the comparisons against that index were disturbed.
Rescaling and relabeling bring such a matrix to a canonical shape with the
perturbed index first and an all-ones trailing block.  In canonical shape
the efficient set is a finite union of closed-form convex pieces, one per
ordered index pair (top, bottom) whose first-row entries satisfy
``a[0][top] < a[0][bottom]``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

from .matrices import (
    MonomialTransform,
    ReciprocalMatrix,
    Vec,
    _consistent_on,
    as_weight_vector,
    is_consistent,
    monomial_similarity,
)
from .records import Record

__all__ = [
    "ColumnPerturbedForm",
    "EfficiencyBand",
    "detect_column_perturbed",
    "efficiency_band",
    "efficient_set_union",
    "classify_perturbation",
    "CONSISTENT",
    "SIMPLE",
    "DOUBLE",
    "COLUMN",
    "NOT_COLUMN_PERTURBED",
]

CONSISTENT = "consistent"
SIMPLE = "simple"
DOUBLE = "double-in-column"
COLUMN = "column"
NOT_COLUMN_PERTURBED = "not-column-perturbed"


class ColumnPerturbedForm(Record):
    """Canonical form of a column-perturbed consistent matrix.

    ``canonical`` has the perturbed index at position 0 and an all-ones
    trailing block; ``transform`` rescales and relabels the original matrix
    onto it.  ``index`` is the detected position in the original matrix;
    ``candidates`` lists every deletion index that left a consistent
    block.  ``pairs`` holds the (top, bottom) index pairs, 0-based positions
    in the canonical matrix, that carve the efficient set.
    """

    canonical: ReciprocalMatrix
    transform: MonomialTransform
    index: int
    candidates: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    __slots__ = _fields = ("canonical", "transform", "index", "candidates", "pairs")

    def __init__(self, canonical, transform, index, candidates, pairs) -> None:
        self._set(canonical, transform, index, candidates, pairs)


def _deletion_consistent(a: ReciprocalMatrix, drop: int) -> bool:
    return _consistent_on(a, [t for t in range(a.n) if t != drop])


def _band_pairs(canonical: ReciprocalMatrix) -> tuple[tuple[int, int], ...]:
    top_row = canonical.entries[0]
    n = canonical.n
    return tuple(
        (i, j)
        for i in range(1, n)
        for j in range(1, n)
        if i != j and top_row[i] < top_row[j]
    )


def detect_column_perturbed(a: ReciprocalMatrix) -> ColumnPerturbedForm | None:
    """Canonicalize ``a`` if some single index explains all inconsistency.

    Tries every deletion index in increasing order and canonicalizes on the
    first whose removal leaves a consistent block; all hits are recorded.
    Returns None when no single deletion works.
    """
    n = a.n
    candidates = tuple(drop for drop in range(n) if _deletion_consistent(a, drop))
    if not candidates:
        return None
    drop = candidates[0]
    keep = [t for t in range(n) if t != drop]

    # The consistent block is u u^(-T) for u = its first kept column; scaling
    # by 1/u flattens the block to all-ones.  The dropped index scales by 1.
    scale = [Fraction(1)] * n
    first = keep[0]
    for t in keep:
        scale[t] = 1 / a.entries[t][first]
    perm = [0] * n
    perm[drop] = 0
    for position, t in enumerate(keep, start=1):
        perm[t] = position

    transform = MonomialTransform(tuple(scale), tuple(perm))
    canonical = monomial_similarity(a, transform)
    if any(
        canonical.entries[i][j] != 1 for i in range(1, n) for j in range(1, n)
    ):  # pragma: no cover - the scaling above flattens the block by construction
        raise ValueError("canonicalization failed to flatten the consistent block")
    return ColumnPerturbedForm(
        canonical=canonical,
        transform=transform,
        index=drop,
        candidates=candidates,
        pairs=_band_pairs(canonical),
    )


class EfficiencyBand(Record):
    """One convex piece of the efficient set of a canonical perturbed matrix.

    Membership: cap * w[0] >= w[top] >= w[k] >= w[bottom] >= floor * w[0]
    for every middle index k (those other than 0, top, bottom), where
    cap = a[top][0] and floor = a[bottom][0].  ``contains`` raises
    ``ValueError`` on a vector too short to hold ``top`` and ``bottom``.
    """

    __slots__ = _fields = ("top", "bottom", "cap", "floor")

    def __init__(self, top: int, bottom: int, cap: Fraction, floor: Fraction) -> None:
        self._set(top, bottom, cap, floor)

    def contains(self, w: Sequence[Fraction]) -> bool:
        vec = as_weight_vector(w)
        if len(vec) <= max(self.top, self.bottom):
            raise ValueError(f"vector length {len(vec)} cannot hold band indices {self.top} and {self.bottom}")
        hi = vec[self.top]
        lo = vec[self.bottom]
        if not (self.cap * vec[0] >= hi and lo >= self.floor * vec[0] and hi >= lo):
            return False
        middle = [vec[k] for k in range(1, len(vec)) if k not in (self.top, self.bottom)]
        return all(hi >= mk >= lo for mk in middle)


def efficiency_band(form: ColumnPerturbedForm, top: int, bottom: int) -> EfficiencyBand:
    """The convex piece pinned by canonical indices (top, bottom)."""
    canonical = form.canonical
    n = canonical.n
    if not (1 <= top < n and 1 <= bottom < n) or top == bottom:
        raise ValueError("band indices must be distinct and nonzero")
    if canonical.entries[0][top] >= canonical.entries[0][bottom]:
        raise ValueError("band requires a[0][top] < a[0][bottom] in canonical form")
    return EfficiencyBand(
        top=top,
        bottom=bottom,
        cap=canonical.entries[top][0],
        floor=canonical.entries[bottom][0],
    )


def efficient_set_union(form: ColumnPerturbedForm) -> tuple[EfficiencyBand, ...]:
    """All convex pieces; their union is the canonical matrix's efficient set."""
    return tuple(efficiency_band(form, i, j) for i, j in form.pairs)


def classify_perturbation(a: ReciprocalMatrix) -> str:
    """Structural class: how many comparisons were genuinely disturbed.

    Rescaling the perturbed index multiplies the whole canonical first row,
    so the invariant count is the number of first-row entries that disagree
    with the row's most common value: 0 consistent, 1 simple, 2
    double-in-column, 3 or more column.
    """
    form = detect_column_perturbed(a)
    if form is None:
        return NOT_COLUMN_PERTURBED
    top_row = form.canonical.entries[0][1:]
    majority = max(Counter(top_row).values())
    disturbed = len(top_row) - majority
    if disturbed == 0:
        return CONSISTENT
    if disturbed == 1:
        return SIMPLE
    if disturbed == 2:
        return DOUBLE
    return COLUMN
