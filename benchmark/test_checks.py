"""The independent checks reject wrong outputs, so they are not vacuous.

    python3 -m pytest benchmark/test_checks.py
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402

H = Fraction(1, 2)
# 4x4 circulant: one cycle below 1 (0 -> 3 -> 2 -> 1, product 1/16).
CIRCULANT = [[1, 2, 1, H], [H, 1, 2, 1], [1, H, 1, 2], [2, 1, H, 1]]
M = checks.int_matrix([[Fraction(v) for v in row] for row in CIRCULANT])
W = (Fraction(1), H, Fraction(1, 4), Fraction(1, 8))


def test_valid_cycle_passes_and_swapped_cycle_fails():
    w = checks.to_ints(W)
    checks.check_cycle(M, w, [0, 3, 2, 1])
    with pytest.raises(checks.CheckFailed):
        checks.check_cycle(M, w, [0, 2, 3, 1])


def test_cycle_that_skips_a_vertex_fails():
    with pytest.raises(checks.CheckFailed):
        checks.check_cycle(M, checks.to_ints(W), [0, 3, 2, 2])


def test_closed_cut_passes_and_cut_with_entering_edge_fails():
    rows = inputs.random_rows(inputs.rng_for("test", 0), 6)
    m = checks.int_matrix(rows)
    vec, closed = inputs.subset_scaled(inputs.rng_for("test", 1), rows)
    w = checks.to_ints(vec)
    assert not checks.efficient(m, vec)
    checks.check_cut(m, w, sorted(closed))
    outside = next(j for j in range(6) if j not in closed)
    # Every edge between the closed set and the outside leaves the set, so the
    # outside vertex alone receives an edge from the closed set.
    with pytest.raises(checks.CheckFailed):
        checks.check_cut(m, w, [outside])


def test_empty_and_full_cuts_fail():
    w = checks.to_ints(W)
    for cut in ([], [0, 1, 2, 3]):
        with pytest.raises(checks.CheckFailed):
            checks.check_cut(M, w, cut)


def test_decomposition_count_off_by_one_fails():
    rows = inputs.random_rows(inputs.rng_for("test", 2), 5)
    m = checks.int_matrix(rows)
    below, unit = (sorted(cycles) for cycles in checks.cycle_classes(m)[:2])
    checks.check_decomposition(m, below, unit)
    with pytest.raises(checks.CheckFailed):
        checks.check_decomposition(m, below[:-1], unit)
    extra = next(
        (0,) + rest for rest in itertools.permutations(range(1, 5)) if (0,) + rest not in below
    )
    with pytest.raises(checks.CheckFailed):
        checks.check_decomposition(m, below + [extra], unit)


def test_cone_with_a_wrong_extreme_fails():
    order = (0, 3, 2, 1)
    n = 4
    rays = []
    for omit in range(n):
        w = [Fraction(0)] * n
        w[order[(omit + 1) % n]] = Fraction(1)
        for t in range(omit + 1, omit + n):
            src, dst = order[t % n], order[(t + 1) % n]
            w[dst] = w[src] / Fraction(CIRCULANT[src][dst])
        rays.append(tuple(w))
    checks.check_cone(M, order, Fraction(1, 16), rays)
    with pytest.raises(checks.CheckFailed):
        checks.check_cone(M, order, Fraction(1, 8), rays)
    with pytest.raises(checks.CheckFailed):
        checks.check_cone(M, order, Fraction(1, 16), rays[:-1] + [(1, 1, 1, 1)])


def test_reversal_count_against_the_rule():
    order = (0, 3, 2, 1)  # entries 1/2 along the cycle: none exceeds 1, product 1/16
    assert checks.reversal_rule(M, order) == 1
    with pytest.raises(checks.CheckFailed):
        checks.check_min_reversal(M, order, W, 0)


def test_witness_with_efficient_blend_fails():
    col0 = tuple(Fraction(row[0]) for row in CIRCULANT)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(M, col0, col0, H)
