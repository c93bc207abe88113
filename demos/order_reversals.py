"""Order reversals: when the ranking contradicts the comparisons.

Run with:  python3 demos/order_reversals.py

A reversal is a pair (i, j) where the matrix says alternative i beats
alternative j but the weight vector ranks them the other way (or ties
when the matrix insists on a strict preference). Efficient vectors can
still carry reversals -- but along any witnessing cycle with product < 1
and no entry above 1, exactly one reversal is unavoidable, and a vector
attaining that minimum is constructed explicitly.
"""

from fractions import Fraction

from effvec import (
    count_reversals,
    cycle_product,
    enumerate_cycles,
    format_matrix,
    format_vector,
    is_efficient,
    min_reversal_vector,
    resolve_unit_cycle,
    HamiltonianCycle,
    ReciprocalMatrix,
)

h = Fraction(1, 2)
a = ReciprocalMatrix.from_rows(
    [[1, 2, 1, h], [h, 1, 2, 1], [1, h, 1, 2], [2, 1, h, 1]]
)
print("Matrix:")
print(format_matrix(a))

print("Reversals of the all-ones vector (efficient, but maximally tied):")
report = count_reversals(a, (1, 1, 1, 1))
for i, j, kind in report.pairs:
    print(f"  pair ({i + 1}, {j + 1}): {kind}")
print()

print("Every cycle with product < 1 admits a vector with exactly one")
print("reversal along the cycle -- never zero, because the product of the")
print("comparisons around the cycle is less than 1 while the weight ratios")
print("multiply to exactly 1:")
below, _ = enumerate_cycles(a)
for cycle in below:
    vec, along = min_reversal_vector(a, cycle)
    path = " -> ".join(str(v + 1) for v in cycle.order + (cycle.order[0],))
    cert = is_efficient(a, vec)
    print(f"  cycle {path} (product {cycle_product(a, cycle)})")
    print(f"    vector [{format_vector(vec)}]: {along} reversal(s) along it, efficient = {cert.efficient}")
print()

print("If some comparison along the cycle exceeds 1, zero reversals are")
print("possible. Here entry (1,2) = 3 leaves room for a strict descent:")
b = ReciprocalMatrix.from_rows(
    [[1, 3, 1, 1], [Fraction(1, 3), 1, Fraction(1, 4), 1], [1, 4, 1, Fraction(1, 8)], [1, 1, 8, 1]]
)
cycle = HamiltonianCycle.from_vertices((0, 1, 2, 3))
vec, along = min_reversal_vector(b, cycle)
print(f"  vector [{format_vector(vec)}]: {along} reversal(s) along the cycle")
print()

print("Cycles with product exactly 1 force ties instead of reversals, and")
print("their cones are single rays. For an inconsistent matrix whose")
print("all-ones cycle has product 1, a strictly sub-unit cycle always")
print("exists and is found constructively:")
rows = [[Fraction(1)] * 5 for _ in range(5)]
rows[0][2], rows[2][0] = Fraction(2), h
rows[1][3], rows[3][1] = h, Fraction(2)
c = ReciprocalMatrix.from_rows(rows)
unit = HamiltonianCycle.from_vertices((0, 1, 2, 3, 4))
repaired = resolve_unit_cycle(c, unit)
path = " -> ".join(str(v + 1) for v in repaired.order + (repaired.order[0],))
print(f"  repaired cycle: {path} with product {cycle_product(c, repaired)}")
