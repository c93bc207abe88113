"""End-to-end tour on a 4x4 circulant reciprocal matrix.

Run with:  python3 demos/worked_example.py

The matrix is inconsistent but highly structured: its efficient set turns
out to be a single convex cone, so every efficient vector is a nonnegative
combination of four explicit rays.
"""

from fractions import Fraction

from effvec import (
    decompose,
    format_matrix,
    format_vector,
    improve,
    is_efficient,
    probe,
    ReciprocalMatrix,
)

h = Fraction(1, 2)
a = ReciprocalMatrix.from_rows(
    [[1, 2, 1, h], [h, 1, 2, 1], [1, h, 1, 2], [2, 1, h, 1]]
)

print("Matrix (first line is the dimension):")
print(format_matrix(a))

print("Certifying the all-ones vector:")
cert = is_efficient(a, (1, 1, 1, 1))
cycle = " -> ".join(str(v + 1) for v in cert.cycle.order + (cert.cycle.order[0],))
print(f"  efficient = {cert.efficient}, witnessed by the cycle {cycle}")
print()

print("Decomposing the full efficient set into cycle cones:")
d = decompose(a)
print(f"  {len(d.cones)} cone(s) with product < 1, {len(d.unit_cycles)} cycle(s) with product = 1")
cone = d.cones[0]
print(f"  cycle product = {cone.product}")
print("  defining inequalities (1-based indices):")
for i, j in cone.cycle.edges():
    print(f"    w{i + 1} >= {a.entries[i][j]} * w{j + 1}")
print("  extreme rays:")
for ray in cone.extremes:
    print(f"    [{format_vector(ray)}]")
print()

print("A vector outside the cone is inefficient, with a certified cut:")
w = (Fraction(1), Fraction(4), Fraction(1), Fraction(1))
cert = is_efficient(a, w)
cut = tuple(v + 1 for v in cert.cut)
print(f"  w = [{format_vector(w)}]: efficient = {cert.efficient}, cut = {cut}")
print("  (no arrow leaves the cut in the dominance digraph, so the chain of")
print("   comparisons can never return, and some coordinate can be improved)")
print()

print("The improvement is constructive: scale the cut down until a comparison")
print("leaving it turns tight, and repeat until the certificate says efficient.")
better = improve(a, w)
check = probe(a, w, better)
print(f"  improve(a, w) = [{format_vector(better)}]: efficient = {is_efficient(a, better).efficient}")
print(f"  every deviation <= original: {check.weak}; strictly better somewhere: {bool(check.strict_positions)}")
