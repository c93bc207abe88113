"""The integer cycle kernel against the Fraction references in helpers.

Products, extreme rays, cone records, minimum-reversal vectors and the
cycle split are read from integer prefix products; each must equal the
back-substitution and Fraction-comparison code it replaced, on every cycle
of every generator kind up to n = 6 and on pairwise-coprime entries with
large numerators.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effvec import (
    EfficiencyCone,
    HamiltonianCycle,
    ReciprocalMatrix,
    count_reversals,
    cycle_product,
    efficiency_cone,
    enumerate_cycles,
    generate,
    min_reversal_vector,
)
from effvec.generators import KINDS
from helpers import (
    chain_solution_reference,
    cone_extremes_reference,
    count_reversals_reference,
    cycle_product_reference,
    min_reversal_vector_reference,
)


def check_every_cycle(a: ReciprocalMatrix) -> dict[str, int]:
    """Assert the kernel equals the references on all cycles of ``a``.

    Returns how many cycles fell below, at and above product 1.
    """
    seen = {"below": 0, "unit": 0, "above": 0}
    below, unit = [], []
    for rest in itertools.permutations(range(1, a.n)):
        cycle = HamiltonianCycle((0,) + rest)
        product = cycle_product_reference(a, cycle)
        assert cycle_product(a, cycle) == product
        if product > 1:
            seen["above"] += 1
            for call in (efficiency_cone, min_reversal_vector):
                with pytest.raises(ValueError, match="exceeds 1"):
                    call(a, cycle)
            continue
        extremes = cone_extremes_reference(a, cycle)
        assert len(extremes) == (a.n if product < 1 else 1)
        cone = efficiency_cone(a, cycle)
        assert cone.cycle == cycle
        assert cone.product == product
        assert cone.extremes == extremes
        # Below product 1, ray k omits edge k; at 1 every omission gives the one ray.
        for omit in range(a.n):
            ray = cone.extremes[omit if product < 1 else 0]
            assert ray == chain_solution_reference(a, cycle, omit)
        assert cone.singleton == (product == 1)
        vec, along = min_reversal_vector(a, cycle)
        assert (vec, along) == min_reversal_vector_reference(a, cycle)
        # It is the ray leaving the first largest entry slack, the only ray at product 1.
        entries = [a.entries[i][j] for i, j in cycle.edges()]
        slack = entries.index(max(entries)) if product < 1 else 0
        assert vec == cone.extremes[slack]
        assert all(type(x) is Fraction for x in vec)
        assert all(type(x) is Fraction for ray in cone.extremes for x in ray)
        for w in (vec, a.column(0), tuple(Fraction(1) for _ in range(a.n))):
            report = count_reversals(a, w, cycle)
            assert (report.pairs, report.along_cycle) == count_reversals_reference(a, w, cycle)
        if product < 1:
            seen["below"] += 1
            below.append(cycle)
        else:
            seen["unit"] += 1
            unit.append(cycle)
    assert enumerate_cycles(a) == (tuple(below), tuple(unit))
    return seen


def test_cycle_length_must_match_matrix():
    a = generate("random", 4, seed=0)
    cycle = HamiltonianCycle((0, 1, 2))
    calls = (
        lambda: min_reversal_vector(a, cycle),
        lambda: cycle_product(a, cycle),
        lambda: efficiency_cone(a, cycle).extremes,
        lambda: EfficiencyCone(a, cycle).extremes,
    )
    for call in calls:
        with pytest.raises(ValueError, match="^cycle length does not match matrix dimension$"):
            call()


def test_every_generator_kind_up_to_six():
    seen = {"below": 0, "unit": 0, "above": 0}
    for n in range(3, 7):
        for kind in KINDS:
            for seed in range(2):
                for key, count in check_every_cycle(generate(kind, n, seed=seed)).items():
                    seen[key] += count
    # Every branch ran: sub-unit cones, single-ray unit cones, empty cones.
    assert all(count > 0 for count in seen.values()), seen


_PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@st.composite
def coprime_matrices(draw):
    """Entries p**e / q**f over distinct primes, so no two entries share a factor."""
    n = draw(st.integers(3, 5))
    pairs = n * (n - 1) // 2
    size = 2 * pairs
    primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=size, max_size=size, unique=True))
    powers = draw(st.lists(st.integers(1, 24), min_size=size, max_size=size))
    factors = [p**e for p, e in zip(primes, powers)]
    values = [Fraction(factors[2 * k], factors[2 * k + 1]) for k in range(pairs)]
    rows = [[Fraction(1)] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(it)
            rows[j][i] = 1 / rows[i][j]
    return ReciprocalMatrix.from_rows(rows)


@settings(max_examples=40, deadline=None)
@given(coprime_matrices())
def test_pairwise_coprime_large_numerators(a):
    seen = check_every_cycle(a)
    assert seen["unit"] == 0  # distinct primes never cancel to product 1
