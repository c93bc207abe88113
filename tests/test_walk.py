"""The lexicographic cycle walker against the scans it replaced.

``enumerate_cycles``, ``membership`` and ``columns_common_cone`` all read
one depth-first walk; each must equal the permutation scan kept in
helpers, and the walk itself must list exactly the permutation cycles
through the allowed edges, in the same order, with the same products.
"""

import itertools
import math
import random

import pytest

from effvec import (
    CapExceededError,
    columns_common_cone,
    decompose,
    enumerate_cycles,
    generate,
    membership,
    random_weight_vector,
)
from effvec.decomposition import _walk
from effvec.generators import KINDS
from helpers import (
    common_cone_reference,
    cycles_reference,
    membership_reference,
    walk_reference,
)

CAP_MESSAGE = "enumeration over (n-1)! cycles refused for n=11 (cap 10); raise the cap explicitly"


@pytest.mark.parametrize("kind", KINDS)
def test_enumerate_cycles_equals_permutation_split(kind):
    for n in range(3, 8):
        for seed in range(3):
            a = generate(kind, n, seed=seed)
            assert enumerate_cycles(a) == cycles_reference(a)


@pytest.mark.parametrize("kind", KINDS)
def test_membership_equals_cone_scan(kind):
    rng = random.Random(kind)
    for n in range(3, 8):
        for seed in range(3):
            a = generate(kind, n, seed=seed)
            d = decompose(a)
            vectors = [a.column(k) for k in range(n)]
            vectors += [random_weight_vector(rng, n) for _ in range(20)]
            for w in vectors:
                assert membership(d, w) == membership_reference(d, w)


@pytest.mark.parametrize("kind", KINDS)
def test_columns_common_cone_equals_full_scan(kind):
    found = 0
    for n in range(3, 9):
        for seed in range(2):
            a = generate(kind, n, seed=seed)
            cycle = columns_common_cone(a)
            assert cycle == common_cone_reference(a)
            found += cycle is not None
    assert found > 0


def _adjacency(n, edges):
    allowed = [[False] * n for _ in range(n)]
    for i, j in edges:
        allowed[i][j] = True
    return allowed


def test_walk_on_hand_built_digraphs():
    num = generate("random", 6, seed=4)._numerators
    n = 6
    ring = [(t, (t + 1) % n) for t in range(n)]
    cases = {
        "empty": _adjacency(n, []),
        "one ring": _adjacency(n, ring),
        "ring both ways": _adjacency(n, ring + [(j, i) for i, j in ring]),
        "transitive": _adjacency(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
        "no way home": _adjacency(n, [(i, j) for i in range(n) for j in range(1, n) if i != j]),
        "complete": _adjacency(n, [(i, j) for i in range(n) for j in range(n) if i != j]),
    }
    counts = {}
    for name, allowed in cases.items():
        walked = list(_walk(num, allowed))
        assert walked == walk_reference(num, allowed), name
        counts[name] = len(walked)
    assert counts == {
        "empty": 0,
        "one ring": 1,
        "ring both ways": 2,
        "transitive": 0,
        "no way home": 0,
        "complete": 120,
    }


def test_walk_on_every_digraph_with_four_vertices():
    num = generate("random", 4, seed=1)._numerators
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    seen = set()
    for mask in range(1 << len(pairs)):
        allowed = _adjacency(4, [pair for k, pair in enumerate(pairs) if mask >> k & 1])
        walked = list(_walk(num, allowed))
        assert walked == walk_reference(num, allowed)
        seen.add(len(walked))
    # Five of the six cycles use all twelve edges, which carry the sixth.
    assert seen == {0, 1, 2, 3, 4, 6}


def test_walk_on_random_digraphs():
    rng = random.Random(7)
    for n in range(2, 8):
        num = generate("random", n, seed=n)._numerators
        for density in (0.3, 0.6, 0.9):
            for _ in range(5):
                allowed = [[i != j and rng.random() < density for j in range(n)] for i in range(n)]
                assert list(_walk(num, allowed)) == walk_reference(num, allowed)


def test_two_vertices():
    a = generate("random", 2, seed=0)
    below, unit = enumerate_cycles(a)
    assert below == () and [c.order for c in unit] == [(0, 1)]


def test_cap_message_kept():
    a = generate("random", 11, seed=1)
    for call in (enumerate_cycles, columns_common_cone):
        with pytest.raises(CapExceededError) as caught:
            call(a, cap=10)
        assert str(caught.value) == CAP_MESSAGE


def test_cycle_order_is_permutation_order():
    n = 6
    complete = [[i != j for j in range(n)] for i in range(n)]
    num = [[1] * n for _ in range(n)]
    orders = [order for order, _, _ in _walk(num, complete)]
    assert orders == [(0,) + rest for rest in itertools.permutations(range(1, n))]


class _CountingRows(list):
    """A list of rows that counts the rows read by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_first_cycle_reads_linear_rows():
    # The walk is lazy: on a complete digraph the first cycle is the
    # rotation 0 -> 1 -> ... -> n-1 -> 0, found along one path, so the
    # caller that stops there reads O(n) rows of the (n-1)! cycles' tables.
    n = 12
    table = generate("random", n, seed=0)._numerators
    num = _CountingRows(table)
    allowed = _CountingRows([[i != j for j in range(n)] for i in range(n)])
    order, r, s = next(_walk(num, allowed))
    assert order == tuple(range(n))
    edges = list(zip(order, order[1:] + order[:1]))
    assert (r, s) == (math.prod(table[i][j] for i, j in edges), math.prod(table[j][i] for i, j in edges))
    assert allowed.reads < n and num.reads <= 2 * n
