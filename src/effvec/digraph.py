"""Dominance digraphs, the graph test for efficiency, and dominators.

For a comparison matrix A and weight vector w, the dominance digraph has an
edge i -> j exactly when ``w[i] >= a[i][j] * w[j]``: the vector concedes at
least as much to i over j as the matrix asks.  At least one of the two edges
exists for every pair (the digraph is semi-complete); ties contribute both.

w is efficient (no other vector weakly improves every entrywise deviation
from A, strictly somewhere) precisely when this digraph is strongly
connected, equivalently when it carries a Hamiltonian cycle.  w lies in
the efficiency cone of a cycle C exactly when its digraph has C.  When w
is inefficient, the source component is the cut of the certificate.  A
sweep of at most 2n - 3 comparisons finds a vertex of it, and the cut
when that vertex is the whole component.  Otherwise both witnesses are
direct constructions on one Hamiltonian path, built by insertion: in a
semi-complete digraph the strong components are runs of that path, and
when there is one run the path grows into the cycle.  Scaling the cut
down until a crossing pair turns tight gives a dominating vector;
``improve`` repeats that until the vector is efficient.
``is_efficient`` is the only certificate, and it builds no digraph: it
reads edges from a memoised oracle, so it compares only the pairs its
certificate reads.  The path places each new vertex with the oracle's
scan, which reads it against the path in order and stops at the first
vertex it beats.  ``build_digraph`` fills each row of a full table with
the same scan, for the callers that read every edge: the cycle walk,
cone membership and the edges several vectors share.

Matrices and vectors stay ``Fraction`` at the interface.  Inside, each edge
test clears denominators and compares integer products, using the integer
numerator table every ``ReciprocalMatrix`` records when it is built; no
Fraction arithmetic and no float takes part.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator, Sequence

from fractions import Fraction

from .matrices import ReciprocalMatrix, Vec, as_weight_vector
from .records import Record

Edge = Callable[[int, int], bool]
# scan(u, vertices): index of the first of ``vertices`` that u has an edge to,
# or len(vertices).
Scan = Callable[[int, Sequence[int]], int]

__all__ = [
    "DominanceDigraph",
    "EfficiencyCertificate",
    "HamiltonianCycle",
    "build_digraph",
    "common_digraph",
    "is_efficient",
    "improve",
]


class HamiltonianCycle(Record):
    """A directed cycle visiting every vertex once; stored starting at vertex 0."""

    __slots__ = _fields = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        n = len(order)
        if n < 2:
            raise ValueError("cycles need at least two vertices")
        if sorted(order) != list(range(n)):
            raise ValueError("cycle must visit each vertex exactly once")
        if order[0] != 0:
            raise ValueError("canonical cycles start at vertex 0; use from_vertices")
        object.__setattr__(self, "order", order)

    @classmethod
    def _unchecked(cls, order: tuple[int, ...]) -> "HamiltonianCycle":
        """A cycle from an order already known to be a permutation starting
        at 0, such as the cycle walker yields; skips the checks."""
        cycle = object.__new__(cls)
        object.__setattr__(cycle, "order", order)
        return cycle

    @classmethod
    def from_vertices(cls, vertices: Sequence[int]) -> "HamiltonianCycle":
        """Build from any rotation of the vertex sequence."""
        vertices = list(vertices)
        if 0 not in vertices:
            raise ValueError("cycle must contain vertex 0")
        at = vertices.index(0)
        return cls(tuple(vertices[at:] + vertices[:at]))

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> tuple[tuple[int, int], ...]:
        n = self.n
        return tuple((self.order[t], self.order[(t + 1) % n]) for t in range(n))


class DominanceDigraph(Record):
    """Adjacency of the dominance relation; adjacency[i][j] is the edge i -> j.

    Every dominance digraph is semi-complete, with an edge in at least one
    direction between every two vertices, so the constructor raises
    ``ValueError`` on a non-square or not semi-complete adjacency.
    """

    __slots__ = _fields = ("adjacency",)

    def __init__(self, adjacency: tuple[tuple[bool, ...], ...]) -> None:
        adj, n = adjacency, len(adjacency)
        square = all(len(row) == n for row in adj)
        if not square or not all(adj[i][j] or adj[j][i] for j in range(n) for i in range(j)):
            raise ValueError("adjacency must be square and semi-complete: an edge between every two vertices")
        object.__setattr__(self, "adjacency", adjacency)

    @classmethod
    def _unchecked(cls, adjacency: tuple[tuple[bool, ...], ...]) -> "DominanceDigraph":
        """Skips the checks, for a digraph known to be semi-complete."""
        g = object.__new__(cls)
        object.__setattr__(g, "adjacency", adjacency)
        return g

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def has_edge(self, i: int, j: int) -> bool:
        return self.adjacency[i][j]

    def has_cycle(self, cycle: HamiltonianCycle) -> bool:
        """Whether every edge of ``cycle`` is an edge here: for the digraph of
        (a, w), whether w lies in the efficiency cone of ``cycle``."""
        if cycle.n != self.n:
            raise ValueError(f"cycle length {cycle.n} does not match digraph size {self.n}")
        return all(self.adjacency[i][j] for i, j in cycle.edges())


class EfficiencyCertificate(Record):
    """Outcome of the efficiency test, with a checkable witness either way.

    Efficient vectors carry a Hamiltonian cycle of the dominance digraph;
    inefficient ones carry a cut: a vertex set receiving no edge from outside,
    so the digraph cannot be strongly connected.
    """

    efficient: bool
    cycle: HamiltonianCycle | None
    cut: tuple[int, ...] | None
    __slots__ = _fields = ("efficient", "cycle", "cut")

    def __init__(self, efficient, cycle=None, cut=None) -> None:
        object.__setattr__(self, "efficient", efficient)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "cut", cut)


def _edge_oracle(
    a: ReciprocalMatrix, w: Sequence[Fraction]
) -> tuple[list[list[bool | None]], Edge, Scan]:
    """The edge test of the dominance digraph of (a, w), one pair at a time.

    Returns ``(table, edge, scan)``; ``table[i][j]`` is the edge i -> j,
    None while the pair is undecided.  With w_i = p_i/q_i and
    a_ij = r_ij/s_ij, the edge i -> j holds exactly when
    p_i*q_j*s_ij >= r_ij*p_j*q_i.  Reciprocity (a_ji = s_ij/r_ij) makes the
    edge j -> i the reverse comparison of the same two products, so each
    comparison decides both entries of its pair.

    ``edge(i, j)`` is one table read, and compares the pair on its first
    query.  ``scan(u, vertices)`` is the row comparison: it reads u
    against ``vertices`` in order from the table, comparing an undecided
    pair with the test written inline and recording both entries.  It
    returns the index of the first vertex u has an edge to (u beats it,
    or ties), reading no further, or len(vertices) when there is none;
    with ``stop`` false it reads every vertex and returns len(vertices).
    No pair's products are computed twice.
    """
    vec: Vec = as_weight_vector(w)
    n = a.n
    if len(vec) != n:
        raise ValueError(f"vector length {len(vec)} does not match matrix dimension {n}")
    p = [v.numerator for v in vec]
    q = [v.denominator for v in vec]
    num = a._numerators
    table: list[list[bool | None]] = [[None] * n for _ in range(n)]
    for i, row in enumerate(table):
        row[i] = True

    def scan(u: int, vertices: Sequence[int], stop: bool = True) -> int:
        p_u, q_u, num_u, table_u = p[u], q[u], num[u], table[u]
        for t, v in enumerate(vertices):
            known = table_u[v]
            if known is None:
                forward = p_u * q[v] * num[v][u]
                backward = num_u[v] * p[v] * q_u
                if forward >= backward:
                    table_u[v] = True
                    table[v][u] = forward == backward
                    if stop:
                        return t
                else:
                    table_u[v] = False
                    table[v][u] = True
            elif known and stop:
                return t
        return len(vertices)

    def edge(i: int, j: int) -> bool:
        known = table[i][j]
        if known is None:
            forward = p[i] * q[j] * num[j][i]
            backward = num[i][j] * p[j] * q[i]
            known = table[i][j] = forward >= backward
            table[j][i] = backward >= forward
        return known

    return table, edge, scan


def build_digraph(a: ReciprocalMatrix, w: Sequence[Fraction]) -> DominanceDigraph:
    """Exact dominance digraph of (a, w): each row i is compared with every
    later vertex by ``_edge_oracle``'s scan; ties yield edges in both
    directions."""
    table, _, scan = _edge_oracle(a, w)
    n = len(table)
    for i in range(n - 1):
        scan(i, range(i + 1, n), stop=False)
    return DominanceDigraph._unchecked(tuple(map(tuple, table)))


def common_digraph(
    a: ReciprocalMatrix, vectors: Iterable[Sequence[Fraction]]
) -> tuple[tuple[bool, ...], ...]:
    """Adjacency of the edges every vector's dominance digraph has, ANDed in
    one digraph at a time so memory stays O(n^2); need not be semi-complete."""
    shared = ((True,) * a.n,) * a.n
    for w in vectors:
        adj = build_digraph(a, w).adjacency
        shared = tuple(tuple(map(operator.and_, mine, theirs)) for mine, theirs in zip(shared, adj))
    return shared


def _hamiltonian_path(edge: Edge, scan: Scan, n: int) -> list[int]:
    """Insertion construction of a Hamiltonian path; valid in any semi-complete digraph.

    Each new vertex u goes after the path when the last vertex has an edge
    to it.  Otherwise u has an edge to the last vertex, so it goes before
    the first vertex it has an edge to, which ``scan`` finds among the
    others: the predecessor there, if any, has an edge to u.
    """
    path = [0]
    for u in range(1, n):
        if edge(path[-1], u):
            path.append(u)
        else:
            path.insert(scan(u, path[:-1]), u)
    return path


def _component_ends(edge: Edge, path: list[int]) -> Iterator[int]:
    """Last path index of each strong component, in topological order.

    In a semi-complete digraph the strong components are consecutive runs
    of any Hamiltonian path.  The run from ``start`` grows to the farthest
    later vertex with an edge back into it, since the path leads forward to
    that vertex and the edge closes a cycle; the run is a component once no
    later vertex has an edge into it, or once it reaches the last vertex.
    Each pair is read at most once.
    """
    n = len(path)
    start = 0
    while start < n:
        end = s = start
        while s <= end < n - 1:
            v = path[s]
            for t in range(n - 1, end, -1):
                if edge(path[t], v):
                    end = t
                    break
            s += 1
        yield end
        start = end + 1


def _grow_cycle(edge: Edge, path: list[int]) -> HamiltonianCycle:
    """Hamiltonian cycle from the Hamiltonian path of a strongly connected
    semi-complete digraph.

    Closes the path's longest closable prefix into a cycle, then grows the
    cycle one splice at a time.  Runs in polynomial time; never enumerates
    permutations.
    """
    n = len(path)
    close_at = next(t for t in range(n - 1, 0, -1) if edge(path[t], path[0]))
    cycle = path[: close_at + 1]
    remaining = path[close_at + 1 :]

    while remaining:
        inserted = False
        for u in sorted(remaining):
            k = len(cycle)
            for t in range(k):
                if edge(cycle[t], u) and edge(u, cycle[(t + 1) % k]):
                    cycle.insert(t + 1, u)
                    remaining.remove(u)
                    inserted = True
                    break
            if inserted:
                break
        if inserted:
            continue
        # No vertex slots in, so each remaining vertex either beats the whole
        # cycle or loses to it; strong connectivity forces a bridge pair.
        beats = [u for u in remaining if edge(u, cycle[0])]
        loses = [u for u in remaining if u not in beats]
        bridge = next((b, a) for b in sorted(loses) for a in sorted(beats) if edge(b, a))
        cycle.extend(bridge)
        remaining.remove(bridge[0])
        remaining.remove(bridge[1])

    return HamiltonianCycle.from_vertices(cycle)


def is_efficient(a: ReciprocalMatrix, w: Sequence[Fraction]) -> EfficiencyCertificate:
    """Decide efficiency of w for a, with a cycle or cut witness.

    A sweep first keeps a candidate c, replaced by each later vertex with
    an edge to it; c ends in the source component.  When no earlier vertex
    has an edge to c either, the cut is (c,), from at most 2n - 3
    comparisons and with no path built.  Otherwise both witnesses come from
    one insertion path: its first run is the source component, the cut
    when it is not all n vertices, and otherwise the path grows into a
    Hamiltonian cycle.  Builds no digraph: edges are read from
    ``_edge_oracle``, so only the pairs the certificate needs are compared,
    each at most once.
    """
    _, edge, scan = _edge_oracle(a, w)
    n = a.n
    # Every later vertex loses to the final candidate c, and c reaches each
    # earlier one through the candidates before it, so c lies in the source
    # component; it is the whole cut when no earlier vertex has an edge to c.
    c = 0
    for v in range(1, n):
        if edge(v, c):
            c = v
    if not any(edge(v, c) for v in range(c)):
        return EfficiencyCertificate(efficient=False, cut=(c,))
    path = _hamiltonian_path(edge, scan, n)
    end = next(_component_ends(edge, path))
    if end < n - 1:
        return EfficiencyCertificate(efficient=False, cut=tuple(sorted(path[: end + 1])))
    return EfficiencyCertificate(efficient=True, cycle=_grow_cycle(edge, path))


def improve(a: ReciprocalMatrix, w: Sequence[Fraction]) -> Vec | None:
    """An efficient vector dominating w, or None when w is efficient.

    Every pair leaving the cut T of an inefficient certificate is slack:
    ``w_i > a_ij * w_j`` for i in T, j outside.  Scaling T by the largest
    ``a_ij * w_j / w_i`` over those pairs (a factor below 1) makes the
    tightest one an equality and moves every crossing ratio strictly
    closer to its entry, so the scaled vector dominates.  The tight pair
    joins two components, so at most n - 1 rounds reach an efficient
    vector; domination is transitive, so it dominates w.

    With w_i = p_i/q_i and a_ij = r_ij/s_ij, the ratio is
    (r_ij*p_j*q_i) / (s_ij*q_j*p_i); the largest is found by integer
    cross-products, and only the factor is built as a Fraction.
    """
    vec = as_weight_vector(w)
    certificate = is_efficient(a, vec)
    if certificate.efficient:
        return None
    num = a._numerators
    while not certificate.efficient:
        inside = set(certificate.cut)
        outside = [j for j in range(a.n) if j not in inside]
        p = [v.numerator for v in vec]
        q = [v.denominator for v in vec]
        top, bottom = 0, 1
        for i in inside:
            for j in outside:
                x = num[i][j] * p[j] * q[i]
                y = num[j][i] * q[j] * p[i]
                if x * bottom > top * y:
                    top, bottom = x, y
        factor = Fraction(top, bottom)
        vec = tuple(v * factor if t in inside else v for t, v in enumerate(vec))
        certificate = is_efficient(a, vec)
    return vec
