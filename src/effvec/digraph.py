"""Dominance digraphs, the graph test for efficiency, and dominators.

For a comparison matrix A and weight vector w, the dominance digraph has an
edge i -> j exactly when ``w[i] >= a[i][j] * w[j]``: the vector concedes at
least as much to i over j as the matrix asks.  At least one of the two edges
exists for every pair (the digraph is semi-complete); ties contribute both.

w is efficient (no other vector weakly improves every entrywise deviation
from A, strictly somewhere) precisely when this digraph is strongly
connected, equivalently when it carries a Hamiltonian cycle.  Both
witnesses are direct constructions on a semi-complete digraph: the strong
components come from the score sequence, the cycle from path insertion.
When w is inefficient, the source component is the cut of the certificate,
and scaling it down until a crossing pair turns tight gives a dominating
vector; ``improve`` repeats that until the vector is efficient.

Matrices and vectors stay ``Fraction`` at the interface.  Inside, each edge
test clears denominators and compares integer products, using the integer
numerator table every ``ReciprocalMatrix`` records when it is built; no
Fraction arithmetic and no float takes part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from fractions import Fraction

from .matrices import ReciprocalMatrix, Vec, as_weight_vector

__all__ = [
    "DominanceDigraph",
    "EfficiencyCertificate",
    "HamiltonianCycle",
    "build_digraph",
    "strongly_connected",
    "find_hamiltonian_cycle",
    "is_efficient",
    "improve",
]


@dataclass(frozen=True)
class HamiltonianCycle:
    """A directed cycle visiting every vertex once; stored starting at vertex 0."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if n < 2:
            raise ValueError("cycles need at least two vertices")
        if sorted(self.order) != list(range(n)):
            raise ValueError("cycle must visit each vertex exactly once")
        if self.order[0] != 0:
            raise ValueError("canonical cycles start at vertex 0; use from_vertices")

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


@dataclass(frozen=True)
class DominanceDigraph:
    """Adjacency of the dominance relation; adjacency[i][j] is the edge i -> j.

    The digraph must be semi-complete, with an edge in at least one
    direction between every two vertices, as every digraph from
    ``build_digraph`` is: ``strongly_connected`` and
    ``find_hamiltonian_cycle`` rely on it.
    """

    adjacency: tuple[tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def has_edge(self, i: int, j: int) -> bool:
        return self.adjacency[i][j]


@dataclass(frozen=True)
class EfficiencyCertificate:
    """Outcome of the efficiency test, with a checkable witness either way.

    Efficient vectors carry a Hamiltonian cycle of the dominance digraph;
    inefficient ones carry a cut: a vertex set receiving no edge from outside,
    so the digraph cannot be strongly connected.
    """

    efficient: bool
    cycle: HamiltonianCycle | None = None
    cut: tuple[int, ...] | None = None


def build_digraph(a: ReciprocalMatrix, w: Sequence[Fraction]) -> DominanceDigraph:
    """Exact dominance digraph of (a, w); ties yield edges in both directions.

    With w_i = p_i/q_i and a_ij = r_ij/s_ij, the edge i -> j holds exactly
    when p_i*q_j*s_ij >= r_ij*p_j*q_i.  Reciprocity (a_ji = s_ij/r_ij) makes
    the edge j -> i the reverse comparison of the same two products, so one
    pair of products decides both edges.
    """
    vec: Vec = as_weight_vector(w)
    n = a.n
    if len(vec) != n:
        raise ValueError(f"vector length {len(vec)} does not match matrix dimension {n}")
    p = [v.numerator for v in vec]
    q = [v.denominator for v in vec]
    num = a._numerators
    adj = [[True] * n for _ in range(n)]
    for i in range(n):
        r, pi, qi, row = num[i], p[i], q[i], adj[i]
        for j in range(i + 1, n):
            forward = pi * q[j] * num[j][i]
            backward = r[j] * p[j] * qi
            row[j] = forward >= backward
            adj[j][i] = backward >= forward
    return DominanceDigraph(tuple(map(tuple, adj)))


def strongly_connected(g: DominanceDigraph) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Strong components of a semi-complete digraph, in topological order.

    Precondition: g is semi-complete (every digraph from ``build_digraph``
    is); on other digraphs the result is meaningless.  Then
    ``out(v) - in(v) + n - 1`` is twice the score of v, counting a win as 1
    and a tie as 1/2.  A source set (no edge enters it) of size k holds
    exactly the k top scorers, and the top k are a source set exactly when
    their doubled scores sum to ``k(k-1) + 2k(n-k)`` (Landau's score
    characterisation), so the components are the gaps between such
    prefixes of the descending order.
    """
    adj = g.adjacency
    n = len(adj)
    excess = [row.count(True) - col.count(True) for row, col in zip(adj, zip(*adj))]
    order = sorted(range(n), key=excess.__getitem__, reverse=True)
    components: list[tuple[int, ...]] = []
    start = total = 0
    for k, v in enumerate(order, 1):
        total += excess[v] + n - 1
        if total == k * (k - 1) + 2 * k * (n - k):
            components.append(tuple(sorted(order[start:k])))
            start = k
    return len(components) == 1, tuple(components)


def _hamiltonian_path(g: DominanceDigraph) -> list[int]:
    """Insertion construction of a Hamiltonian path; valid in any semi-complete digraph."""
    path = [0]
    for u in range(1, g.n):
        if g.has_edge(path[-1], u):
            path.append(u)
            continue
        if g.has_edge(u, path[0]):
            path.insert(0, u)
            continue
        # First position whose occupant u beats; its predecessor beats u.
        for t in range(1, len(path)):
            if g.has_edge(u, path[t]):
                path.insert(t, u)
                break
        else:  # pragma: no cover - impossible when g is semi-complete
            raise ValueError("digraph is not semi-complete")
    return path


def find_hamiltonian_cycle(g: DominanceDigraph) -> HamiltonianCycle:
    """Hamiltonian cycle of a strongly connected semi-complete digraph.

    Builds a Hamiltonian path by insertion, closes its longest closable
    prefix into a cycle, then grows the cycle one splice at a time.  Runs in
    polynomial time; never enumerates permutations.  Every step uses only
    edges of g, so the construction completes exactly when g is strongly
    connected; otherwise it gets stuck and raises ValueError.
    """
    not_strong = "digraph is not strongly connected; no Hamiltonian cycle exists"
    path = _hamiltonian_path(g)
    n = g.n

    close_at = max((t for t in range(1, n) if g.has_edge(path[t], path[0])), default=0)
    if close_at == 0:
        raise ValueError(not_strong)
    cycle = path[: close_at + 1]
    remaining = path[close_at + 1 :]

    while remaining:
        inserted = False
        for u in sorted(remaining):
            k = len(cycle)
            for t in range(k):
                if g.has_edge(cycle[t], u) and g.has_edge(u, cycle[(t + 1) % k]):
                    cycle.insert(t + 1, u)
                    remaining.remove(u)
                    inserted = True
                    break
            if inserted:
                break
        if inserted:
            continue
        # No vertex slots in, so each remaining vertex either beats the whole
        # cycle or loses to it; only strong connectivity forces a bridge pair.
        beats = [u for u in remaining if g.has_edge(u, cycle[0])]
        loses = [u for u in remaining if u not in beats]
        bridge = None
        for b in sorted(loses):
            for a in sorted(beats):
                if g.has_edge(b, a):
                    bridge = (b, a)
                    break
            if bridge:
                break
        if bridge is None:
            raise ValueError(not_strong)
        cycle.extend(bridge)
        remaining.remove(bridge[0])
        remaining.remove(bridge[1])

    return HamiltonianCycle.from_vertices(cycle)


def is_efficient(a: ReciprocalMatrix, w: Sequence[Fraction]) -> EfficiencyCertificate:
    """Decide efficiency of w for a, with a cycle or cut witness."""
    g = build_digraph(a, w)
    strong, components = strongly_connected(g)
    if strong:
        return EfficiencyCertificate(efficient=True, cycle=find_hamiltonian_cycle(g))
    return EfficiencyCertificate(efficient=False, cut=components[0])


def improve(a: ReciprocalMatrix, w: Sequence[Fraction]) -> Vec | None:
    """An efficient vector dominating w, or None when w is efficient.

    Every pair leaving the cut T of an inefficient certificate is slack:
    ``w_i > a_ij * w_j`` for i in T, j outside.  Scaling T by the largest
    ``a_ij * w_j / w_i`` over those pairs (a factor below 1) makes the
    tightest one an equality and moves every crossing ratio strictly
    closer to its entry, so the scaled vector dominates.  The tight pair
    joins two components, so at most n - 1 rounds reach an efficient
    vector; domination is transitive, so it dominates w.
    """
    vec = as_weight_vector(w)
    certificate = is_efficient(a, vec)
    if certificate.efficient:
        return None
    e = a.entries
    while not certificate.efficient:
        inside = set(certificate.cut)
        outside = [j for j in range(a.n) if j not in inside]
        factor = max(e[i][j] * vec[j] / vec[i] for i in inside for j in outside)
        vec = tuple(v * factor if t in inside else v for t, v in enumerate(vec))
        certificate = is_efficient(a, vec)
    return vec
