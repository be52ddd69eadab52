"""Generalized Petersen graphs P(n,k) and segment machinery.

P(n,k) has outer vertices u_0..u_{n-1} forming a cycle, inner vertices
v_0..v_{n-1} joined by chords v_i v_{i+k}, and spokes u_i v_i (indices mod n,
n > 2k).  Everything downstream relies on one canonical integer encoding:

    u_i  ->  i            (0 <= i < n)
    v_i  ->  n + i

A "segment" starting at spoke t collects 2k consecutive spoke pairs
{u_t..u_{t+2k-1}, v_t..v_{t+2k-1}}.  Given an independent set S, a segment is
classified by how many of its 4k vertices S hits: 2k (type 1), 2k-1 (type 2,
with a "special" subtype when u_t is absent but could be added back inside the
segment), or at most 2k-2 (type 3).  The spokes form a perfect matching of the
segment, so the intersection can never exceed 2k.

`petersen_violations` is the one check of which edges of P(n,k) lie inside a
vertex set: witnesses and segments use it, and it never builds the graph.
`adjacency` and `petersen_masks` (bitmasks) build P(n,k) from one edge list.

All functions here are pure; instances are immutable and safe to share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError


@dataclass(frozen=True)
class GeneralizedPetersen:
    """The (n,k) family member, with 2n vertices and 3n edges."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.n <= 2 * self.k:
            raise DomainError(f"P(n,k) requires n > 2k, got n={self.n}, k={self.k}")

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    def outer(self, i: int) -> int:
        """Canonical code of u_i (index taken mod n)."""
        return i % self.n

    def inner(self, i: int) -> int:
        """Canonical code of v_i (index taken mod n)."""
        return self.n + (i % self.n)

    def label(self, code: int) -> str:
        """Human-readable name ("u3", "v7") for a canonical code."""
        if not 0 <= code < 2 * self.n:
            raise DomainError(f"vertex code {code} out of range for 2n={2 * self.n}")
        return f"u{code}" if code < self.n else f"v{code - self.n}"


@dataclass(frozen=True)
class AdjacencyGraph:
    """Immutable undirected graph as sorted adjacency lists."""

    vertex_count: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.neighbors) != self.vertex_count:
            raise DomainError("neighbor table length differs from vertex_count")
        for i, row in enumerate(self.neighbors):
            if list(row) != sorted(set(row)):
                raise DomainError(f"neighbor list of {i} is not sorted/duplicate-free")
            for j in row:
                if not 0 <= j < self.vertex_count:
                    raise DomainError(f"neighbor {j} of {i} out of range")
                if j == i:
                    raise DomainError(f"self-loop at {i}")
                if i not in self.neighbors[j]:
                    raise DomainError(f"asymmetric edge {i}-{j}")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "AdjacencyGraph":
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for a, b in edges:
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise DomainError(f"edge ({a},{b}) out of range")
            adj[a].add(b)
            adj[b].add(a)
        return cls(vertex_count, tuple(tuple(sorted(s)) for s in adj))

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.neighbors) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.neighbors):
            for j in row:
                if i < j:
                    yield (i, j)


def petersen_graph(n: int, k: int) -> GeneralizedPetersen:
    """Construct the family instance; DomainError outside n > 2k, k >= 1."""
    return GeneralizedPetersen(n, k)


def is_bipartite(n: int, k: int) -> bool:
    """Whether P(n,k) is bipartite: n even and k odd.  These are exactly the
    cells with alpha = n, since the n spokes split the vertices into pairs
    and a cubic graph with an independent half of its vertices is bipartite."""
    return n % 2 == 0 and k % 2 == 1


def _edges(n: int, k: int) -> Iterator[tuple[int, int]]:
    """Each edge of P(n,k) once: u_i u_{i+1}, u_i v_i and v_i v_{i+k} for each i."""
    for i in range(n):
        yield from ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n))


def adjacency(g: GeneralizedPetersen) -> AdjacencyGraph:
    """Adjacency lists of P(n,k) under the canonical encoding (deterministic)."""
    return AdjacencyGraph.from_edges(2 * g.n, _edges(g.n, g.k))


def petersen_masks(n: int, k: int) -> dict[int, int]:
    """The neighbour bitmask of each vertex code of P(n,k), in code order."""
    petersen_graph(n, k)
    masks = [0] * (2 * n)
    for a, b in _edges(n, k):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return dict(enumerate(masks))


def segment_vertices(g: GeneralizedPetersen, t: int, length: int | None = None) -> tuple[int, ...]:
    """Canonical codes of the spoke pairs t..t+length-1 (wrapping mod n)."""
    if length is None:
        length = 2 * g.k
    if not 1 <= length <= g.n:
        raise DomainError(f"segment length must be in [1, n], got {length}")
    out = []
    for j in range(length):
        out.append(g.outer(t + j))
    for j in range(length):
        out.append(g.inner(t + j))
    return tuple(out)


def segment_subgraph(
    g: GeneralizedPetersen, t: int, length: int | None = None
) -> tuple[AdjacencyGraph, tuple[int, ...]]:
    """Induced subgraph on a segment plus the local->canonical code mapping."""
    codes = segment_vertices(g, t, length)
    pos = {c: i for i, c in enumerate(codes)}
    edges = [(pos[a], pos[b]) for a, b in petersen_violations(g.n, g.k, codes)]
    return AdjacencyGraph.from_edges(len(codes), edges), codes


def _check_vertices(vertex_count: int, vertices: Iterable[int]) -> set[int]:
    s = set(vertices)
    for v in s:
        if not 0 <= v < vertex_count:
            raise DomainError(f"vertex {v} out of range for graph on {vertex_count} vertices")
    return s


def is_independent(g: AdjacencyGraph, vertices: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in the set."""
    s = _check_vertices(g.vertex_count, vertices)
    return not any(w in s for v in s for w in g.neighbors[v])


def petersen_violations(n: int, k: int, vertices: Iterable[int]) -> list[tuple[int, int]]:
    """The edges (a, b), a < b, of P(n,k) with both ends in the set, sorted;
    empty iff the set is independent.  The graph is not built: each member
    u_i reads its outer edge u_i u_{i+1} and spoke u_i v_i, each v_i its
    chord v_i v_{i+k}, so every edge is read once."""
    petersen_graph(n, k)
    s = _check_vertices(2 * n, vertices)
    edges = []
    for v in s:
        if v < n:
            w = (v + 1) % n
            if w in s:
                edges.append((v, w) if v < w else (w, v))
            if n + v in s:
                edges.append((v, n + v))
        else:
            w = n + (v - n + k) % n
            if w in s:
                edges.append((v, w) if v < w else (w, v))
    return sorted(edges)


class SegmentKind(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    SPECIAL2 = "special2"
    TYPE3 = "type3"


@dataclass(frozen=True)
class SegmentClass:
    kind: SegmentKind
    intersection_size: int


def classify_segment(g: GeneralizedPetersen, s: Iterable[int], t: int) -> SegmentClass:
    """Classify the segment at t with respect to an independent set s.

    Intersection size 2k is type 1, 2k-1 is type 2 (special when u_t is not in
    s and re-adding it keeps the trace independent inside the segment, where
    n > 2k leaves u_t only the neighbours u_{t+1} and v_t), anything smaller is
    type 3.  Raises DomainError when s is not independent, since the
    classification is only defined for independent sets.
    """
    members = set(s)
    if petersen_violations(g.n, g.k, members):
        raise DomainError("segment classification requires an independent set")
    k = g.k
    size = len(members.intersection(segment_vertices(g, t)))
    if size == 2 * k:
        return SegmentClass(SegmentKind.TYPE1, size)
    if size == 2 * k - 1:
        if members.isdisjoint((g.outer(t), g.outer(t + 1), g.inner(t))):
            return SegmentClass(SegmentKind.SPECIAL2, size)
        return SegmentClass(SegmentKind.TYPE2, size)
    return SegmentClass(SegmentKind.TYPE3, size)
