"""Path decomposition of P(n,k) with width 4k+3, plus the axiom validator.

Each bag holds a front window of k+1 consecutive spoke pairs u_i v_i and a
back window of k+1 more.  Bag j, for 0 <= j < n - 2k - 1, is

    pairs ceil(j/2) .. ceil(j/2) + k   and   pairs n-k-1-floor(j/2) .. n-1-floor(j/2),

so bag 0 holds the k+1 leading and the k+1 trailing pairs, and each later
bag swaps one pair, alternately at the front window (which moves up) and at
the back window (which moves down), until the two windows meet.  That gives
n - 2k - 1 bags of 4k+4 vertices each, i.e. width 4k+3, and bag j is joined
to bag j+1.  For n = 2k+1 the windows already cover every vertex, so the
result is a single bag of width 2n-1, flagged trivial.  The construction
self-validates once; `checked_path_decomposition` also returns that
validation's report.  `validate_decomposition` checks the axioms in one walk
along the path, looking only at the vertices that join each bag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, InternalError
from .graph import AdjacencyGraph, GeneralizedPetersen, adjacency, petersen_graph


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[frozenset[int], ...]
    trivial: bool = False

    def __post_init__(self) -> None:
        if not self.bags or any(not b for b in self.bags):
            raise DomainError("every bag must be nonempty")

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def to_dict(self, n: int, k: int) -> dict:
        return {
            "n": n,
            "k": k,
            "width": self.width,
            "trivial": self.trivial,
            "bags": [sorted(b) for b in self.bags],
        }


@dataclass
class ValidationReport:
    union_covers_v: bool
    every_edge_in_some_bag: bool
    occurrences_connected: bool
    width: int
    violations: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.union_covers_v and self.every_edge_in_some_bag and self.occurrences_connected

    def to_dict(self) -> dict:
        return {**vars(self), "valid": self.valid}


def path_decomposition(n: int, k: int) -> PathDecomposition:
    """The width-4k+3 path decomposition of P(n,k); for n = 2k+1, the
    flagged single bag."""
    return checked_path_decomposition(n, k)[0]


def checked_path_decomposition(n: int, k: int) -> tuple[PathDecomposition, ValidationReport]:
    """The decomposition of P(n,k) with the report of its one validation; a
    construction that fails the axioms, or a non-trivial one whose width is
    not 4k+3, raises InternalError."""
    g = petersen_graph(n, k)
    deco = _build(g)
    report = validate_decomposition(adjacency(g), deco)
    if not report.valid or (not deco.trivial and deco.width != 4 * k + 3):
        raise InternalError(f"extrapolated decomposition invalid for ({n},{k}): {report.violations}")
    return deco, report


def _build(g: GeneralizedPetersen) -> PathDecomposition:
    n, k = g.n, g.k
    if n == 2 * k + 1:
        return PathDecomposition((frozenset(range(2 * n)),), trivial=True)

    def pairs_from(i: int) -> set[int]:
        """The codes of the k+1 spoke pairs u_i v_i .. u_{i+k} v_{i+k}, none
        past u_{n-1} v_{n-1}: u_t is t and v_t is n + t."""
        return {*range(i, i + k + 1), *range(n + i, n + i + k + 1)}

    bags = []
    for j in range(n - 2 * k - 1):
        front, back = (j + 1) // 2, j // 2
        bags.append(frozenset(pairs_from(front) | pairs_from(n - k - 1 - back)))
    return PathDecomposition(tuple(bags))


def validate_decomposition(g: AdjacencyGraph, d: PathDecomposition) -> ValidationReport:
    """Check the three decomposition axioms against g, listing violations.

    One walk along the path looks only at the members that join each bag
    (are not in the bag before it).  A vertex's bags are consecutive exactly
    when it joins once, and the first bag that holds both ends of an edge is
    one that an end joins, so each joining vertex marks its edges into the
    bag as covered."""
    vertices = set(range(g.vertex_count))
    joined, rejoined, strays = set(), set(), set()
    covered: set[tuple[int, int]] = set()
    for prev, bag in zip((frozenset(),) + d.bags, d.bags):
        new = bag - prev
        strays |= new - vertices
        rejoined |= new & joined
        joined |= new & vertices
        for v in new & vertices:
            covered.update((v, w) if v < w else (w, v) for w in g.neighbors[v] if w in bag)

    uncovered = [e for e in g.edges() if e not in covered]
    violations = [f"vertex {v} in no bag" for v in sorted(vertices - joined)]
    violations += [f"bag member {v} is not a vertex" for v in sorted(strays)]
    violations += [f"edge {a}-{b} in no bag" for a, b in uncovered]
    violations += [f"bags of vertex {v} are disconnected in the path" for v in sorted(rejoined)]
    covers = joined == vertices and not strays
    return ValidationReport(covers, not uncovered, not rejoined, d.width, violations)
