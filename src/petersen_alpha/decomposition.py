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
validation's report.
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
    """Check the three decomposition axioms against g, listing violations."""
    violations: list[str] = []

    union = set().union(*d.bags)
    missing = set(range(g.vertex_count)) - union
    union_covers = not missing and union <= set(range(g.vertex_count))
    for v in sorted(missing):
        violations.append(f"vertex {v} in no bag")
    for v in sorted(union - set(range(g.vertex_count))):
        union_covers = False
        violations.append(f"bag member {v} is not a vertex")

    bags_of: dict[int, list[int]] = {}
    for idx, bag in enumerate(d.bags):
        for v in bag:
            bags_of.setdefault(v, []).append(idx)

    edges_ok = True
    for a, b in g.edges():
        if not set(bags_of.get(a, ())) & set(bags_of.get(b, ())):
            edges_ok = False
            violations.append(f"edge {a}-{b} in no bag")

    occurrences_ok = True
    for v in range(g.vertex_count):
        idx = bags_of.get(v)
        if idx and idx[-1] - idx[0] + 1 != len(idx):
            occurrences_ok = False
            violations.append(f"bags of vertex {v} are disconnected in the path")

    return ValidationReport(union_covers, edges_ok, occurrences_ok, d.width, violations)
