"""Path decomposition of P(n,k) with width 4k+3, plus the axiom validator.

The first bag holds the k+1 leading spoke pairs and the k+1 trailing ones;
each later bag swaps one spoke pair for the next, alternating between the
front end (retire the oldest leading pair, admit the next) and the back end
(retire the newest trailing pair, admit the preceding one).  After
n - 2k - 2 swaps the two windows meet, giving n - 2k - 1 bags of 4k+4
vertices each, i.e. width 4k+3.  Bag i is joined to bag i+1.  For
n = 2k+1 the windows already cover every vertex, so the result is a single
bag of width 2n-1, flagged trivial.  The construction self-validates once;
`checked_path_decomposition` also returns that validation's report.
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
        return {
            "union_covers_v": self.union_covers_v,
            "every_edge_in_some_bag": self.every_edge_in_some_bag,
            "occurrences_connected": self.occurrences_connected,
            "width": self.width,
            "valid": self.valid,
            "violations": self.violations,
        }


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

    def pair(i: int) -> frozenset[int]:
        return frozenset({g.outer(i), g.inner(i)})

    m = n - 2 * k - 1
    current: set[int] = set()
    for i in range(k + 1):
        current |= pair(i)
    for i in range(n - k - 1, n):
        current |= pair(i)
    bags = [frozenset(current)]
    front_remove, front_add = 0, k + 1
    back_remove, back_add = n - 1, n - k - 2
    for step in range(2, m + 1):
        if step % 2 == 0:
            current -= pair(front_remove)
            current |= pair(front_add)
            front_remove += 1
            front_add += 1
        else:
            current -= pair(back_remove)
            current |= pair(back_add)
            back_remove -= 1
            back_add -= 1
        bags.append(frozenset(current))
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
