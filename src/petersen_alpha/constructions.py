"""Explicit independent sets in P(n,k) for even k > 2.

The induced subgraph on one 2k-segment has independence number 2k with a
unique maximum set.  Running the forcing argument from u_t (take u_t, which
bans u_{t+1} and v_t, which forces v_{t+1} and u_{t+k} via the inner
matching, and so on) propagates to the pattern

    u offsets: 0, 2, ..., k-2   and   k+1, k+3, ..., 2k-1
    v offsets: 1, 3, ..., k-1   and   k,   k+2, ..., 2k-2

relative to the segment start.  Dropping u_t leaves the 2k-1 element
"special" trace whose tiles can sit on consecutive segments without
conflicting across tile boundaries.  The two witness builders tile that
special trace q = floor(n/2k) times and finish the leftover r = n mod 2k
spokes with explicit index lists, one family for even n and one for odd n.
Every builder verifies its output before returning and raises InternalError
if the transcribed lists are ever wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import tiling_size_even_even, tiling_size_odd_even
from .errors import DomainError, InternalError
from .graph import GeneralizedPetersen, petersen_graph, petersen_violations


@dataclass(frozen=True)
class IndependentSetWitness:
    n: int
    k: int
    members: frozenset[int]
    claimed_size: int
    source: str  # "even-even-tiling" | "odd-even-tiling"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "size": self.claimed_size,
            "members": sorted(self.members),
            "source": self.source,
        }


@dataclass(frozen=True)
class WitnessCheck:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _require_even_k(k: int) -> None:
    if k % 2 != 0 or k <= 2:
        raise DomainError(f"pattern requires even k > 2, got k={k}")


def type1_pattern(g: GeneralizedPetersen, t: int) -> frozenset[int]:
    """Codes of the unique maximum independent set of the 2k-segment at t."""
    k = g.k
    _require_even_k(k)
    outer = list(range(0, k - 1, 2)) + list(range(k + 1, 2 * k, 2))
    inner = list(range(1, k, 2)) + list(range(k, 2 * k - 1, 2))
    return frozenset([g.outer(t + off) for off in outer] + [g.inner(t + off) for off in inner])


def special2_pattern(g: GeneralizedPetersen, t: int) -> frozenset[int]:
    """type1_pattern minus u_t: the 2k-1 element tileable trace."""
    return type1_pattern(g, t) - {g.outer(t)}


def _outer_range(g: GeneralizedPetersen, start: int, stop: int) -> set[int]:
    """Codes of u_start, u_{start+2}, ... strictly below stop (0-based)."""
    return {g.outer(i) for i in range(start, stop, 2)}


def _inner_range(g: GeneralizedPetersen, start: int, stop: int) -> set[int]:
    return {g.inner(i) for i in range(start, stop, 2)}


def independent_set_even_even(n: int, k: int) -> IndependentSetWitness:
    """Tiling witness for even n, even k > 2, of the stated closed-form size.

    The leftover r = n mod 2k spokes sit on positions 0..r-1 and the q full
    segments start at r, r+2k, ...; the r-extension lists are the even-n
    case split (r <= k versus r > k).
    """
    if n % 2 or k % 2 or k <= 2:
        raise DomainError(f"even/even construction needs even n, even k > 2, got ({n},{k})")
    g = petersen_graph(n, k)
    q, r = divmod(n, 2 * k)
    members: set[int] = set()
    for j in range(q):
        members |= special2_pattern(g, r + 2 * k * j)
    if r <= k:
        members |= _outer_range(g, 1, r)
    else:
        members |= _outer_range(g, 2, r - k - 1)
        members |= _inner_range(g, 1, r - k)
        members |= _outer_range(g, r - k, k - 1)
        members |= _outer_range(g, k + 1, r)
        members |= _inner_range(g, k, r - 1)
    return _checked(IndependentSetWitness(
        n, k, frozenset(members), tiling_size_even_even(n, k), "even-even-tiling"
    ))


def independent_set_odd_even(n: int, k: int) -> IndependentSetWitness:
    """Tiling witness for odd n, even k > 2.

    The last full segment occupies positions 0..2k-1, the leftover r spokes
    positions 2k..2k+r-1, and the remaining q-1 segments tile the rest.  The
    boundary cases with a single full segment (q = 1, covering both r = 1 and
    1 < r < 2k) are built and verified like any other rather than assumed to
    work; if the index lists ever failed to verify there, this would raise
    InternalError instead of returning a bad witness.
    """
    if n % 2 == 0 or k % 2 or k <= 2:
        raise DomainError(f"odd/even construction needs odd n, even k > 2, got ({n},{k})")
    g = petersen_graph(n, k)
    q, r = divmod(n, 2 * k)
    if r == 0 or r == k:
        raise InternalError(f"r = {r} cannot happen for odd n, even k")
    members: set[int] = set()
    for j in range(q - 1):
        members |= special2_pattern(g, 2 * k + r + 2 * k * j)
    if r == 1:
        members |= _outer_range(g, 1, k)
        members |= _outer_range(g, k + 2, 2 * k + 1)
        members |= {g.inner(k)}
        members |= _inner_range(g, k + 1, 2 * k)
    else:  # r < k and r > k differ only in where two inner runs stop
        members |= _outer_range(g, 2, k - 1)
        members |= _outer_range(g, k + 1, 2 * k)
        members |= _outer_range(g, 2 * k + 2, 2 * k + r)
        members |= _inner_range(g, 1, k)
        members |= _inner_range(g, k, min(k + r, 2 * k - 1))
        members |= _inner_range(g, 2 * k + 1, min(2 * k + r - 1, 3 * k))
    return _checked(IndependentSetWitness(
        n, k, frozenset(members), tiling_size_odd_even(n, k), "odd-even-tiling"
    ))


def _checked(witness: IndependentSetWitness) -> IndependentSetWitness:
    """The witness once verify_witness passes it; InternalError otherwise."""
    check = verify_witness(witness)
    if not check:
        raise InternalError(f"{witness.source} witness failed self-check: {check.problems}")
    return witness


def verify_witness(w: IndependentSetWitness) -> WitnessCheck:
    """Check the claimed size and independence; report what is violated."""
    problems: list[str] = []
    g = petersen_graph(w.n, w.k)
    if len(w.members) != w.claimed_size:
        problems.append(f"size mismatch: {len(w.members)} members, claimed {w.claimed_size}")
    for a, b in petersen_violations(w.n, w.k, w.members):
        problems.append(f"edge inside set: {g.label(a)}-{g.label(b)}")
    return WitnessCheck(not problems, tuple(problems))
