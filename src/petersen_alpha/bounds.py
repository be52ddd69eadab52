"""Closed forms and lower/upper bounds for alpha(P(n,k)).

Every bound carries a source slug so reports stay traceable:

exact values
    k1, k3, k5    alpha(P(n,k)) = n (n even) / n - (k+1)/2 (n odd)
    k2            alpha(P(n,2)) = floor(4n/5)
    k4-residue    alpha(P(n,4)) = 7 floor(n/8) + 0, 0, 1, 2, 4 for
                  n = 0, 1, 2, 3, 5 (mod 8)
    n3k           alpha(P(3k,k)) = ceil((5k-2)/2)
    bipartite     alpha = n exactly when n is even and k is odd
    odd-odd-exact n,k odd with k | n: alpha = n - (k+1)/2
    even-k-residue  even k>2 with n = 0,2,k-1,k+1 (mod 2k): floor((2k-1)n/2k)

upper bounds
    spoke-matching   alpha <= n (spokes form a perfect matching)
    segment-density  alpha <= floor((2k-1)n/2k) for even k>2
    odd-gcd          alpha <= n - (gcd(n,k)+1)/2 for odd n

lower bounds
    odd-odd           n,k odd: alpha >= n - (k+1)/2
    even-k-ratio      even k: n - n/(k-1) when (k-1) | n, else the strict
                      bound n - n/(k-1) - 2k rounded up to the next integer
    even-even-gcd     n,k even: n/2 + (d/2) * floor(n/2d), d = gcd(n,k)
    odd-even-gcd      n odd, k even (applied only for n >= 3k; the printed
                      formula overshoots the optimum on part of the
                      n = 2k+1 family, so it is restricted to the range
                      where it checks out against exact values)
    even-even-tiling  n,k even, k>2: the explicit segment-tiling witness size
    odd-even-tiling   n odd, k even, k>2: ditto for odd n
    bipartite         n even, k odd: alpha = n

Only the strict even-k-ratio bound can go negative (for small n); it is
clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalError
from .graph import is_bipartite, petersen_graph


@dataclass(frozen=True)
class BoundValue:
    value: int
    source: str
    kind: str  # "lower" | "upper" | "exact"


@dataclass
class BoundReport:
    n: int
    k: int
    lower: BoundValue
    upper: BoundValue
    exact: int | None
    all: list[BoundValue]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "lower": {"value": self.lower.value, "source": self.lower.source},
            "upper": {"value": self.upper.value, "source": self.upper.source},
            "exact": self.exact,
            "all": [dict(vars(b)) for b in self.all],
        }


def tiling_size_even_even(n: int, k: int) -> int:
    """Size of the segment-tiling independent set for even n, even k>2."""
    q, r = divmod(n, 2 * k)
    return (2 * k - 1) * q + (r // 2 if r <= k else (3 * r) // 2 - k - 1)


def tiling_size_odd_even(n: int, k: int) -> int:
    """Size of the segment-tiling independent set for odd n, even k>2."""
    q, r = divmod(n, 2 * k)
    if r == 1:
        extra = -(k // 2) + 2
    elif r < k:
        extra = (3 * r - k - 1) // 2
    else:
        extra = k // 2 + (r - 1) // 2
    return (2 * k - 1) * q + extra


# alpha(P(n,4)) - 7 floor(n/8) for the residues n mod 8 that have a closed form
_K4_OFFSET = {0: 0, 1: 0, 2: 1, 3: 2, 5: 4}


def exact_closed_form(n: int, k: int) -> BoundValue | None:
    """The closed-form alpha(P(n,k)) when one of the known equalities applies.

    All applicable forms must agree; disagreement raises InternalError since
    it can only come from a transcription bug.
    """
    petersen_graph(n, k)
    candidates: list[tuple[str, int]] = []
    if k in (1, 3, 5):
        candidates.append((f"k{k}", n - n % 2 * (k + 1) // 2))
    if k == 2:
        candidates.append(("k2", 4 * n // 5))
    if k == 4 and n % 8 in _K4_OFFSET:
        candidates.append(("k4-residue", 7 * (n - n % 8) // 8 + _K4_OFFSET[n % 8]))
    if n == 3 * k:
        candidates.append(("n3k", (5 * k - 1) // 2))  # ceil((5k-2)/2)
    if is_bipartite(n, k):
        candidates.append(("bipartite", n))
    if n % 2 == 1 and k % 2 == 1 and n % k == 0:
        candidates.append(("odd-odd-exact", n - (k + 1) // 2))
    if k % 2 == 0 and k > 2 and n % (2 * k) in (0, 2, k - 1, k + 1):
        candidates.append(("even-k-residue", (2 * k - 1) * n // (2 * k)))

    if not candidates:
        return None
    if len({v for _, v in candidates}) > 1:
        raise InternalError(f"closed forms disagree for (n={n}, k={k}): {candidates}")
    source, value = candidates[0]
    return BoundValue(value, source, "exact")


def upper_bounds(n: int, k: int) -> list[BoundValue]:
    """Every applicable upper bound (always nonempty: alpha <= n)."""
    petersen_graph(n, k)
    out = [BoundValue(n, "spoke-matching", "upper")]
    if k % 2 == 0 and k > 2:
        out.append(BoundValue((2 * k - 1) * n // (2 * k), "segment-density", "upper"))
    if n % 2 == 1:
        d = math.gcd(n, k)
        out.append(BoundValue(n - (d + 1) // 2, "odd-gcd", "upper"))
    return out


def lower_bounds(n: int, k: int) -> list[BoundValue]:
    """Every applicable lower bound (never empty: odd k gives odd-odd or
    bipartite, even k gives even-k-ratio).  Only the strict even-k-ratio
    bound can go negative; it is clamped at 0."""
    petersen_graph(n, k)
    d = math.gcd(n, k)
    out: list[BoundValue] = []
    if n % 2 == 1 and k % 2 == 1:
        out.append(BoundValue(n - (k + 1) // 2, "odd-odd", "lower"))
    if is_bipartite(n, k):
        out.append(BoundValue(n, "bipartite", "lower"))
    if k % 2 == 0:
        if n % (k - 1) == 0:
            out.append(BoundValue(n - n // (k - 1), "even-k-ratio", "lower"))
        else:
            # strict bound alpha > n - n/(k-1) - 2k, as an integer
            num = n * (k - 2) - 2 * k * (k - 1)
            out.append(BoundValue(max(0, num // (k - 1) + 1), "even-k-ratio", "lower"))
        if n % 2 == 0:
            out.append(BoundValue(n // 2 + (d // 2) * (n // (2 * d)), "even-even-gcd", "lower"))
        elif n >= 3 * k:
            m = -(n // -k)  # ceil(n/k)
            value = (
                (n - 1) // 2
                + ((m + 1) // 2) * (n // (2 * d * m))
                + ((d - 1) // 2) * (((n // d) % m) // 2)
            )
            out.append(BoundValue(value, "odd-even-gcd", "lower"))
        if k > 2:
            if n % 2 == 0:
                out.append(BoundValue(tiling_size_even_even(n, k), "even-even-tiling", "lower"))
            else:
                out.append(BoundValue(tiling_size_odd_even(n, k), "odd-even-tiling", "lower"))
    return out


def best_bounds(n: int, k: int) -> BoundReport:
    """Aggregate all bounds into the tightest sandwich.  A closed form comes
    first on both sides, so it wins ties and a wrong one crosses the
    sandwich; `exact` is set when the sandwich closes."""
    exact = exact_closed_form(n, k)
    closed = [exact] if exact else []
    lowers = lower_bounds(n, k)
    uppers = upper_bounds(n, k)
    lower = max(closed + lowers, key=lambda b: b.value)
    upper = min(closed + uppers, key=lambda b: b.value)
    if lower.value > upper.value:
        raise InternalError(f"bounds crossed for (n={n}, k={k}): "
                            f"{lower.source}={lower.value} > {upper.source}={upper.value}")
    exact_value = lower.value if lower.value == upper.value else None
    return BoundReport(n, k, lower, upper, exact_value, lowers + uppers + closed)
