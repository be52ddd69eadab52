"""Closed forms and lower/upper bounds for alpha(P(n,k)).

Every bound carries a source slug so reports stay traceable:

exact values
    k1            alpha(P(n,1)) = n (n even) / n-1 (n odd)
    k2            alpha(P(n,2)) = floor(4n/5)
    k3            alpha(P(n,3)) = n (n even) / n-2 (n odd)
    k5            alpha(P(n,5)) = n (n even) / n-3 (n odd)
    k4-residue    k=4 closed forms for n = 0,1,2,3,5 (mod 8)
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

Values are clamped at zero; several formulas go negative for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InternalError
from .graph import petersen_graph


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
    all: list[BoundValue] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "lower": {"value": self.lower.value, "source": self.lower.source},
            "upper": {"value": self.upper.value, "source": self.upper.source},
            "exact": self.exact,
            "all": [
                {"value": b.value, "source": b.source, "kind": b.kind} for b in self.all
            ],
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


def exact_closed_form(n: int, k: int) -> BoundValue | None:
    """The closed-form alpha(P(n,k)) when one of the known equalities applies.

    All applicable forms must agree; disagreement raises InternalError since
    it can only come from a transcription bug.
    """
    petersen_graph(n, k)
    candidates: list[tuple[str, int]] = []
    if k == 1:
        candidates.append(("k1", n if n % 2 == 0 else n - 1))
    if k == 2:
        candidates.append(("k2", 4 * n // 5))
    if k == 3:
        candidates.append(("k3", n if n % 2 == 0 else n - 2))
    if k == 5:
        candidates.append(("k5", n if n % 2 == 0 else n - 3))
    if k == 4:
        r = n % 8
        by_residue = {
            0: 7 * n // 8,
            1: 7 * (n - 1) // 8,
            2: 7 * (n - 2) // 8 + 1,
            3: 7 * (n - 3) // 8 + 2,
            5: 7 * (n - 5) // 8 + 4,
        }
        if r in by_residue:
            candidates.append(("k4-residue", by_residue[r]))
    if n == 3 * k:
        candidates.append(("n3k", (5 * k - 1) // 2))  # ceil((5k-2)/2)
    if n % 2 == 0 and k % 2 == 1:
        candidates.append(("bipartite", n))
    if n % 2 == 1 and k % 2 == 1 and n % k == 0:
        candidates.append(("odd-odd-exact", n - (k + 1) // 2))
    if k % 2 == 0 and k > 2 and n % (2 * k) in (0, 2, k - 1, k + 1):
        candidates.append(("even-k-residue", (2 * k - 1) * n // (2 * k)))

    if not candidates:
        return None
    values = {v for _, v in candidates}
    if len(values) > 1:
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
    """Every applicable lower bound, clamped at 0 (never empty: odd k gives
    odd-odd or bipartite, even k gives even-k-ratio)."""
    petersen_graph(n, k)
    d = math.gcd(n, k)
    out: list[BoundValue] = []
    if n % 2 == 1 and k % 2 == 1:
        out.append(BoundValue(n - (k + 1) // 2, "odd-odd", "lower"))
    if n % 2 == 0 and k % 2 == 1:
        out.append(BoundValue(n, "bipartite", "lower"))
    if k % 2 == 0:
        if n % (k - 1) == 0:
            out.append(BoundValue(n - n // (k - 1), "even-k-ratio", "lower"))
        else:
            # strict bound alpha > n - n/(k-1) - 2k, as an integer
            num = n * (k - 2) - 2 * k * (k - 1)
            out.append(BoundValue(num // (k - 1) + 1, "even-k-ratio", "lower"))
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
    return [
        BoundValue(max(0, b.value), b.source, b.kind) if b.value < 0 else b for b in out
    ]


def best_bounds(n: int, k: int) -> BoundReport:
    """Aggregate all bounds into the tightest sandwich, with an exact value
    when a closed form applies or the sandwich closes."""
    exact = exact_closed_form(n, k)
    lowers = lower_bounds(n, k)
    uppers = upper_bounds(n, k)
    everything = list(lowers) + list(uppers) + ([exact] if exact else [])

    best_lower = max(lowers, key=lambda b: b.value)
    best_upper = min(uppers, key=lambda b: b.value)
    if exact is not None:
        if exact.value >= best_lower.value:
            best_lower = exact
        if exact.value <= best_upper.value:
            best_upper = exact
    if best_lower.value > best_upper.value:
        raise InternalError(
            f"bounds crossed for (n={n}, k={k}): "
            f"{best_lower.source}={best_lower.value} > {best_upper.source}={best_upper.value}"
        )
    exact_value = exact.value if exact else None
    if exact_value is None and best_lower.value == best_upper.value:
        exact_value = best_lower.value
    return BoundReport(n, k, best_lower, best_upper, exact_value, everything)
