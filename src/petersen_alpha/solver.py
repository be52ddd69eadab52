"""Exact maximum-independent-set engines for P(n,k), and the dispatch.

Three independent routes compute alpha(P(n,k)):

* a window dynamic program, the paper's O(n) algorithm for fixed k, in the
  numpy module `windowdp`.  alpha_window_dp here checks its arguments and
  only then imports that module, so this one loads no numpy.

* a branch-and-reduce search on arbitrary graphs: isolated and degree-1
  vertices are taken greedily, degree-2 vertices are folded (or taken when
  their neighborhood is a triangle), and branching picks a maximum-degree
  vertex (lowest index on ties), excluding it first, under a greedy
  clique-cover upper bound.  Graphs are dicts of neighbor bitmasks.  A node
  re-examines for reductions only the vertices its branch touched, in the
  id order of a full rescan, so its cost follows what the branch changed.
  The search is one depth-first loop over an explicit stack against one
  incumbent, the largest size found so far; each node carries a trail of
  what the levels above it took and folded, and a leaf rebuilds its set
  from that trail only when it beats the incumbent.

* a tiny exhaustive oracle (one memoized subset recursion, at most 32
  vertices) that the test suite uses as ground truth.

Both exact engines on P(n,k) rest on one pair lemma.  For each d the n pairs
(u_i, v_{i+d}) split the 2n vertices, and alpha = n exactly on the bipartite
cells (n even, k odd; `graph.is_bipartite`).  Off them every maximum set misses
a whole pair, which the rotation i -> i+1 moves to (u_0, v_d); on them the
colour class {u_odd, v_even} misses (u_0, v_d) for every odd d.  Branch-reduce
takes d = k, odd on the bipartite cells, and searches P(n,k) - u_0 for a
witness and P(n,k) - u_0 - v_k for the value.  The window DP takes d = 1 - k
at (u_{n-1}, v_{n-k}) and seeds the states with that pair out, or, on the
bipartite cells, where 1 - k is even, those with u_{n-1} out (`windowdp`).

All engines return the same values.  The dispatcher answers from a closed
form when one applies, and otherwise runs whichever of the DP and
branch-reduce a cost model fitted from measured timings expects to finish
first (the DP only for k <= K_DP_DEFAULT), and checks the value it gets
against the bounds of `bounds.best_bounds`.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from . import bounds as _bounds
from .errors import DomainError, InternalError, check_deadline
from .graph import AdjacencyGraph, GeneralizedPetersen, petersen_graph, petersen_masks

K_DP_DEFAULT = 12
_ORACLE_CAP = 32


@dataclass(frozen=True)
class ExactResult:
    """An exact alpha value, how it was obtained, and a witness set: a
    maximum independent set exactly when one was requested and the route
    can give one (closed forms carry none), else None."""

    value: int
    method: str  # "closed-form" | "window-dp" | "branch-reduce"
    witness: tuple[int, ...] | None
    elapsed: float

    @property
    def elapsed_ms(self) -> int:
        return int(self.elapsed * 1000)


def alpha_window_dp(
    n: int,
    k: int,
    *,
    want_witness: bool = False,
    deadline: float | None = None,
) -> ExactResult:
    """Exact alpha(P(n,k)) via the column-sweep DP; linear in n for fixed k."""
    petersen_graph(n, k)
    if k > K_DP_DEFAULT:
        raise DomainError(f"window DP capped at k <= {K_DP_DEFAULT}, got k={k}")
    from . import windowdp  # the one numpy import: it loads with the first DP run
    start = time.perf_counter()
    value, witness = windowdp.solve(n, k, want_witness, deadline)
    return ExactResult(value, "window-dp", witness, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# branch and reduce
# ---------------------------------------------------------------------------
#
# Graphs are dicts mapping a vertex id to the bitmask of its alive neighbors;
# folding a degree-2 vertex introduces a fresh id, so ids can exceed the
# original vertex count until the solution is unwound again.


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _graph_to_masks(g: AdjacencyGraph) -> dict[int, int]:
    return {v: sum(1 << u for u in g.neighbors[v]) for v in range(g.vertex_count)}


def _delete(adj: dict[int, int], gone: int, touched: int) -> dict[int, int]:
    """A copy of adj without the vertices in `gone`; `touched` must hold
    every vertex that keeps a neighbor in `gone`."""
    out = adj.copy()
    for x in _bits(gone):
        del out[x]
    keep = ~gone
    for x in _bits(touched):
        out[x] &= keep
    return out


def _reduce(adj: dict[int, int], picks: list[int], folds: list[tuple[int, int, int, int]],
            next_id: int, dirty: int) -> int:
    """Apply isolated/degree-1/degree-2 reductions until none fires.

    `dirty` is the bitmask of the vertices whose neighborhood changed since
    `adj` was last fully reduced (all of them at first); no other vertex can
    be reducible, so only these are examined, in passes, lowest id first.  A
    reduction never raises a degree.  A neighbor it leaves with degree at
    most 2 is examined later in the same pass if its id lies past the
    current one and below the pass's first new id, and in the next pass
    otherwise, as is a new fold vertex of degree at most 2.  Repeated sorted
    rescans of every vertex meet the reducible vertices in just this order,
    so the same reductions fire in the same order.
    """
    while dirty:
        todo, dirty = dirty, 0
        old = (1 << next_id) - 1  # the ids a rescan begun now would list
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            nv = adj.get(v)
            if nv is None:
                continue
            deg = nv.bit_count()
            if deg > 2:
                continue
            gone = nv | low
            fold = False
            if deg == 2:
                u = (nv & -nv).bit_length() - 1
                w = nv.bit_length() - 1
                fold = not adj[u] >> w & 1  # a triangle puts v in some maximum set
            changed = 0
            rest = gone
            while rest:
                x = rest & -rest
                rest ^= x
                changed |= adj.pop(x.bit_length() - 1)
            changed &= ~gone
            if fold:  # v,u,w become one fresh vertex adjacent to N(u) | N(w)
                fb = 1 << next_id
                adj[next_id] = changed
                folds.append((next_id, v, u, w))
                next_id += 1
                if changed.bit_count() <= 2:
                    dirty |= fb
            else:  # take v; its neighbors (at most two) go with it
                fb = 0
                picks.append(v)
            keep = ~gone
            low_deg = 0
            rest = changed
            while rest:
                xb = rest & -rest
                rest ^= xb
                x = xb.bit_length() - 1
                m = adj[x] & keep | fb
                adj[x] = m
                if m.bit_count() <= 2:
                    low_deg |= xb
            now = low_deg & old & -(low << 1)
            todo |= now
            dirty |= low_deg ^ now
    return next_id


def _clique_cover_bound(adj: dict[int, int]) -> int:
    """Greedy clique cover size; an admissible upper bound on alpha.  Each
    clique starts at the lowest unassigned id and grows by lowest ids."""
    unassigned = 0
    for v in adj:
        unassigned |= 1 << v
    count = 0
    while unassigned:
        low = unassigned & -unassigned
        unassigned ^= low
        cand = adj[low.bit_length() - 1] & unassigned
        while cand:
            low = cand & -cand
            unassigned ^= low
            cand &= adj[low.bit_length() - 1] & unassigned
        count += 1
    return count


def _unwind(trail) -> set[int]:
    """The independent set a search leaf stands for.  `trail` is a linked
    tuple (picks, folds, parent) of what each level above the leaf took and
    folded; walking it from the leaf to the root adds each level's picks and
    then undoes its folds, last fold first."""
    out: set[int] = set()
    while trail is not None:
        picks, folds, trail = trail
        out.update(picks)
        for f, v, u, w in reversed(folds):
            if f in out:
                out.discard(f)
                out.add(u)
                out.add(w)
            else:
                out.add(v)
    return out


def _best_set(adj: dict[int, int], next_id: int, best: int,
              deadline: float | None) -> tuple[int, set[int] | None]:
    """The first maximum independent set of adj in exclusion-first search
    order and its size, if that size beats `best`; else (best, None), which
    guarantees alpha(adj) <= best.

    A depth-first search over an explicit stack with one incumbent, `best`,
    the largest size found so far.  Each entry holds a graph, its first free
    id, the mask of vertices to re-examine for reductions (every vertex at
    the root), the size fixed above it and its trail.  A leaf rebuilds its
    set only when it beats `best`, so the set a search returns does not
    depend on the `best` it started from.
    """
    stack = [(adj, next_id, (1 << next_id) - 1, 0, None)]
    leaf = None
    while stack:
        adj, next_id, dirty, size, trail = stack.pop()
        check_deadline(deadline)
        picks: list[int] = []
        folds: list[tuple[int, int, int, int]] = []
        next_id = _reduce(adj, picks, folds, next_id, dirty)
        size += len(picks) + len(folds)
        trail = (picks, folds, trail)

        if not adj:
            if size > best:
                best, leaf = size, trail
            continue
        if size + _clique_cover_bound(adj) <= best:
            continue

        # a maximum-degree vertex, lowest id on ties: adj lists its ids in
        # ascending order, since a fold's fresh id exceeds every id in use
        top = max(map(int.bit_count, adj.values()))
        v = next(x for x, m in adj.items() if m.bit_count() == top)
        nv = adj[v]
        closed = nv | (1 << v)
        # adj is fully reduced, so each branch re-examines only the vertices it
        # touches: N(v) when v goes, N(N(v)) minus N[v] when N[v] goes
        ring = 0
        for x in _bits(nv):
            ring |= adj[x]
        ring &= ~closed

        # exclude v first (pushed last): ties then favor the exclusion branch
        stack.append((_delete(adj, closed, ring), next_id, ring, size + 1, ([v], (), trail)))
        stack.append((_delete(adj, 1 << v, nv), next_id, nv, size, trail))
    return best, None if leaf is None else _unwind(leaf)


def alpha_branch_reduce(
    g: AdjacencyGraph | GeneralizedPetersen,
    *,
    want_witness: bool = True,
    lower_hint: int = 0,
    deadline: float | None = None,
) -> ExactResult:
    """Exact alpha of an arbitrary simple graph by branch and reduce.

    g is an AdjacencyGraph, searched whole, or P(n,k) as `petersen_graph(n, k)`
    returns it, searched as `graph.petersen_masks` without u_0 (vertex 0) and,
    without `want_witness`, v_k (vertex n + k) too (module docstring).  The
    witness, checked against the whole graph, is None without `want_witness`.

    `lower_hint` must be a valid lower bound on alpha: the search starts by
    looking for a set of at least that size, which prunes from the first
    node, and an InternalError is raised if it turns out to exceed the
    optimum.  The hint does not change which set is returned.  A disconnected
    graph is searched whole, not component by component, so a union of
    several copies of a hard graph costs far more than the copies apart.
    """
    start = time.perf_counter()
    check_deadline(deadline)
    if isinstance(g, GeneralizedPetersen):
        masks = petersen_masks(g.n, g.k)
        cut = (0,) if want_witness else (0, g.n + g.k)
    else:
        masks, cut = _graph_to_masks(g), ()
    adj = masks.copy()  # the search pops from adj, and masks checks the witness
    for v in cut:
        adj = _delete(adj, 1 << v, adj[v])
    size, chosen = _best_set(adj, len(masks), lower_hint - 1, deadline)
    if chosen is None:
        # a search from lower_hint - 1 finds a set whenever alpha >= lower_hint
        raise InternalError(f"lower bound hint {lower_hint} exceeds the optimum (alpha <= {lower_hint - 1})")
    witness = tuple(sorted(chosen))
    members = sum(1 << v for v in witness)
    if len(witness) != size or any(masks[v] & members for v in witness):
        raise InternalError("branch-reduce produced an inconsistent witness")
    return ExactResult(size, "branch-reduce", witness if want_witness else None, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def _oracle(g: AdjacencyGraph):
    """Neighbour masks of g and f(mask), the memoized alpha of the subgraph
    induced by `mask`; each level removes a vertex, so f recurses at most 33
    frames deep (<= 32 vertices)."""
    if g.vertex_count > _ORACLE_CAP:
        raise DomainError(f"oracle capped at {_ORACLE_CAP} vertices, got {g.vertex_count}")
    nbr = _graph_to_masks(g)

    @functools.cache
    def f(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        return max(f(mask & ~(1 << v)), 1 + f(mask & ~(nbr[v] | (1 << v))))

    return nbr, f


def alpha_oracle(g: AdjacencyGraph) -> int:
    """Ground-truth alpha by memoized subset recursion (<= 32 vertices)."""
    _, f = _oracle(g)
    return f((1 << g.vertex_count) - 1)


def maximum_independent_sets(g: AdjacencyGraph) -> list[frozenset[int]]:
    """Every maximum independent set, by exhaustive recursion (<= 32 vertices)."""
    nbr, f = _oracle(g)

    def collect(mask: int) -> list[frozenset[int]]:
        if mask == 0:
            return [frozenset()]
        v = (mask & -mask).bit_length() - 1
        out: list[frozenset[int]] = []
        if f(mask & ~(1 << v)) == f(mask):
            out.extend(collect(mask & ~(1 << v)))
        if 1 + f(mask & ~(nbr[v] | (1 << v))) == f(mask):
            out.extend(s | {v} for s in collect(mask & ~(nbr[v] | (1 << v))))
        return out

    return collect((1 << g.vertex_count) - 1)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# Estimated seconds of each engine on P(n,k): the `fit` of the top-level
# `grid` (n <= 121) in BENCH_dispatch.json, which `scripts/bench.py dispatch`
# re-times:
#     window DP       _DP_COST * 4**k * n
#     branch-reduce   _BR_COST * exp(_BR_RATE * n)
# Past the grid the model is extrapolated.  The cells with 122 <= n <= 166 it
# sends to branch-reduce ran faster there ("extrapolated" in that file), but
# k = 11 cells such as (151,11) still go to the DP (0.72 s against 0.19 s).
# The constants predate both pair cuts of the module docstring, which make
# each engine faster; they stay until a refit, so that no route moves.
_DP_COST = 2.9e-9
_BR_COST = 1.7e-3
_BR_RATE = 0.0508


def _dp_is_cheaper(n: int, k: int) -> bool:
    """Whether "auto" should run the window DP rather than branch-reduce.
    The estimates are compared in log space, since exp(_BR_RATE * n)
    overflows a float from n = 13,972 on."""
    if k > K_DP_DEFAULT:
        return False
    return math.log(_DP_COST * 4**k * n / _BR_COST) <= _BR_RATE * n


def alpha(
    n: int,
    k: int,
    strategy: str = "auto",
    *,
    want_witness: bool = False,
    deadline: float | None = None,
) -> ExactResult:
    """Exact alpha(P(n,k)) via the requested strategy.

    "auto" answers from a closed form when one applies (unless a witness is
    requested, since closed forms carry none), else runs whichever of the
    window DP and branch-reduce the fitted cost model expects to be faster.
    "closed", "dp" and "bb" force one route and raise DomainError when its
    precondition fails.  The closed form, the branch-reduce lower hint and
    the bounds that every engine value must lie within (else InternalError)
    all come from one best_bounds report.  `want_witness` goes to the engine,
    so the result has a witness exactly when one was requested: a value-only
    answer has witness None on every route.
    """
    g = petersen_graph(n, k)
    start = time.perf_counter()
    if strategy not in ("auto", "closed", "dp", "bb"):
        raise DomainError(f"unknown strategy {strategy!r}")
    if strategy == "closed" and want_witness:
        raise DomainError("closed forms carry no witness")

    report = _bounds.best_bounds(n, k)
    if report.exact is not None and (strategy == "closed" or (strategy == "auto" and not want_witness)):
        return ExactResult(report.exact, "closed-form", None, time.perf_counter() - start)
    if strategy == "closed":
        raise DomainError(f"no closed form applies to (n={n}, k={k})")

    lower, upper = report.lower.value, report.upper.value
    if strategy == "dp" or (strategy == "auto" and _dp_is_cheaper(n, k)):
        result = alpha_window_dp(n, k, want_witness=want_witness, deadline=deadline)
    else:
        result = alpha_branch_reduce(g, want_witness=want_witness, lower_hint=lower, deadline=deadline)
    if not lower <= result.value <= upper:
        raise InternalError(f"{result.method} gave alpha(P({n},{k})) = {result.value}, "
                            f"outside the bounds [{lower}, {upper}]")
    return result
