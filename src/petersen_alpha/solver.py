"""Exact maximum-independent-set engines for P(n,k).

Three independent routes compute alpha(P(n,k)):

* a window dynamic program, the paper's O(n) algorithm for fixed k.  Its
  state is the membership bit of the previous outer vertex plus a k-bit
  window of the last k inner-vertex bits.  One column sweep (_sweep) carries
  a table of such states around the ring for every boundary state at once,
  in vectorized numpy; the cycle is closed by accepting only runs that
  return to their seed.  The same sweep builds the 64-column transfer
  matrix used for small k.  For a witness the value pass keeps checkpoints,
  copies of the table every few columns; the winning seed's row is re-swept
  from all of them at once, one short segment each, and backtracked.

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
  from that trail only when it beats the incumbent.  On P(n,k) itself the
  dispatcher lets the search start at the root's exclusion child of u_0 and
  never search the root's inclusion child.  The rotation i -> i + 1 is an
  automorphism and the outer cycle is not independent, so some maximum set
  misses u_0; the graph is cubic, so the root reduces nothing and branches
  on vertex 0 (u_0); its exclusion child is searched first and so reaches
  alpha, and the inclusion child can only tie, which never replaces the
  incumbent.  Every value and witness stays that of the whole search.

* a tiny exhaustive oracle (one memoized subset recursion, at most 32
  vertices) that the test suite uses as ground truth.

All engines return the same values.  The dispatcher answers from a closed
form when one applies, and otherwise runs whichever of the DP and
branch-reduce a cost model fitted from measured timings expects to finish
first (the DP only for k <= K_DP_DEFAULT).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .errors import BudgetExceededError, DomainError, InternalError
from .graph import AdjacencyGraph, adjacency, is_independent, petersen_graph, petersen_violations

K_DP_DEFAULT = 12
_NEG = -(1 << 30)
_ORACLE_CAP = 32


@dataclass(frozen=True)
class ExactResult:
    """An exact alpha value, how it was obtained, and an optional witness set."""

    value: int
    method: str  # "closed-form" | "window-dp" | "branch-reduce"
    witness: tuple[int, ...] | None
    elapsed: float

    @property
    def elapsed_ms(self) -> int:
        return int(self.elapsed * 1000)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("time budget exceeded")


# ---------------------------------------------------------------------------
# window DP
# ---------------------------------------------------------------------------
#
# State before column i: (u_bit, w) where u_bit is the membership of u_{i-1}
# and bit j of w is the membership of v_{i-1-j} (bit 0 newest, bit k-1 the
# oldest, v_{i-k}).  Choosing (a, b) for (u_i, v_i) is legal iff
#     a & u_bit        == 0   (outer edge u_{i-1} u_i)
#     a & b            == 0   (spoke u_i v_i)
#     b & oldest(w)    == 0   (inner edge v_{i-k} v_i)
# and leads to state (a, ((w << 1) | b) mod 2^k) with gain a + b.  Seeding the
# sweep with a boundary state makes the first k columns check the wrap edges
# against the seeded bits; accepting only terminal states equal to the seed
# closes the cycle.
#
# States (u_bit=1, odd w) violate the spoke at their own column, so no
# transition ever writes them; they stay at the sentinel (or, after a block
# product, as far below every real total), so no table is ever cleared.
# _sweep is the one column loop: it builds the transfer matrix, runs each seed
# chunk (past the 64-column blocks for k <= _SMALL_K) and the witness segments.
#
# Witness (checkpointed reverse sweep, as in Griewank & Walther's "revolve"):
# with want_witness the value pass copies its table every `every` columns (at
# each block boundary for k <= _SMALL_K, else spaced to fit _CHECKPOINT_BYTES).
# The winning seed's row of each checkpoint starts one segment; all segments
# are swept together, `every` columns over C rows instead of n columns over
# one, into one (every+1, C, 2, 2^k) history, which the backtrack walks from
# the last column to the first.  Reachable entries of a checkpoint equal those
# of a column-by-column re-sweep, so the witness is the same.


def _dp_tables(seeds: np.ndarray, k: int, columns: int, depth: int = 2):
    """`depth` value tables of len(seeds) rows, T[0] seeded (row i at 0 in
    state seeds[i]) and all else at the sentinel, the step temporaries, and
    the index of the seed entries.  Entries are int16 when `columns` columns
    surely fit, except that the k <= _SMALL_K transfer-matrix products need
    int32."""
    rows = len(seeds)
    dtype = np.int16 if k > _SMALL_K and columns <= 8000 else np.int32
    neg = -20000 if dtype == np.int16 else _NEG
    T = np.full((depth, rows, 2, 1 << k), neg, dtype=dtype)
    tmp = tuple(np.empty((rows, 1 << (k - 1)), dtype=dtype) for _ in range(3))
    idx = (np.arange(rows), seeds >> k, seeds & ((1 << k) - 1))
    T[0][idx] = 0
    return T, tmp, idx


def _dp_column_step(V: np.ndarray, NV: np.ndarray, tmp: tuple[np.ndarray, ...], half: int) -> None:
    """One spoke column of the sweep, vectorized over all rows of V."""
    t_ub0, t_ub1, t_old0 = tmp
    np.maximum(V[:, 0, :half], V[:, 0, half:], out=t_ub0)  # u_bit=0, either oldest bit
    np.maximum(V[:, 1, :half], V[:, 1, half:], out=t_ub1)  # u_bit=1, either oldest bit
    np.maximum(V[:, 0, :half], V[:, 1, :half], out=t_old0)  # oldest bit 0, either u_bit
    np.maximum(t_ub0, t_ub1, out=NV[:, 0, 0::2])  # skip both u_i and v_i
    np.add(t_old0, 1, out=NV[:, 0, 1::2])         # take v_i
    np.add(t_ub0, 1, out=NV[:, 1, 0::2])          # take u_i
    # (take both) is the spoke violation; NV[:, 1, 1::2] stays at the sentinel


def _sweep(T: np.ndarray, tmp: tuple[np.ndarray, ...], columns: int,
           deadline: float | None, at: int = 0) -> int:
    """Run `columns` spoke columns from table T[at], each writing the next
    table of T (cyclically), and return the index of the last one written.
    Two tables alternate; `columns` + 1 tables keep every column's table."""
    half = T.shape[-1] // 2
    depth = len(T)
    for i in range(at, at + columns):
        _check_deadline(deadline)
        _dp_column_step(T[i % depth], T[(i + 1) % depth], tmp, half)
    return (at + columns) % depth


def _boundary_states(k: int) -> np.ndarray:
    """Seed states, skipping those violating the u_{n-1} v_{n-1} spoke."""
    states = np.arange(1 << (k + 1), dtype=np.int64)
    ub = states >> k
    newest = states & 1
    return states[~((ub == 1) & (newest == 1))]


# For k <= _SMALL_K the value sweep takes _BLOCK columns at a time through a
# transfer matrix: (2000,4) takes 3.1 ms this way and 36.7 ms by columns.
_BLOCK = 64
_SMALL_K = 5
# Bytes of checkpoints one seed chunk may keep for a k > _SMALL_K witness
_CHECKPOINT_BYTES = 1 << 20


@functools.cache
def _transfer_block(k: int) -> np.ndarray:
    """Best gain over _BLOCK consecutive columns between every state pair
    (read-only, built once per k): the _BLOCK columns swept from the identity
    seeding, in which row s starts in state s."""
    S = 1 << (k + 1)
    T, tmp, _ = _dp_tables(np.arange(S), k, _BLOCK)
    M = T[_sweep(T, tmp, _BLOCK, None)].reshape(S, S)
    M.setflags(write=False)
    return M


def _final_values(n: int, k: int, seeds: np.ndarray, deadline: float | None,
                  checkpoints: list[tuple[int, np.ndarray]] | None = None) -> np.ndarray:
    """Accepted total for every seed: the value of the run that starts in the
    seed state and, after all n columns, returns to it.  A given `checkpoints`
    list receives (column, copy of the table before that column) at columns
    0, every, 2*every, ... below n: every _BLOCK columns for k <= _SMALL_K,
    else as few columns as keep the copies within _CHECKPOINT_BYTES."""
    rows = len(seeds)
    T, tmp, idx = _dp_tables(seeds, k, n)
    cur, done, every = 0, 0, n
    if checkpoints is not None:
        every = _BLOCK if k <= _SMALL_K else -(-n // max(1, _CHECKPOINT_BYTES // T[0].nbytes))
    if k <= _SMALL_K:
        M = _transfer_block(k)
        while done + _BLOCK <= n:
            _check_deadline(deadline)
            if checkpoints is not None:
                checkpoints.append((done, T[cur].copy()))
            W = T[1 - cur].reshape(rows, -1)
            np.max(T[cur].reshape(rows, -1)[:, :, None] + M[None, :, :], axis=1, out=W)
            np.maximum(W, _NEG, out=W)  # keep unreachable entries from drifting down
            cur, done = 1 - cur, done + _BLOCK
    while done < n:
        if checkpoints is not None:
            checkpoints.append((done, T[cur].copy()))
        columns = min(every, n - done)
        cur = _sweep(T, tmp, columns, deadline, cur)
        done += columns
    return T[cur][idx]


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
    start = time.perf_counter()
    states = _boundary_states(k)
    # 2^18 states per chunk: each value table is 0.5 MB of int16 and stays
    # in cache across the n columns; every k <= 8 is still a single chunk
    chunk_rows = max(1, (1 << 18) >> (k + 1))
    best, seed, marks = -1, 0, []
    for lo in range(0, len(states), chunk_rows):
        chunk = states[lo : lo + chunk_rows]
        checkpoints = [] if want_witness else None
        finals = _final_values(n, k, chunk, deadline, checkpoints)
        i = int(np.argmax(finals))
        if finals[i] > best:  # strict: the first maximal seed wins, as one argmax
            best, seed = int(finals[i]), int(chunk[i])
            marks = [(col, table[i].copy()) for col, table in checkpoints or ()]
    del checkpoints  # the last chunk's whole tables; the witness needs only `marks`
    if best < 0:
        raise InternalError("window DP found no consistent boundary state")
    witness = None
    if want_witness:
        witness = _dp_witness(n, k, seed, best, marks, deadline)
    return ExactResult(best, "window-dp", witness, time.perf_counter() - start)


def _dp_witness(n: int, k: int, seed: int, value: int, marks: list[tuple[int, np.ndarray]],
                deadline: float | None) -> tuple[int, ...]:
    """Re-sweep the winning seed's row from each checkpoint `marks` (column,
    row) together, then backtrack from the last column to the first.

    Ties are broken toward excluding vertices: the backtrack scans candidate
    predecessor states lowest-first, so excluded bits win over included ones.
    """
    mask = (1 << k) - 1
    starts = [col for col, _ in marks]
    ends = starts[1:] + [n]
    every = ends[0]  # the first segment is the longest
    H, tmp, _ = _dp_tables(np.full(len(marks), seed), k, n, every + 1)
    H[0] = [row for _, row in marks]
    _sweep(H, tmp, every, deadline)

    members: list[int] = []
    ub, w = seed >> k, seed & mask
    if H.item(ends[-1] - starts[-1], len(marks) - 1, ub, w) != value:
        raise InternalError("witness sweep disagrees with the DP value")
    for j in range(len(marks) - 1, -1, -1):
        for t in range(ends[j] - starts[j] - 1, -1, -1):
            col = starts[j] + t
            a, b = ub, w & 1
            target = H.item(t + 1, j, ub, w) - a - b
            # taking u_col (v_col) rules out u_{col-1} (v_{col-k}) as a predecessor bit
            for pub, pold in ((0, 0), (0, 1), (1, 0), (1, 1)):
                pw = (w >> 1) | (pold << (k - 1))
                if not (a and pub) and not (b and pold) and H.item(t, j, pub, pw) == target:
                    break
            else:
                raise InternalError("witness backtrack lost the optimal path")
            if a:
                members.append(col)
            if b:
                members.append(n + col)
            ub, w = pub, pw
    if (ub, w) != (seed >> k, seed & mask):
        raise InternalError("witness backtrack did not return to the seed state")
    if len(members) != value:
        raise InternalError("witness size disagrees with the DP value")
    if petersen_violations(n, k, members):
        raise InternalError("witness backtrack produced a dependent set")
    return tuple(sorted(members))


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


def _best_set(adj: dict[int, int], next_id: int, best: int, deadline: float | None,
              *, skip_root_include: bool = False) -> tuple[int, set[int] | None]:
    """The first maximum independent set of adj in exclusion-first search
    order and its size, if that size beats `best`; else (best, None), which
    guarantees alpha(adj) <= best.

    A depth-first search over an explicit stack with one incumbent, `best`,
    the largest size found so far.  Each entry holds a graph, its first free
    id, the mask of vertices to re-examine for reductions (every vertex at
    the root), the size fixed above it and its trail.  A leaf rebuilds its
    set only when it beats `best`, so the set a search returns does not
    depend on the `best` it started from.

    With `skip_root_include` the stack starts at the root's exclusion child
    of vertex 0 instead of the root, and the root's inclusion child is never
    searched.  That is the same search, with the same result, whenever the
    root is irreducible, branches on vertex 0 and some maximum set misses
    vertex 0: the exclusion child comes first and then reaches alpha on its
    own, and the inclusion child could only tie, which never replaces the
    incumbent.  All three hold on P(n,k), a cubic graph whose rotation
    i -> i + 1 moves any maximum set (which must miss some outer vertex) to
    one that misses u_0.
    """
    if skip_root_include:  # the root's exclusion child of vertex 0
        stack = [(_delete(adj, 1, adj[0]), next_id, adj[0], 0, None)]
    else:
        stack = [(adj, next_id, (1 << next_id) - 1, 0, None)]
    leaf = None
    while stack:
        adj, next_id, dirty, size, trail = stack.pop()
        _check_deadline(deadline)
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
    g: AdjacencyGraph,
    *,
    lower_hint: int = 0,
    deadline: float | None = None,
    skip_root_include: bool = False,
) -> ExactResult:
    """Exact alpha of an arbitrary simple graph by branch and reduce.

    `lower_hint` must be a valid lower bound on alpha: the search starts by
    looking for a set of at least that size, which prunes from the first
    node, and an InternalError is raised if it turns out to exceed the
    optimum.  The hint does not change which set is returned.  A disconnected
    graph is searched whole, not component by component, so a union of
    several copies of a hard graph costs far more than the copies apart.

    `skip_root_include=True` is a promise by the caller that g is the
    adjacency of `petersen_graph(n, k)` for some (n, k), and so that some
    maximum set misses vertex 0 (u_0).  The search then leaves out the
    root's inclusion child of vertex 0, which on such a graph changes
    neither the value nor the witness; on any other graph it may return a
    wrong answer.  The default searches the whole tree.
    """
    start = time.perf_counter()
    _check_deadline(deadline)
    size, chosen = _best_set(_graph_to_masks(g), g.vertex_count, lower_hint - 1, deadline,
                             skip_root_include=skip_root_include)
    if chosen is None:
        # a search from lower_hint - 1 finds a set whenever alpha >= lower_hint
        raise InternalError(f"lower bound hint {lower_hint} exceeds the optimum (alpha <= {lower_hint - 1})")
    witness = tuple(sorted(chosen))
    if len(witness) != size or not is_independent(g, witness):
        raise InternalError("branch-reduce produced an inconsistent witness")
    return ExactResult(size, "branch-reduce", witness, time.perf_counter() - start)


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


# Estimated seconds of each engine on P(n,k), fitted by
# scripts/fit_dispatch.py from the timing grid recorded in BENCH_dispatch.json:
#     window DP       _DP_COST * 4**k * n
#     branch-reduce   _BR_COST * exp(_BR_RATE * n)
# The DP sweeps 2^(k+1) seeds over 2^(k+1) states per column.  Branch-reduce
# finds no useful clique-cover bound on these cubic graphs (triangle-free
# unless n = 3k), so its search tree grows about exponentially with the
# vertex count; over the grid k moves its time far less than n does, and the
# model leaves k out.  The grid ends at n = _FIT_N_MAX; past it the model is
# not trusted and every k <= K_DP_DEFAULT stays on the DP.  _BR_COST and
# _BR_RATE were fitted before branch-reduce skipped the root's inclusion
# child on P(n,k), which takes about 40% off its time, so the crossover is
# conservative: some cells near it run the DP where branch-reduce would
# finish first.  A refit would move those cells' routes.
_DP_COST = 2.9e-9
_BR_COST = 1.7e-3
_BR_RATE = 0.0508
_FIT_N_MAX = 121


def _dp_is_cheaper(n: int, k: int) -> bool:
    """Whether "auto" should run the window DP rather than branch-reduce."""
    if k > K_DP_DEFAULT:
        return False
    if n > _FIT_N_MAX:
        return True
    return _DP_COST * 4**k * n <= _BR_COST * math.exp(_BR_RATE * n)


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
    precondition fails.
    """
    g = petersen_graph(n, k)
    start = time.perf_counter()
    if strategy not in ("auto", "closed", "dp", "bb"):
        raise DomainError(f"unknown strategy {strategy!r}")
    if strategy == "closed" and want_witness:
        raise DomainError("closed forms carry no witness")

    cf = _bounds.exact_closed_form(n, k)
    if cf is not None and (strategy == "closed" or (strategy == "auto" and not want_witness)):
        return ExactResult(cf.value, "closed-form", None, time.perf_counter() - start)
    if strategy == "closed":
        raise DomainError(f"no closed form applies to (n={n}, k={k})")

    if strategy == "dp" or (strategy == "auto" and _dp_is_cheaper(n, k)):
        return alpha_window_dp(n, k, want_witness=want_witness, deadline=deadline)

    hint = max((b.value for b in _bounds.lower_bounds(n, k)), default=0)
    hint = max(hint, cf.value if cf else 0)
    # g is P(n,k) itself, so the search may skip the root's inclusion child
    return alpha_branch_reduce(adjacency(g), lower_hint=hint, deadline=deadline, skip_root_include=True)
