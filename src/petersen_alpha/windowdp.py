"""The window dynamic program for alpha(P(n,k)), the paper's O(n) algorithm
for fixed k, and the one module of the package that imports numpy.

Its state is the membership bit of the previous outer vertex plus a k-bit
window of the last k inner-vertex bits.  One column sweep (_sweep) carries a
table of such states around the ring for every boundary state at once, in
vectorized numpy; the cycle is closed by accepting only runs that return to
their seed.  The same sweep builds the 64-column transfer matrix used for
small k.  For a witness the value pass keeps checkpoints, copies of the table
every few columns; the winning seed's row is re-swept from all of them at
once, one short segment each, and backtracked.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InternalError, check_deadline
from .graph import is_bipartite, petersen_violations

# State before column i: (u_bit, w) where u_bit is the membership of u_{i-1}
# and bit j of w is the membership of v_{i-1-j} (bit 0 newest, bit k-1 the
# oldest, v_{i-k}).  Choosing (a, b) for (u_i, v_i) is legal iff
#     a & u_bit        == 0   (outer edge u_{i-1} u_i)
#     a & b            == 0   (spoke u_i v_i)
#     b & oldest(w)    == 0   (inner edge v_{i-k} v_i)
# and leads to state (a, ((w << 1) | b) mod 2^k) with gain a + b.  Seeding the
# sweep with a boundary state makes the first k columns check the wrap edges
# against the seeded bits; accepting only terminal states equal to the seed
# closes the cycle.  By the pair lemma of solver's module docstring the seeds
# are the 2^k states with u_bit = 0 (u_{n-1} out) on a bipartite cell, and on
# every other cell the 2^(k-1) of them whose oldest bit is 0 too (the pair
# u_{n-1}, v_{n-k} out).  Either set comes first in state order, so the first
# maximal seed is the one a sweep of all states would pick, and so is the
# witness.
#
# States (u_bit=1, odd w) violate the spoke at their own column, so no
# transition ever writes them; they stay at the sentinel (or, after a block
# product, as far below every real total), so no table is ever cleared.
# _sweep is the one column loop: it builds the transfer matrix, runs each value
# segment that is not a whole transfer block (for k <= _SMALL_K, the last
# n mod 64 columns) and the witness segments.
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
        check_deadline(deadline)
        _dp_column_step(T[i % depth], T[(i + 1) % depth], tmp, half)
    return (at + columns) % depth


_NEG = -(1 << 30)  # the sentinel of unreachable states
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
    seed state and, after all n columns, returns to it.  The n columns run as
    segments of `every` columns: _BLOCK for k <= _SMALL_K, where each whole
    segment is one product with the transfer matrix; else one segment of n,
    or, when checkpoints are kept, as few as keep the copies within
    _CHECKPOINT_BYTES.  A given `checkpoints` list receives (column, copy of
    the table before that column) at each segment start 0, every, 2*every, ...
    below n."""
    rows = len(seeds)
    T, tmp, idx = _dp_tables(seeds, k, n)
    cur, every = 0, n
    if k <= _SMALL_K:
        M, every = _transfer_block(k), _BLOCK
    elif checkpoints is not None:
        every = -(-n // max(1, _CHECKPOINT_BYTES // T[0].nbytes))
    for done in range(0, n, every):
        if checkpoints is not None:
            checkpoints.append((done, T[cur].copy()))
        if k <= _SMALL_K and done + _BLOCK <= n:
            check_deadline(deadline)
            W = T[1 - cur].reshape(rows, -1)
            np.max(T[cur].reshape(rows, -1)[:, :, None] + M[None, :, :], axis=1, out=W)
            np.maximum(W, _NEG, out=W)  # keep unreachable entries from drifting down
            cur = 1 - cur
        else:
            cur = _sweep(T, tmp, min(every, n - done), deadline, cur)
    return T[cur][idx]


def solve(n: int, k: int, want_witness: bool,
          deadline: float | None) -> tuple[int, tuple[int, ...] | None]:
    """alpha_window_dp's (value, witness) on arguments it has checked; the
    witness is None unless `want_witness`."""
    seeds = np.arange(1 << (k if is_bipartite(n, k) else k - 1))
    # 2^18 states per chunk: each value table is 0.5 MB of int16 and stays
    # in cache across the n columns; every k <= 8 is a single chunk, and so
    # is k = 9 off the bipartite cells
    chunk_rows = max(1, (1 << 18) >> (k + 1))
    best, seed, marks = -1, 0, []
    for lo in range(0, len(seeds), chunk_rows):
        chunk = seeds[lo : lo + chunk_rows]
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
    return best, witness


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
        check_deadline(deadline)
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
