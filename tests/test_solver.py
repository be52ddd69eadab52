import hashlib
import inspect
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petersen_alpha import (
    AdjacencyGraph,
    BudgetExceededError,
    DomainError,
    GeneralizedPetersen,
    InternalError,
    adjacency,
    alpha,
    alpha_branch_reduce,
    alpha_oracle,
    alpha_window_dp,
    best_bounds,
    errors,
    graph,
    is_independent,
    maximum_independent_sets,
    petersen_graph,
    solver,
    windowdp,
)
from petersen_alpha.graph import is_bipartite
from petersen_alpha.solver import _bits, _clique_cover_bound, _delete, _dp_is_cheaper, _graph_to_masks, _reduce
from petersen_alpha.windowdp import _BLOCK, _NEG, _dp_tables, _final_values, _sweep, _transfer_block


def cycle(m: int) -> AdjacencyGraph:
    return AdjacencyGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def edgeless(m: int) -> AdjacencyGraph:
    return AdjacencyGraph.from_edges(m, [])


def test_oracle_basics():
    assert alpha_oracle(cycle(3)) == 1
    assert alpha_oracle(cycle(5)) == 2
    assert alpha_oracle(edgeless(7)) == 7
    assert alpha_oracle(adjacency(petersen_graph(5, 2))) == 4


def test_oracle_cap():
    with pytest.raises(DomainError):
        alpha_oracle(edgeless(33))
    with pytest.raises(DomainError):
        maximum_independent_sets(edgeless(33))


def test_maximum_independent_sets_enumeration():
    sets = maximum_independent_sets(cycle(4))
    assert sorted(sets) in ([frozenset({0, 2}), frozenset({1, 3})], [frozenset({1, 3}), frozenset({0, 2})])
    assert all(len(s) == 2 for s in sets)


@pytest.mark.parametrize("n,k,expected", [(5, 2, 4), (12, 5, 12), (11, 4, 9)])
def test_window_dp_examples(n, k, expected):
    assert alpha_window_dp(n, k).value == expected


def test_window_dp_cap():
    with pytest.raises(DomainError):
        alpha_window_dp(40, 13)


NUMPY_ON_DEMAND = """
import sys
from petersen_alpha import DomainError, alpha, alpha_window_dp, best_bounds, cli, tables
best_bounds(63, 5)
assert alpha(63, 1).method == "closed-form"
assert alpha(29, 13).method == "branch-reduce"
try:
    alpha_window_dp(40, 13)
    raise AssertionError("alpha_window_dp(40, 13) ran")
except DomainError:
    pass
assert "numpy" not in sys.modules
r = alpha(63, 4)  # no closed form for k = 4, n = 7 mod 8
assert r.method == "window-dp" and "numpy" in sys.modules
print(r.value)
"""


def test_numpy_loads_only_when_a_dp_runs(reference_alpha):
    """A fresh interpreter imports the package, its CLI and tables, and
    answers bounds, a closed form, a branch-reduce cell and a refused DP
    call without numpy; the first DP run loads it."""
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ON_DEMAND], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == reference_alpha[(63, 4)]


def test_branch_reduce_examples():
    assert alpha_branch_reduce(edgeless(7)).value == 7
    assert alpha_branch_reduce(adjacency(petersen_graph(26, 10))).value == 22
    assert alpha_branch_reduce(adjacency(petersen_graph(29, 14))).value == 23


def test_branch_reduce_witness_is_valid():
    g = adjacency(petersen_graph(23, 9))
    r = alpha_branch_reduce(g)
    assert len(r.witness) == r.value
    assert is_independent(g, r.witness)


def test_branch_reduce_deterministic():
    g = adjacency(petersen_graph(19, 7))
    r1 = alpha_branch_reduce(g)
    r2 = alpha_branch_reduce(g)
    assert r1.value == r2.value and r1.witness == r2.witness


def test_branch_reduce_disconnected_graph():
    parts = [adjacency(petersen_graph(5, 2)), adjacency(petersen_graph(7, 2)), cycle(5)]
    edges, offset = [], 0
    for part in parts:
        edges += [(a + offset, b + offset) for a, b in part.edges()]
        offset += part.vertex_count
    g = AdjacencyGraph.from_edges(offset, edges)
    r = alpha_branch_reduce(g)
    assert r.value == alpha_oracle(g) == 11
    assert len(r.witness) == 11 and is_independent(g, r.witness)


def test_branch_reduce_lower_hint_contract():
    g = adjacency(petersen_graph(19, 7))
    plain = alpha_branch_reduce(g)
    hinted = alpha_branch_reduce(g, lower_hint=plain.value)
    assert hinted.value == plain.value and hinted.witness == plain.witness
    with pytest.raises(InternalError):
        alpha_branch_reduce(g, lower_hint=plain.value + 1)


def test_branch_reduce_never_skips_by_default():
    """Only a caller that promises P(n,k) gets the root skip: on the path
    0-1-2, leaving out the root's inclusion child of vertex 0 would miss the
    only maximum set."""
    path = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    r = alpha_branch_reduce(path)
    assert (r.value, r.witness) == (2, (0, 2))


def test_alpha_asks_for_the_root_skip(monkeypatch):
    """alpha() hands branch-reduce P(n,k) itself, and says whether it wants
    a witness, so that a value-only call may leave out the pair u_0, v_k."""
    calls = []

    def spy(g, **kwargs):
        calls.append((type(g), kwargs.get("want_witness")))
        return alpha_branch_reduce(g, **kwargs)

    monkeypatch.setattr(solver, "alpha_branch_reduce", spy)
    alpha(29, 13, "bb")
    alpha(29, 13, "bb", want_witness=True)
    assert calls == [(GeneralizedPetersen, False), (GeneralizedPetersen, True)]


@given(st.integers(min_value=5, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=(n - 1) // 2))))
@settings(max_examples=100, deadline=None)
@example((16, 3))  # a bipartite cell, where alpha = n
def test_value_only_search_leaves_out_the_spoke(cell):
    """A value-only search of P(n,k) without u_0 and v_k keeps alpha on every
    cell.  On the bipartite cells, where alpha = n, the colour class
    {u_odd, v_even} misses both, since k is odd there; leaving out the spoke
    u_0 v_0 instead would leave n - 1 spokes and so alpha below n."""
    n, k = cell
    value_only = alpha_branch_reduce(petersen_graph(n, k), want_witness=False)
    assert value_only.witness is None
    assert value_only.value == alpha_branch_reduce(petersen_graph(n, k)).value
    if n <= 16:
        assert value_only.value == alpha_oracle(adjacency(petersen_graph(n, k)))
    if is_bipartite(n, k):
        assert value_only.value == n


def test_value_only_search_cuts_u0_and_vk(monkeypatch):
    """A value-only search of P(n,k), bipartite (16,3) or not (29,13), starts
    from the graph without u_0 and v_k (vertex n + k) and nothing else; a
    witness search keeps v_k."""
    searched = []
    real = solver._best_set

    def spy(adj, *args):
        searched.append(set(adj))  # before the search pops from adj
        return real(adj, *args)

    monkeypatch.setattr(solver, "_best_set", spy)
    for n, k in [(16, 3), (29, 13)]:
        for want_witness in (False, True):
            searched.clear()
            alpha_branch_reduce(petersen_graph(n, k), want_witness=want_witness)
            cut = {0} if want_witness else {0, n + k}
            assert searched == [set(range(2 * n)) - cut], (n, k, want_witness)


def test_branch_reduce_on_petersen_builds_no_adjacency(monkeypatch):
    """Branch-reduce reads P(n,k) from graph.petersen_masks: it builds no
    AdjacencyGraph and asks no bipartite test, for the value or a witness."""
    calls = []
    for name in ("adjacency", "is_bipartite", "is_independent"):
        def counted(*args, _name=name, _real=getattr(graph, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(graph, name, counted)
        monkeypatch.setattr(solver, name, counted, raising=False)
    for n, k in [(16, 3), (29, 13)]:
        for want_witness in (False, True):
            r = alpha_branch_reduce(petersen_graph(n, k), want_witness=want_witness)
            assert r.value == alpha(n, k).value
    assert calls == []


def test_value_only_alpha_has_no_witness():
    for (n, k), method in [((10, 2), "closed-form"), ((13, 6), "window-dp"), ((29, 13), "branch-reduce")]:
        r = alpha(n, k)
        assert (r.method, r.witness) == (method, None), (n, k)
    r = alpha(29, 13, "bb", want_witness=True)
    assert len(r.witness) == r.value and is_independent(adjacency(petersen_graph(29, 13)), r.witness)


@given(st.integers(min_value=5, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=(n - 1) // 2))), st.data())
@settings(max_examples=100, deadline=None)
def test_root_skip_matches_full_search(cell, data):
    """On P(n,k), leaving out the root's inclusion child of u_0 changes
    neither the value nor the witness, at every valid lower hint, and an
    unsound hint still raises."""
    full = alpha_branch_reduce(adjacency(petersen_graph(*cell)))
    hint = data.draw(st.integers(min_value=0, max_value=full.value))
    skipped = alpha_branch_reduce(petersen_graph(*cell), lower_hint=hint)
    assert (skipped.value, skipped.witness) == (full.value, full.witness)
    with pytest.raises(InternalError):
        alpha_branch_reduce(petersen_graph(*cell), lower_hint=full.value + 1)


@st.composite
def small_graphs(draw):
    """Random graphs of up to 24 vertices: up to 12 joined by random edges,
    then pendant vertices, hanging triangles and chains of three degree-2
    vertices attached to them, so that every reduction kind has work."""
    m = draw(st.integers(min_value=1, max_value=12))
    ends = st.integers(min_value=0, max_value=m - 1)
    edges = [(a, b) for a, b in draw(st.lists(st.tuples(ends, ends), max_size=3 * m)) if a != b]
    size = m
    gadgets = st.tuples(st.sampled_from(["pendant", "triangle", "chain"]), ends, ends)
    for kind, a, b in draw(st.lists(gadgets, max_size=4)):
        if kind == "pendant":
            edges.append((a, size))
            size += 1
        elif kind == "triangle":
            edges += [(a, size), (a, size + 1), (size, size + 1)]
            size += 2
        else:
            path = [a, size, size + 1, size + 2, b]
            edges += list(zip(path, path[1:]))
            size += 3
    return AdjacencyGraph.from_edges(size, edges)


def rescan_reduce(adj, picks, folds, next_id):
    """The reductions of solver._reduce, found by rescanning every vertex in
    sorted order until a whole pass fires none."""
    def remove(v):
        for u in range(adj[v].bit_length()):
            if adj[v] >> u & 1:
                adj[u] &= ~(1 << v)
        del adj[v]

    again = True
    while again:
        again = False
        for v in sorted(adj):
            if v not in adj or adj[v].bit_count() > 2:
                continue
            again = True
            nbrs = [u for u in range(adj[v].bit_length()) if adj[v] >> u & 1]
            if len(nbrs) == 2 and not adj[nbrs[0]] >> nbrs[1] & 1:
                u, w = nbrs
                merged = (adj[u] | adj[w]) & ~((1 << v) | (1 << u) | (1 << w))
                for x in (v, u, w):
                    remove(x)
                adj[next_id] = merged
                for x in range(merged.bit_length()):
                    if merged >> x & 1:
                        adj[x] |= 1 << next_id
                folds.append((next_id, v, u, w))
                next_id += 1
            else:
                picks.append(v)
                for x in [v] + nbrs:
                    remove(x)
    return next_id


def reduced(adj, next_id, dirty):
    adj, picks, folds = dict(adj), [], []
    next_id = _reduce(adj, picks, folds, next_id, dirty)
    return adj, picks, folds, next_id


# K4 with a pendant vertex on 0: taking the pendant leaves 1, 2 and 3, all
# below it, at degree 2, so they wait for the next pass
@example(AdjacencyGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]))
# folding 2 and then 3 leaves the fold vertex 7 reducible within that pass,
# but a rescan lists it only in the next one, after vertex 0
@example(AdjacencyGraph.from_edges(7, [(0, 1), (0, 5), (0, 6), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6)]))
@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_reduce_matches_rescan(g):
    n = g.vertex_count
    ref = _graph_to_masks(g), [], []
    ref_next = rescan_reduce(*ref, n)
    assert reduced(_graph_to_masks(g), n, (1 << n) - 1) == (*ref, ref_next)


@given(small_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_reduce_dirty_set_is_sufficient(g, data):
    """Re-examining only the vertices a branch touched fires the same
    reductions, in the same order, as re-examining every vertex."""
    n = g.vertex_count
    adj, _, _, next_id = reduced(_graph_to_masks(g), n, (1 << n) - 1)
    if not adj:
        return
    v = data.draw(st.sampled_from(sorted(adj)))
    if data.draw(st.booleans()):  # the branch that excludes v
        gone, touched = 1 << v, adj[v]
    else:  # the branch that takes v
        gone = adj[v] | 1 << v
        touched = 0
        for u in adj:
            if adj[v] >> u & 1:
                touched |= adj[u]
        touched &= ~gone
    sub = {x: m & ~gone for x, m in adj.items() if not gone >> x & 1}
    everything = sum(1 << x for x in sub)
    assert reduced(sub, next_id, touched) == reduced(sub, next_id, everything)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_branch_reduce_matches_oracle(g):
    r = alpha_branch_reduce(g)
    assert r.value == alpha_oracle(g)
    assert len(r.witness) == r.value and is_independent(g, r.witness)


def recursive_unfold(chosen, picks, folds):
    out = set(chosen)
    out.update(picks)
    for f, v, u, w in reversed(folds):
        if f in out:
            out.discard(f)
            out.add(u)
            out.add(w)
        else:
            out.add(v)
    return out


def recursive_best_set(adj, target, next_id, dirty):
    """Branch-and-reduce as a recursion that passes a target relative to each
    node down and unfolds a set on every return: the reference for the order
    in which the explicit-stack search meets its sets.  Best set if its size
    beats `target`, else (target, None)."""
    picks, folds = [], []
    next_id = _reduce(adj, picks, folds, next_id, dirty)
    gain = len(picks) + len(folds)
    if not adj:
        if gain > target:
            return gain, recursive_unfold(set(), picks, folds)
        return target, None
    local_target = target - gain
    if _clique_cover_bound(adj) <= local_target:
        return target, None
    top = max(map(int.bit_count, adj.values()))
    v = next(x for x, m in adj.items() if m.bit_count() == top)
    nv = adj[v]
    closed = nv | (1 << v)
    ring = 0
    for x in _bits(nv):
        ring |= adj[x]
    ring &= ~closed
    without = _delete(adj, 1 << v, nv)
    best_size, best_chosen = recursive_best_set(without, local_target, next_id, nv)
    found = best_chosen is not None
    sub_target = best_size if found else local_target
    with_v = _delete(adj, closed, ring)
    size2, chosen2 = recursive_best_set(with_v, sub_target - 1, next_id, ring)
    if chosen2 is not None and size2 + 1 > sub_target:
        best_size, best_chosen, found = size2 + 1, chosen2 | {v}, True
    if found:
        return gain + best_size, recursive_unfold(best_chosen, picks, folds)
    return target, None


# the random graphs above mostly reduce away without a branch; P(n,k) is
# cubic and triangle-free (but for n = 3k), so its searches branch at once
small_petersen_graphs = st.integers(min_value=5, max_value=16).flatmap(
    lambda n: st.integers(min_value=1, max_value=(n - 1) // 2).map(lambda k: adjacency(petersen_graph(n, k))))


@given(st.one_of(small_graphs(), small_petersen_graphs), st.data())
@settings(max_examples=200, deadline=None)
def test_branch_reduce_matches_recursive_reference(g, data):
    """The search returns the value and witness of the recursive reference
    at every valid lower hint."""
    n = g.vertex_count
    value = recursive_best_set(_graph_to_masks(g), -1, n, (1 << n) - 1)[0]
    hint = data.draw(st.integers(min_value=0, max_value=value))
    size, chosen = recursive_best_set(_graph_to_masks(g), hint - 1, n, (1 << n) - 1)
    r = alpha_branch_reduce(g, lower_hint=hint)
    assert (r.value, r.witness) == (size, tuple(sorted(chosen)))


@given(st.integers(min_value=5, max_value=60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=min(8, (n - 1) // 2)))))
@settings(max_examples=60, deadline=None)
def test_first_maximal_seed_has_u_out(cell):
    """Over every spoke-consistent boundary state (all (u, w) but u = 1 with
    w odd), some seed with u_{n-1} out reaches the maximum, and the first
    maximal seed is one: so seeding only those keeps value and witness."""
    n, k = cell
    states = np.array([s for s in range(1 << (k + 1)) if not (s >> k and s & 1)])
    finals = _final_values(n, k, states, None)
    u_out = states >> k == 0
    assert finals[u_out].max() == finals.max()
    assert u_out[np.argmax(finals)]


@given(st.integers(min_value=5, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=min(8, (n - 1) // 2))))
    .filter(lambda cell: not is_bipartite(*cell)))
@settings(max_examples=60, deadline=None)
def test_first_maximal_seed_has_the_pair_out(cell):
    """Off the bipartite cells some maximum set misses the pair u_{n-1},
    v_{n-k}: of the 2^k seeds with u_{n-1} out, the first maximal one lies
    in the first 2^(k-1), those with the oldest window bit (v_{n-k}) 0 as
    well; so seeding only those keeps value and witness."""
    n, k = cell
    finals = _final_values(n, k, np.arange(1 << k), None)
    assert np.argmax(finals) < 1 << (k - 1)


# k <= 5 goes through 64-column transfer blocks: n below one block, past one, past two
@pytest.mark.parametrize("n,k", [(17, 6), (11, 4), (70, 3), (131, 5)])
def test_dp_witness_valid_and_deterministic(n, k):
    g = adjacency(petersen_graph(n, k))
    r1 = alpha_window_dp(n, k, want_witness=True)
    r2 = alpha_window_dp(n, k, want_witness=True)
    assert r1.witness == r2.witness
    assert len(r1.witness) == r1.value
    assert is_independent(g, r1.witness)


# Pins every witness bit for bit: DP cells below one 64-column block, past
# whole blocks and not a multiple of 64, several checkpoint segments for
# k = 6, 7 and 8, multi-chunk k = 9 and 10, three branch-reduce cells, and
# four cells that alpha() searches from its bounds hint and whose reduced
# graph becomes disconnected during the search.
WITNESS_DIGEST_DP = [(11, 4), (17, 6), (30, 7), (37, 3), (70, 3), (100, 2), (129, 1), (131, 5),
                     (2000, 4), (100, 6), (50, 7), (41, 8), (1000, 8), (200, 9), (200, 10)]
WITNESS_DIGEST_BR = [(19, 7), (23, 9), (29, 13)]
WITNESS_DIGEST_HINTED = [(71, 17), (73, 19), (75, 18), (77, 20)]
WITNESS_DIGEST = "cd5c9fb609c10ff5a08fb1bd8bbd89683d50fb0d17a0f977cb031828d07a6838"


def test_witness_digest():
    h = hashlib.sha256()
    for n, k in WITNESS_DIGEST_DP:
        r = alpha_window_dp(n, k, want_witness=True)
        h.update(f"dp {n} {k} {r.value}: {' '.join(map(str, r.witness))}\n".encode())
    for n, k in WITNESS_DIGEST_BR:
        r = alpha_branch_reduce(adjacency(petersen_graph(n, k)))
        h.update(f"br {n} {k} {r.value}: {' '.join(map(str, r.witness))}\n".encode())
    for n, k in WITNESS_DIGEST_HINTED:
        r = alpha(n, k, "bb", want_witness=True)
        h.update(f"bb {n} {k} {r.value}: {' '.join(map(str, r.witness))}\n".encode())
    assert h.hexdigest() == WITNESS_DIGEST


def test_transfer_block_is_cached_and_read_only():
    m = _transfer_block(4)
    assert _transfer_block(4) is m
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 0


@pytest.mark.parametrize("k", range(1, 6))
def test_transfer_block_composes(k):
    """The _BLOCK-column operator is the max-plus square of the operator over
    half as many columns, on every reachable state pair."""
    S = 1 << (k + 1)
    T, tmp, _ = _dp_tables(np.arange(S), k, _BLOCK)
    H = T[_sweep(T, tmp, _BLOCK // 2, None)].reshape(S, S).astype(np.int64)
    squared = np.max(H[:, :, None] + H[None, :, :], axis=1)
    M = _transfer_block(k)
    reachable = M > _NEG // 2
    assert np.array_equal(reachable, squared > _NEG // 2)
    assert np.array_equal(M[reachable], squared[reachable])


def test_solvers_restore_recursion_limit():
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1500)
        assert alpha_oracle(edgeless(32)) == 32
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(before)


def test_branch_reduce_uses_no_global_state(monkeypatch):
    """A search 300 levels deep (one branch per K4 of a disjoint union of
    300) runs with the recursion limit just above the caller's depth and
    with sys.setrecursionlimit unusable."""
    edges = [(4 * c + a, 4 * c + b) for c in range(300) for a in range(4) for b in range(a)]
    g = AdjacencyGraph.from_edges(1200, edges)

    def refuse(limit):
        raise AssertionError(f"the search asked for recursion limit {limit}")

    before = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        with monkeypatch.context() as m:
            m.setattr(sys, "setrecursionlimit", refuse)
            r = alpha_branch_reduce(g)
    finally:
        sys.setrecursionlimit(before)
    assert r.value == 300
    assert len(r.witness) == 300 and is_independent(g, r.witness)


def test_engines_agree_small_grid(reference_alpha):
    for n in range(5, 13):
        for k in range(1, (n - 1) // 2 + 1):
            g = adjacency(petersen_graph(n, k))
            o = alpha_oracle(g)
            d = alpha_window_dp(n, k).value
            b = alpha_branch_reduce(g).value
            assert o == d == b == reference_alpha[(n, k)], (n, k)


@given(st.integers(min_value=5, max_value=16), st.integers(min_value=1, max_value=7))
@settings(max_examples=25, deadline=None)
def test_dp_matches_oracle(n, k):
    if n <= 2 * k:
        return
    g = adjacency(petersen_graph(n, k))
    assert alpha_window_dp(n, k).value == alpha_oracle(g)


def test_dispatch_routes(reference_alpha):
    r = alpha(10, 2)
    assert r.value == 8 and r.method == "closed-form"
    r = alpha(29, 13)
    assert r.method == "branch-reduce"
    # the cost model: branch-reduce where it beats the DP at larger k ...
    for n, k in [(63, 10), (63, 11), (77, 12)]:
        r = alpha(n, k)
        assert r.method == "branch-reduce" and r.value == reference_alpha[(n, k)], (n, k)
    # ... and the DP at small k and for long rings
    for n, k in [(63, 8), (13, 6)]:
        r = alpha(n, k)
        assert r.method == "window-dp" and r.value == reference_alpha[(n, k)], (n, k)
    # (200,10) and (2000,8) have closed forms, so ask for witnesses
    r = alpha(200, 10, want_witness=True)
    assert r.method == "window-dp" and r.value == 190
    r = alpha(2000, 8, want_witness=True)
    assert r.method == "window-dp" and r.value == 1875
    # past the fit grid (n > 121) the extrapolated model decides too
    r = alpha(123, 11)
    assert r.method == "branch-reduce" and r.value == alpha(123, 11, "dp").value
    # the estimates are compared in log space, where exp(_BR_RATE * n) overflows
    assert _dp_is_cheaper(10**6, 12) and not _dp_is_cheaper(10**6, 13)


def test_dispatch_breakpoints():
    """The largest k the DP gets rises by one at each breakpoint of n: the
    ones up to n = 121 lie inside the fitted grid, the rest extrapolate."""
    breaks = [(67, 8), (103, 9), (136, 10), (167, 11)]
    for n in range(5, 20_001):
        top = next((k for b, k in breaks if n < b), 12)
        assert [k for k in range(1, 14) if _dp_is_cheaper(n, k)] == list(range(1, top + 1)), n


def test_engine_value_outside_bounds_raises(monkeypatch):
    """alpha() checks the engine's value against best_bounds; (13,6) has no
    closed form, so the DP's value is checked against a sandwich."""
    upper = best_bounds(13, 6).upper.value

    def too_big(n, k, **kwargs):
        return solver.ExactResult(upper + 1, "window-dp", None, 0.0)

    monkeypatch.setattr(solver, "alpha_window_dp", too_big)
    with pytest.raises(InternalError, match="outside the bounds"):
        alpha(13, 6, "dp")


def test_auto_matches_reference_for_k_9_to_12(reference_alpha):
    for (n, k), expected in reference_alpha.items():
        if 9 <= k <= 12:
            assert alpha(n, k).value == expected, (n, k)


def test_dispatch_strategies_agree():
    for n, k in [(13, 4), (14, 5), (17, 6), (11, 3)]:
        values = {
            alpha(n, k, "dp").value,
            alpha(n, k, "bb").value,
            alpha(n, k, "auto").value,
        }
        assert len(values) == 1, (n, k, values)


def test_dispatch_forced_preconditions():
    with pytest.raises(DomainError):
        alpha(40, 13, "dp")
    with pytest.raises(DomainError):
        alpha(13, 6, "closed")
    with pytest.raises(DomainError, match="closed forms carry no witness"):
        alpha(10, 2, "closed", want_witness=True)
    with pytest.raises(DomainError):
        alpha(13, 6, "nonsense")


def test_dispatch_witness_request_bypasses_closed_form():
    r = alpha(10, 2, want_witness=True)
    assert r.value == 8 and r.method == "window-dp"
    g = adjacency(petersen_graph(10, 2))
    assert is_independent(g, r.witness) and len(r.witness) == 8


def test_bipartite_identity():
    for n, k in [(8, 3), (12, 5), (14, 3), (20, 7)]:
        assert alpha(n, k).value == n


def test_isomorphic_pair_values_match(reference_alpha):
    """P(n,k) and P(n,m) are isomorphic when km = +-1 (mod n) (Steimle and
    Staton), so they have one alpha: on every such pair of the reference
    table, and computed from scratch by the DP for k, m <= 7 and n <= 30,
    which includes P(2k+1,k) and P(2k+1,2)."""
    def pairs(n, top):
        return [(k, m) for k in range(1, top + 1) for m in range(1, top + 1)
                if k != m and k * m % n in (1, n - 1)]

    table = [(n, k, m) for n in range(5, 78) for k, m in pairs(n, (n - 1) // 2)]
    assert len(table) == 774
    assert all(reference_alpha[(n, k)] == reference_alpha[(n, m)] for n, k, m in table)
    grid = [(n, k, m) for n in range(5, 31) for k, m in pairs(n, min(7, (n - 1) // 2)) if k < m]
    assert {(2 * k + 1, 2, k) for k in range(3, 8)} <= set(grid)
    for n, k, m in grid:
        assert alpha(n, k, "dp").value == alpha(n, m, "dp").value, (n, k, m)


def test_deadline_triggers():
    deadline = time.monotonic() - 1.0
    with pytest.raises(BudgetExceededError):
        alpha_window_dp(77, 12, deadline=deadline)
    with pytest.raises(BudgetExceededError):
        alpha_branch_reduce(adjacency(petersen_graph(77, 38)), deadline=deadline)


# P(77,37) takes about 0.45 s by branch-reduce and (2000,10) about 4 s by the
# DP (2-core machine, Python 3.11), so a deadline 50 ms ahead must expire
# inside the search or the sweep.
@pytest.mark.parametrize("solve", [
    lambda deadline: alpha_branch_reduce(adjacency(petersen_graph(77, 37)), deadline=deadline),
    lambda deadline: alpha_window_dp(2000, 10, deadline=deadline),
], ids=["branch-reduce", "window-dp"])
def test_deadline_expires_during_run(solve):
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        solve(start + 0.05)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("n,k", [(200, 4), (60, 7)])
def test_witness_backtrack_checks_the_deadline(monkeypatch, n, k):
    # a fake clock passes the deadline right after the witness re-sweep, the
    # one sweep that keeps more than two tables, so only the backtrack sees it
    clock = [0.0]
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    sweep = windowdp._sweep

    def sweep_then_expire(T, *args):
        last = sweep(T, *args)
        if len(T) > 2:
            clock[0] = 2.0
        return last

    monkeypatch.setattr(windowdp, "_sweep", sweep_then_expire)
    with pytest.raises(BudgetExceededError):
        alpha_window_dp(n, k, want_witness=True, deadline=1.0)
    assert clock[0] == 2.0


def test_exact_result_fields():
    r = alpha(16, 4)
    assert r.elapsed >= 0 and r.elapsed_ms >= 0
    assert r.value == 14
