import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersen_alpha import DomainError, SegmentKind, adjacency, classify_segment, is_independent, petersen_graph, segment_subgraph
from petersen_alpha.bounds import tiling_size_even_even, tiling_size_odd_even
from petersen_alpha.constructions import (
    IndependentSetWitness,
    independent_set_even_even,
    independent_set_odd_even,
    special2_pattern,
    type1_pattern,
    verify_witness,
)
from petersen_alpha.solver import maximum_independent_sets


def test_type1_pattern_k4_offsets():
    g = petersen_graph(24, 4)
    emb = type1_pattern(g, 0)
    outer = {0, 2, 5, 7}
    inner = {1, 3, 4, 6}
    assert emb == frozenset(outer | {24 + i for i in inner})


def test_type1_pattern_shape():
    for k in (4, 6, 8):
        g = petersen_graph(6 * k, k)
        p = type1_pattern(g, 3)
        assert len(p) == 2 * k
        assert sum(1 for v in p if v < g.n) == k
        # forced members: the last outer and the middle inner spoke
        assert g.outer(3 + 2 * k - 1) in p
        assert g.inner(3 + k) in p


@pytest.mark.parametrize("k", [3, 2, 5, 1])
def test_patterns_reject_odd_or_small_k(k):
    g = petersen_graph(24, k)
    with pytest.raises(DomainError):
        type1_pattern(g, 0)
    with pytest.raises(DomainError):
        special2_pattern(g, 0)


def test_special2_pattern_drops_anchor():
    k = 4
    g = petersen_graph(24, k)
    p1, p2 = type1_pattern(g, 5), special2_pattern(g, 5)
    assert p2 == p1 - {g.outer(5)}
    assert len(p2) == 2 * k - 1


def test_segment_alpha_set_unique_and_equals_pattern():
    """Exhaustive check: the segment graph has a unique maximum independent
    set and it is the propagated pattern (k=4 here; k=6 in acceptance)."""
    k = 4
    g = petersen_graph(6 * k, k)
    sub, codes = segment_subgraph(g, 0)
    sets = maximum_independent_sets(sub)
    assert len(sets) == 1
    assert len(sets[0]) == 2 * k
    assert {codes[i] for i in sets[0]} == type1_pattern(g, 0)


def test_special2_tile_classifies_special2():
    g = petersen_graph(16, 4)
    w = independent_set_even_even(16, 4)  # r=0: tiles at 0 and 8
    for t in (0, 8):
        c = classify_segment(g, w.members, t)
        assert c.kind == SegmentKind.SPECIAL2 and c.intersection_size == 7


def test_special2_blocks_next_segment_head():
    """u_{t+2k} and v_{t+2k} are outside the pattern and adjacent to it."""
    k = 4
    g = petersen_graph(24, k)
    emb = special2_pattern(g, 0)
    adj = adjacency(g)
    head_u, head_v = g.outer(2 * k), g.inner(2 * k)
    assert head_u not in emb and head_v not in emb
    assert not is_independent(adj, emb | {head_u})
    assert not is_independent(adj, emb | {head_v})


@pytest.mark.parametrize(
    "n,k,size",
    [(16, 4, 14), (20, 4, 16), (22, 6, 19)],
)
def test_even_even_witnesses(n, k, size):
    w = independent_set_even_even(n, k)
    assert w.claimed_size == size
    assert verify_witness(w)


@pytest.mark.parametrize(
    "n,k,size",
    [(17, 4, 14), (11, 4, 9), (13, 4, 11), (9, 4, 7)],
)
def test_odd_even_witnesses(n, k, size):
    w = independent_set_odd_even(n, k)
    assert w.claimed_size == size
    assert verify_witness(w)


def test_witness_constructors_reject_wrong_parity():
    with pytest.raises(DomainError):
        independent_set_even_even(17, 4)
    with pytest.raises(DomainError):
        independent_set_even_even(16, 5)
    with pytest.raises(DomainError):
        independent_set_odd_even(16, 4)
    with pytest.raises(DomainError):
        independent_set_odd_even(17, 5)


def test_verify_witness_diagnostics():
    w = independent_set_even_even(16, 4)
    ok = verify_witness(w)
    assert ok and not ok.problems

    # plant an outer edge inside the set
    bad = IndependentSetWitness(16, 4, w.members | {0, 1}, w.claimed_size + 2, w.source)
    check = verify_witness(bad)
    assert not check and any("edge inside set" in p for p in check.problems)

    # claim one more than the true size
    off = IndependentSetWitness(16, 4, w.members, w.claimed_size + 1, w.source)
    check = verify_witness(off)
    assert not check and any("size mismatch" in p for p in check.problems)


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=20, deadline=None)
def test_random_cells_verify(half_k, data):
    k = 2 * half_k
    n = data.draw(st.integers(min_value=k + 1, max_value=60).map(lambda x: 2 * x))
    assert verify_witness(independent_set_even_even(n, k))
    n = data.draw(st.integers(min_value=k, max_value=60).map(lambda x: 2 * x + 1))
    assert verify_witness(independent_set_odd_even(n, k))


def test_sizes_never_exceed_density_upper_bound():
    for k in (4, 6, 8):
        for n in range(2 * k + 1, 120):
            cap = (2 * k - 1) * n // (2 * k)
            if n % 2 == 0:
                assert tiling_size_even_even(n, k) <= cap
            else:
                assert tiling_size_odd_even(n, k) <= cap


# sha256 of the member sets of both tiling builders over criterion 5's grid:
# a line of comma-joined sorted codes per witness, even n then odd n per k
MEMBERS_DIGEST = "2bd027b6505722b5d7efcd1d29f239c82e60c6c97410631772cdf3179889ceb0"


def test_members_digest():
    h = hashlib.sha256()
    for k in (4, 6, 8, 10, 12):
        witnesses = [independent_set_even_even(n, k) for n in range(2 * k + 2, 201, 2)]
        witnesses += [independent_set_odd_even(n, k) for n in range(2 * k + 1, 202, 2)]
        for w in witnesses:
            h.update((",".join(map(str, sorted(w.members))) + "\n").encode())
    assert h.hexdigest() == MEMBERS_DIGEST
