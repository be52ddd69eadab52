import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersen_alpha import (
    AdjacencyGraph,
    DomainError,
    SegmentClass,
    SegmentKind,
    adjacency,
    classify_segment,
    is_independent,
    petersen_graph,
    segment_subgraph,
    segment_vertices,
)
from petersen_alpha.graph import petersen_masks, petersen_violations
from petersen_alpha.solver import _graph_to_masks

valid_nk = st.integers(min_value=1, max_value=12).flatmap(
    lambda k: st.tuples(st.integers(min_value=2 * k + 1, max_value=60), st.just(k))
)


def test_constructor_counts():
    g = petersen_graph(5, 2)
    adj = adjacency(g)
    assert adj.vertex_count == 10
    assert adj.edge_count == 15
    g = petersen_graph(7, 3)
    adj = adjacency(g)
    assert adj.vertex_count == 14
    assert adj.edge_count == 21


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (2, 1), (3, 0), (5, -1)])
def test_constructor_rejects_bad_family(n, k):
    with pytest.raises(DomainError):
        petersen_graph(n, k)


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_small_n_fails_n_above_2k(n):
    with pytest.raises(DomainError, match="requires n > 2k"):
        petersen_graph(n, 1)


def test_adjacency_examples():
    adj = adjacency(petersen_graph(5, 2))
    # u_0 ~ u_1, u_4, v_0
    assert adj.neighbors[0] == (1, 4, 5)
    # v_0 ~ u_0, v_2, v_3
    assert adj.neighbors[5] == (0, 7, 8)


@given(valid_nk)
@settings(max_examples=40, deadline=None)
def test_three_regular(nk):
    n, k = nk
    adj = adjacency(petersen_graph(n, k))
    assert adj.vertex_count == 2 * n
    assert adj.edge_count == 3 * n
    assert all(adj.degree(v) == 3 for v in range(2 * n))


def test_vertex_encoding_roundtrip():
    g = petersen_graph(9, 2)
    for i in range(g.n):
        assert g.label(g.outer(i)) == f"u{i}"
        assert g.label(g.inner(i)) == f"v{i}"
    assert [g.outer(3), g.inner(3)] == [3, 12]
    assert [g.outer(12), g.inner(-1)] == [3, 17]  # indices wrap mod n
    for code in (-1, 18):
        with pytest.raises(DomainError):
            g.label(code)


def test_public_names_resolve():
    import petersen_alpha

    for name in petersen_alpha.__all__:
        assert getattr(petersen_alpha, name) is not None, name


def test_segment_vertices_and_subgraph():
    g = petersen_graph(20, 4)
    sub, codes = segment_subgraph(g, 0, 8)
    assert len(codes) == 16
    # spokes give a perfect matching of size 8 inside the segment
    spokes = [(i, j) for i, j in sub.edges() if abs(codes[i] - codes[j]) == 20]
    assert len(spokes) == 8

    sub1, codes1 = segment_subgraph(g, 0, 1)
    assert sub1.vertex_count == 2 and sub1.edge_count == 1

    sub_wrap, codes_wrap = segment_subgraph(g, 16, 8)
    assert len(set(codes_wrap)) == 16

    with pytest.raises(DomainError):
        segment_vertices(g, 0, 0)
    with pytest.raises(DomainError):
        segment_vertices(g, 0, 21)


# (n, k, t, length): segments from the start, mid-ring, and wrapping past u_{n-1}
@pytest.mark.parametrize("n,k,t,length", [(11, 2, 0, None), (11, 2, 9, None), (13, 3, 5, None),
                                          (20, 4, 15, None), (20, 4, 18, 5), (9, 4, 3, 9)])
def test_segment_subgraph_is_induced_subgraph(n, k, t, length):
    g = petersen_graph(n, k)
    full = adjacency(g)
    sub, codes = segment_subgraph(g, t, length)
    assert codes == segment_vertices(g, t, length)
    induced = {frozenset((codes[i], codes[j])) for i, j in sub.edges()}
    members = set(codes)
    assert induced == {frozenset(e) for e in full.edges() if members.issuperset(e)}


def test_classify_segment_builds_adjacency_once(monkeypatch):
    """Segments and witness checks read P(n,k)'s edge families directly:
    none of them builds the full adjacency."""
    import petersen_alpha.constructions as constructions
    import petersen_alpha.graph as graph

    calls = []
    real = graph.adjacency

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graph, "adjacency", counted)
    monkeypatch.setattr(constructions, "adjacency", counted, raising=False)
    g = petersen_graph(200, 4)
    assert classify_segment(g, {0, 2}, 198).kind == SegmentKind.TYPE3
    assert len(calls) == 0
    assert constructions.verify_witness(constructions.independent_set_even_even(200, 4))
    assert segment_subgraph(g, 198)[0].edge_count == 19
    assert len(calls) == 0


def test_is_independent_basics():
    g = petersen_graph(7, 2)
    adj = adjacency(g)
    assert is_independent(adj, set())
    assert not is_independent(adj, {0, 1})  # outer edge
    assert not is_independent(adj, {0, 7})  # spoke
    with pytest.raises(DomainError):
        is_independent(adj, {99})


@given(valid_nk, st.data())
@settings(max_examples=40, deadline=None)
def test_is_independent_matches_pairwise_check(nk, data):
    n, k = nk
    adj = adjacency(petersen_graph(n, k))
    s = data.draw(st.sets(st.integers(min_value=0, max_value=2 * n - 1), max_size=20))
    brute = all(
        b not in adj.neighbors[a] for a, b in itertools.combinations(sorted(s), 2)
    )
    assert is_independent(adj, s) == brute
    assert (len(petersen_violations(n, k, s)) == 0) == brute


def test_classify_requires_independent_set():
    g = petersen_graph(24, 4)
    with pytest.raises(DomainError):
        classify_segment(g, {0, 1}, 0)


def test_classify_empty_set_is_type3():
    g = petersen_graph(24, 4)
    c = classify_segment(g, frozenset(), 0)
    assert c.kind == SegmentKind.TYPE3 and c.intersection_size == 0


def test_classify_type1_pattern_is_type1():
    from petersen_alpha.constructions import type1_pattern

    g = petersen_graph(20, 4)
    c = classify_segment(g, type1_pattern(g, 0), 0)
    assert c.kind == SegmentKind.TYPE1 and c.intersection_size == 2 * g.k


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(st.integers(min_value=2 * k + 1, max_value=40), st.just(k))), st.data())
@settings(max_examples=40, deadline=None)
def test_classify_segment_matches_definition(nk, data):
    """Against the definition on the induced segment subgraph, at every t
    (segments past n - 2k wrap), on independent sets made from a maximum one
    with random members dropped and random vertices greedily added back."""
    from petersen_alpha.solver import alpha_window_dp

    n, k = nk
    g = petersen_graph(n, k)
    adj = adjacency(g)
    s = set(data.draw(st.sets(st.sampled_from(alpha_window_dp(n, k, want_witness=True).witness))))
    for v in data.draw(st.lists(st.integers(min_value=0, max_value=2 * n - 1), max_size=n)):
        if v not in s and not s.intersection(adj.neighbors[v]):
            s.add(v)
    for t in range(n):
        sub, codes = segment_subgraph(g, t)
        local = {i for i, c in enumerate(codes) if c in s}
        size = len(local)
        if size == 2 * k:
            kind = SegmentKind.TYPE1
        elif size == 2 * k - 1:
            # codes[0] is u_t
            special = 0 not in local and is_independent(sub, local | {0})
            kind = SegmentKind.SPECIAL2 if special else SegmentKind.TYPE2
        else:
            kind = SegmentKind.TYPE3
        assert classify_segment(g, s, t) == SegmentClass(kind, size)
    assert classify_segment(g, iter(s), n - 1) == classify_segment(g, s, n - 1)


def _rotate(g, s, d):
    n = g.n
    out = set()
    for v in s:
        if v < n:
            out.add((v + d) % n)
        else:
            out.add(n + (v - n + d) % n)
    return out


@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
@settings(max_examples=25, deadline=None)
def test_classify_rotation_invariance(t, d):
    from petersen_alpha.constructions import special2_pattern

    g = petersen_graph(24, 4)
    s = special2_pattern(g, 0)
    base = classify_segment(g, s, t)
    rotated = classify_segment(g, _rotate(g, s, d), (t + d) % g.n)
    assert base == rotated


@given(valid_nk, st.integers(min_value=0, max_value=200))
@settings(max_examples=30, deadline=None)
def test_segment_intersection_never_exceeds_2k(nk, t):
    """The spokes match the segment perfectly, capping any independent trace."""
    from petersen_alpha.solver import alpha_oracle

    n, k = nk
    g = petersen_graph(n, k)
    sub, _ = segment_subgraph(g, t % n)
    if sub.vertex_count <= 24:
        assert alpha_oracle(sub) <= 2 * k


@given(st.integers(min_value=3, max_value=60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=(n - 1) // 2))))
@settings(max_examples=100, deadline=None)
def test_petersen_masks_are_the_adjacency_as_bits(cell):
    """The masks branch-reduce searches are the adjacency lists of P(n,k) as
    bits, keyed in the same vertex order, so its search meets them alike."""
    masks = petersen_masks(*cell)
    assert list(masks.items()) == list(_graph_to_masks(adjacency(petersen_graph(*cell))).items())


def test_petersen_masks_reject_bad_family():
    with pytest.raises(DomainError):
        petersen_masks(6, 3)


def test_adjacency_graph_validates():
    with pytest.raises(DomainError):
        AdjacencyGraph(2, ((1,), ()))  # asymmetric
    with pytest.raises(DomainError):
        AdjacencyGraph(1, ((0,),))  # self-loop
    with pytest.raises(DomainError):
        AdjacencyGraph.from_edges(2, [(0, 2)])
    with pytest.raises(DomainError, match="self-loop at 1"):
        AdjacencyGraph.from_edges(3, [(0, 1), (1, 1)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_petersen_independent_matches_adjacency(data):
    n, k = data.draw(valid_nk)
    g = adjacency(petersen_graph(n, k))
    s = data.draw(st.sets(st.integers(min_value=0, max_value=2 * n - 1), max_size=n))
    assert (not petersen_violations(n, k, s)) == is_independent(g, s)
    assert petersen_violations(n, k, s) == [e for e in g.edges() if s.issuperset(e)]
    # an independent set plus the two ends of one wrap-around edge (outer
    # u_{n-1} u_0, or an inner chord v_i v_{i+k-n}) breaks only that edge
    i = data.draw(st.integers(min_value=n - k, max_value=n - 1))
    edge = data.draw(st.sampled_from([(0, n - 1), (n + (i + k) % n, n + i)]))
    blocked = set(edge).union(*(g.neighbors[v] for v in edge))
    chosen: set[int] = set()
    for v in sorted(s - blocked):
        if not chosen.intersection(g.neighbors[v]):
            chosen.add(v)
    assert not petersen_violations(n, k, chosen) and is_independent(g, chosen)
    broken = chosen | set(edge)
    assert petersen_violations(n, k, broken) == [edge]


def test_petersen_independent_rejects_bad_input():
    with pytest.raises(DomainError):
        petersen_violations(5, 2, [10])
    with pytest.raises(DomainError):
        petersen_violations(4, 2, [])
