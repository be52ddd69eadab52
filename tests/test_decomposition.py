import hashlib
import json
import random

import pytest

from petersen_alpha import DomainError, adjacency, petersen_graph
from petersen_alpha.decomposition import PathDecomposition, path_decomposition, validate_decomposition


# sha256 over 5 <= n <= 150 and every k of path_decomposition(n, k).bags in
# order: a line of comma-joined sorted codes per bag, a blank line per cell
BAGS_DIGEST = "8d5118d6cbcbd1b4cbc77427a2d009a5438bfc47015491973e1490c02ee3a6ee"


def test_bags_digest():
    h = hashlib.sha256()
    names = [str(code) for code in range(300)]  # the codes of P(150, k)
    for n in range(5, 151):
        for k in range(1, (n - 1) // 2 + 1):
            bags = path_decomposition(n, k).bags
            h.update("".join(",".join([names[c] for c in sorted(bag)]) + "\n" for bag in bags).encode() + b"\n")
    assert h.hexdigest() == BAGS_DIGEST


def test_shapes_10_2():
    d = path_decomposition(10, 2)
    assert len(d.bags) == 5
    assert all(len(b) == 12 for b in d.bags)
    assert d.width == 11 and not d.trivial


def test_shapes_20_4():
    d = path_decomposition(20, 4)
    assert len(d.bags) == 11 and d.width == 19


def test_degenerate_case():
    t = path_decomposition(5, 2)
    assert t.trivial and t.bags == (frozenset(range(10)),) and t.width == 9


def test_validator_passes_constructed():
    g = adjacency(petersen_graph(10, 2))
    report = validate_decomposition(g, path_decomposition(10, 2))
    assert report.valid and report.width == 11 and not report.violations


def test_consecutive_bags_swap_one_pair():
    d = path_decomposition(26, 5)
    for i in range(len(d.bags) - 1):
        assert len(d.bags[i] & d.bags[i + 1]) == 4 * 5 + 2


def test_sample_grid():
    for n, k in [(12, 3), (17, 4), (23, 8), (40, 6), (51, 10)]:
        d = path_decomposition(n, k)
        assert len(d.bags) == n - 2 * k - 1
        assert d.width == 4 * k + 3
        report = validate_decomposition(adjacency(petersen_graph(n, k)), d)
        assert report.valid, (n, k, report.violations)


def test_validator_flags_missing_vertex_and_edge():
    g = adjacency(petersen_graph(10, 2))
    d = path_decomposition(10, 2)
    bags = tuple(b - {3} for b in d.bags)
    report = validate_decomposition(g, PathDecomposition(bags))
    assert not report.union_covers_v
    assert not report.every_edge_in_some_bag
    assert any("vertex 3" in v for v in report.violations)
    assert any("edge" in v for v in report.violations)
    # members that are not vertices, in bags 0 and 2, break only the cover
    bags = tuple(b | {-1, 20} if i in (0, 2) else b for i, b in enumerate(d.bags))
    report = validate_decomposition(g, PathDecomposition(bags))
    assert not report.union_covers_v
    assert report.every_edge_in_some_bag and report.occurrences_connected
    assert report.violations == ["bag member -1 is not a vertex", "bag member 20 is not a vertex"]


def test_validator_flags_disconnected_occurrence():
    g = adjacency(petersen_graph(10, 2))
    d = path_decomposition(10, 2)
    occ = [i for i, b in enumerate(d.bags) if 3 in b]
    mid = occ[len(occ) // 2]
    assert occ[0] < mid < occ[-1]
    bags = tuple(b - {3} if i == mid else b for i, b in enumerate(d.bags))
    report = validate_decomposition(g, PathDecomposition(bags))
    assert not report.occurrences_connected
    assert any("disconnected" in v for v in report.violations)


def _mutated_decompositions(count, seed):
    """Decompositions of small cells with bags dropped, added and swapped,
    members removed, and non-vertex members put into several bags."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k + 1, 2 * k + 10)
        bags = [set(b) for b in path_decomposition(n, k).bags]
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(len(bags)), rng.randrange(len(bags))
            op = rng.randrange(5)
            if op == 0 and len(bags) > 1:
                del bags[i]
            elif op == 1:
                bags.insert(i, set(rng.sample(range(2 * n), rng.randint(1, 4))))
            elif op == 2:
                bags[i], bags[j] = bags[j], bags[i]
            elif op == 3 and len(bags[i]) > 1:
                bags[i].discard(rng.choice(sorted(bags[i])))
            elif op == 4:
                stray = rng.choice((-1 - rng.randrange(3), 2 * n + rng.randrange(3)))
                for b in rng.sample(bags, rng.randint(1, len(bags))):
                    b.add(stray)
        yield adjacency(petersen_graph(n, k)), PathDecomposition(tuple(map(frozenset, bags)))


# sha256 over the reports of _mutated_decompositions(2000, 28), then of the
# (10,2) decomposition with the non-vertex 20 put into bags 0, 2 and 4: one
# json.dumps(vars(report), sort_keys=True) line each
REPORTS_DIGEST = "d41b074f81464618cf6fa0a3c88173f6f49aaf9cd6599e4e8c2b196712391264"


def test_validator_reports_digest():
    cases = list(_mutated_decompositions(2000, 28))
    bags = path_decomposition(10, 2).bags
    cases.append((adjacency(petersen_graph(10, 2)),
                  PathDecomposition(tuple(b | {20} if i % 2 == 0 else b for i, b in enumerate(bags)))))
    h = hashlib.sha256()
    for g, d in cases:
        h.update((json.dumps(vars(validate_decomposition(g, d)), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == REPORTS_DIGEST


def test_validator_flags_uncovered_edge_only():
    g = adjacency(petersen_graph(10, 2))
    d = path_decomposition(10, 2)
    bags = tuple(b - {14} if {4, 14} <= b else b for b in d.bags)
    report = validate_decomposition(g, PathDecomposition(bags))
    assert not report.every_edge_in_some_bag
    assert any("edge 4-14" in v for v in report.violations)


def test_tree_decomposition_invariants():
    with pytest.raises(DomainError):
        PathDecomposition((frozenset({1}), frozenset()))
    with pytest.raises(DomainError):
        PathDecomposition(())
