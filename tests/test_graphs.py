"""Graph container, connectivity, degree sequences."""

import sys

import numpy as np
import pytest

from graphirr import (
    DegreeSequence,
    Graph,
    degree_sequence,
    is_connected,
    pair_order,
)
from graphirr.generators import complete, cycle, path, star


def oracle_connected(n, edges):
    """Union-find connectivity, independent of the package implementation."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def test_pair_order_n4():
    assert pair_order(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_pair_order_counts():
    for n in range(1, 10):
        pairs = pair_order(n)
        assert len(pairs) == n * (n - 1) // 2
        assert len(set(pairs)) == len(pairs)
        assert all(0 <= i < j < n for i, j in pairs)


def test_graph_basic():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_edges_are_listed_in_pair_order():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9, 17):
        for _ in range(5):
            edges = [pair for pair in pair_order(n) if rng.random() < 0.4]
            g = Graph(n, reversed(edges))
            assert g.edges() == edges
            assert g.edges() == [(i, j) for i, j in pair_order(n) if g.has_edge(i, j)]


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_pair_mask_round_trip():
    for n in (2, 3, 5):
        npairs = n * (n - 1) // 2
        for mask in range(1 << npairs):
            g = Graph.from_pair_mask(n, mask)
            assert g.pair_mask() == mask
        # mask bit k corresponds to pair k
        for k, (i, j) in enumerate(pair_order(n)):
            g = Graph.from_pair_mask(n, 1 << k)
            assert g.edges() == [(i, j)]


def test_vertex_count_beyond_maxsize_is_value_error():
    # a list of that many vertices cannot even be sized, so this must be
    # refused before any allocation
    with pytest.raises(ValueError, match="vertex count must be in 1.."):
        Graph(sys.maxsize + 1)
    with pytest.raises(ValueError, match="vertex count must be in 1.."):
        Graph(10**22, [(0, 1)])


def test_adjacency_matrix():
    g = path(4)
    a = g.adjacency_matrix()
    assert a.shape == (4, 4)
    assert a.dtype == np.float64
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert list(a.sum(axis=1).astype(int)) == list(g.degrees())


def test_graph_equality_and_hash():
    g = Graph(3, [(0, 1)])
    h = Graph(3, [(1, 0)])
    assert g == h and hash(g) == hash(h)
    assert g != Graph(3, [(0, 2)])
    assert g != Graph(4, [(0, 1)])


def test_is_connected_basics():
    assert is_connected(complete(1))
    assert is_connected(path(5))
    assert is_connected(cycle(3))
    assert not is_connected(Graph(2, []))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


def test_is_connected_matches_union_find_oracle():
    for n in (4, 5):
        pairs = pair_order(n)
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            assert is_connected(Graph(n, edges)) == oracle_connected(n, edges)


def test_degree_sequence_sorting_and_stats():
    d = DegreeSequence((1, 3, 2, 2))
    assert d.degrees == (3, 2, 2, 1)
    assert d.n == 4
    assert d.total == 8
    assert d.m == 4
    assert d.max_degree == 3
    assert d.min_degree == 1
    assert d.multiplicities == {3: 1, 2: 2, 1: 1}


def test_degree_sequence_of_coercions():
    g = star(4)
    assert DegreeSequence.of(g).degrees == (3, 1, 1, 1)
    assert DegreeSequence.of([1, 1, 3, 1]).degrees == (3, 1, 1, 1)
    d = degree_sequence(g)
    assert DegreeSequence.of(d) is d


def test_degree_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        DegreeSequence(())
    with pytest.raises(ValueError):
        DegreeSequence((2, -1))


def test_neighbor_mask():
    g = path(3)
    assert g.neighbor_mask(1) == 0b101
    assert g.neighbor_mask(0) == 0b010
