"""Graph container, connectivity, degree sequences."""

import copy
import pickle
import random
import sys
import tracemalloc

import numpy as np
import pytest

from graphirr import (
    Graph,
    degree_sequence,
    emit_graph6,
    irr_t,
    is_connected,
    n0,
    nk_spectrum,
    pair_order,
    parse_graph6,
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
        pairs = pair_order(n)
        for mask in range(1 << len(pairs)):
            g = Graph.from_pair_mask(n, mask)
            assert g.edges() == [pair for k, pair in enumerate(pairs) if (mask >> k) & 1]
        # mask bit k corresponds to pair k
        for k, (i, j) in enumerate(pair_order(n)):
            g = Graph.from_pair_mask(n, 1 << k)
            assert g.edges() == [(i, j)]


def test_pair_mask_out_of_range_is_value_error():
    # C(3, 2) = 3 pairs, so the masks are 0..7
    for mask in (-1, 8):
        with pytest.raises(ValueError, match=f"mask {mask} out of range for n=3"):
            Graph.from_pair_mask(3, mask)


@pytest.mark.parametrize("make", [lambda: parse_graph6("Dhc"), lambda: Graph.from_pair_mask(5, 0b1001101011)],
                         ids=["graph6", "from_pair_mask"])
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_the_form_a_graph_is_held_in(make, duplicate):
    # copying reads no neighbour mask: the original and its copy both keep the
    # pair mask, and each decodes its neighbour masks beside it at its first read
    g = make()
    mask, h = g._pairs, duplicate(g)
    assert mask is not None
    for graph in (g, h):
        assert graph._pairs == mask and graph._adj is None
    assert h == g and h is not g
    for graph in (g, h):
        assert graph.neighbor_mask(0) == graph._adj[0] and graph._pairs == mask


def test_a_pair_mask_graph_is_the_edge_built_graph_in_either_form():
    # up to 62 vertices the mask is held; above, the neighbour masks are
    # decoded at construction and the mask dropped
    rng = random.Random(30)
    for n in (1, 2, 7, 61, 62, 63, 200):
        pairs = pair_order(n)
        full = (1 << len(pairs)) - 1
        sparse = rng.getrandbits(len(pairs)) & rng.getrandbits(len(pairs)) & rng.getrandbits(len(pairs))
        for mask in (0, full, rng.getrandbits(len(pairs)), sparse, sparse & rng.getrandbits(len(pairs))):
            g = Graph.from_pair_mask(n, mask)
            h = Graph(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])
            if n <= 62:
                assert g._pairs == mask and g._adj is None, n
            else:
                assert g._pairs is None and g._adj == h._adj, n
            assert g == h and hash(g) == hash(h) and g.degrees() == h.degrees(), n
            assert g.edges() == h.edges() and is_connected(g) == is_connected(h) == oracle_connected(n, h.edges())


def test_a_numpy_integer_mask_reads_as_python_ints():
    # numpy integers pass the range check; the graph reads a Python int, so no
    # numpy scalar reaches the degrees, lower masks or edge count
    for mask in (np.int64(5), np.uint64(5), np.int8(5)):
        g = Graph.from_pair_mask(3, mask)
        assert g == Graph(3, [(0, 1), (1, 2)]) and emit_graph6(g) == "Bg"
        assert all(type(x) is int for x in g._lower() + g.degrees() + (g.m,))
    with pytest.raises(ValueError, match="mask 8 out of range for n=3"):
        Graph.from_pair_mask(3, np.int64(8))


def test_a_large_pair_mask_graph_lists_no_pairs():
    # C(2000, 2) pairs would take about 190 MB as a list; the mask is decoded
    # from its lower masks instead
    tracemalloc.start()
    try:
        g = Graph.from_pair_mask(2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    assert g.edges() == [(0, 1)] and g.degrees()[:3] == (1, 1, 0) and g.m == 1


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
    g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    d = degree_sequence(g)
    assert d == (3, 2, 2, 1)
    assert sum(d) == 2 * g.m


def test_degree_sequence_of_coercions():
    # a measure takes a Graph, its sorted degrees, or the degrees in any order
    g = star(4)
    assert degree_sequence(g) == (3, 1, 1, 1)
    for d in (g, degree_sequence(g), [1, 1, 3, 1]):
        assert (irr_t(d), n0(d), nk_spectrum(d).counts) == (6, 3, {0: 3, 2: 3})


def test_degree_sequence_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        n0([])
    with pytest.raises(ValueError, match="negative"):
        irr_t([2, -1])


def test_neighbor_mask():
    g = path(3)
    assert g.neighbor_mask(1) == 0b101
    assert g.neighbor_mask(0) == 0b010


def test_vertex_reads_refuse_an_index_outside_the_graph():
    # unchecked, -1 read vertex 3, 9 a bit past the masks, and a negative
    # shift count failed; a graph still held as a pair mask refuses them too
    for g in (path(4), parse_graph6(emit_graph6(path(4)))):
        for v in (-1, 4, 9):
            for read in (lambda: g.has_edge(v, 2), lambda: g.has_edge(0, v), lambda: g.neighbor_mask(v)):
                with pytest.raises(ValueError, match=rf"^vertex {v} out of range 0\.\.3$"):
                    read()
        assert [g.has_edge(0, v) for v in range(4)] == [False, True, False, False]
        assert [g.neighbor_mask(v) for v in range(4)] == [0b10, 0b101, 0b1010, 0b100]
