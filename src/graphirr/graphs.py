"""Immutable simple graphs: construction, degrees, connectivity.

A graph built from its bitmask over pair_order(n) keeps it for life and reads
its degrees and lower neighbour masks (_lower: edges, m, hash, equality, and
the adjacency stacks of power iteration) off it.  Its full neighbour masks are
decoded in plain Python, from the lower masks, at the first neighbour read
(has_edge, neighbor_mask, is_connected) and kept beside the mask.  numpy is
imported only to build adjacency stacks.
"""

from __future__ import annotations

import operator
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Graph",
    "pair_order",
    "degree_sequence",
    "is_connected",
]


def _check_order(n: int) -> None:
    """Reject a vertex count outside 1..sys.maxsize before anything is sized by it."""
    if not 1 <= n <= sys.maxsize:
        raise ValueError(f"vertex count must be in 1..{sys.maxsize}, got n={n}")


def pair_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j) with i < j in column order: (0,1), (0,2), (1,2), (0,3), ..."""
    _check_order(n)
    return [(i, j) for j in range(1, n) for i in range(j)]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is stored as one neighbor bitmask per vertex, ``_adj``, or as
    a pair mask, ``_pairs``, beside which ``_adj`` stays None until the first
    neighbour read decodes it.  Instances are treated as immutable: no method
    changes the graph, and no read changes the form it is held in.
    """

    __slots__ = ("n", "_adj", "_pairs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._pairs = None

    @classmethod
    def from_pair_mask(cls, n: int, mask: int) -> "Graph":
        """Build a graph from a bitmask over pair_order(n); bit k set means pair k is an edge.

        Up to 62 vertices, as far as _COLUMNS and _INCIDENCES reach, the graph
        holds the mask; above, its neighbour masks are decoded now and the mask dropped."""
        _check_order(n)
        mask = operator.index(mask)
        if mask < 0 or mask.bit_length() > n * (n - 1) // 2:
            raise ValueError(f"mask {mask} out of range for n={n}")
        g = cls.__new__(cls)
        g.n, g._adj, g._pairs = n, None, mask
        if n > 62:
            lower = [mask >> j * (j - 1) // 2 & (1 << j) - 1 for j in range(n)]
            g._adj, g._pairs = _mirrored(lower), None
        return g

    def _neighbours(self) -> tuple[int, ...]:
        """Per vertex, its neighbours' mask: a pair mask's are decoded at the first call and kept."""
        if self._adj is None:
            self._adj = _mirrored(self._lower())
        return self._adj

    def _lower(self) -> tuple[int, ...]:
        """Per vertex j, the mask of its neighbours i < j.  A graph held as a
        pair mask reads them off it, decoding nothing: column j of pair_order(n)
        is the j pairs (i, j) from bit C(j, 2) on."""
        pairs = self._pairs
        if pairs is None:
            return tuple([adj & ((1 << j) - 1) for j, adj in enumerate(self._adj)])
        return tuple([pairs >> first & below for first, below in _COLUMNS[:self.n]])

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(lower.bit_count() for lower in self._lower())

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degrees in vertex order (not sorted)."""
        pairs = self._pairs
        if pairs is None:
            return tuple(a.bit_count() for a in self._adj)
        return tuple([(pairs & incident).bit_count() for incident in _INCIDENCES[:self.n]])

    def _vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._neighbours()[self._vertex(u)] >> self._vertex(v)) & 1)

    def neighbor_mask(self, v: int) -> int:
        return self._neighbours()[self._vertex(v)]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, listed in pair order."""
        edges = []
        for j, lower in enumerate(self._lower()):  # neighbours i < j, visited lowest first
            while lower:
                edges.append(((lower & -lower).bit_length() - 1, j))
                lower &= lower - 1
        return edges

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix as float64."""
        return adjacency_stack([self])[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._lower() == other._lower()

    def __hash__(self) -> int:
        return hash((self.n, self._lower()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def is_connected(g: Graph) -> bool:
    """Return True when a sweep from vertex 0 reaches every vertex."""
    adj = g._neighbours()
    reach = 1
    while True:
        frontier = reach
        grown = reach
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grown |= adj[v]
        if grown == reach:
            break
        reach = grown
    return reach == (1 << g.n) - 1


def _mirrored(lower: Sequence[int]) -> tuple[int, ...]:
    """Full neighbour masks: each edge (i, j), i < j, of lower mask j adds j to i's mask."""
    adj = list(lower)
    for j, below in enumerate(lower):
        while below:
            adj[(below & -below).bit_length() - 1] |= 1 << j
            below &= below - 1
    return tuple(adj)


# Per vertex v of the 62 that a held pair mask allows: where column v of pair_order
# starts, C(v, 2), and the mask 2^v - 1 of its v pairs (i, v); and the mask of the pairs
# that hold v, its column and bit v past each later C(j, 2).  pair_order(n) is the first
# C(n, 2) pairs of pair_order(62), so a graph of order n reads the first n of each.
_COLUMNS = tuple((v * (v - 1) // 2, (1 << v) - 1) for v in range(62))
_INCIDENCES = tuple(below << first | sum(1 << j * (j - 1) // 2 + v for j in range(v + 1, 62))
                    for v, (first, below) in enumerate(_COLUMNS))


def adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The float64 0/1 adjacency matrices of B graphs of one order n, shape (B, n, n):
    their lower masks unpacked and mirrored in uint8, then converted once."""
    import numpy as np
    n = graphs[0].n
    width = (n + 7) // 8
    rows = b"".join(lower.to_bytes(width, "little") for g in graphs for lower in g._lower())
    packed = np.frombuffer(rows, np.uint8).reshape(len(graphs), n, width)
    stack = np.unpackbits(packed, axis=2, count=n, bitorder="little")
    stack |= stack.transpose(0, 2, 1)  # numpy buffers the overlapping operand
    return stack.astype(np.float64)


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degrees of g, sorted non-increasing."""
    return tuple(sorted(g.degrees(), reverse=True))
