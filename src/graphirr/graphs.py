"""Immutable simple graphs: construction, degrees, connectivity.

A graph parsed from graph6 holds its bitmask over pair_order(n) and reads its
degrees and lower neighbour masks (_lower: edges, m, hash, equality) off it;
its full neighbour masks are decoded with numpy at the first read, for a
whole block of graphs of one order where power iteration asks (_masks).
"""

from __future__ import annotations

import functools
import sys
from itertools import chain
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

    Adjacency is stored as one neighbor bitmask per vertex, ``_adj``, or
    until its first read as a pair mask, ``_pairs`` (None once ``_adj`` is
    set).  Instances are treated as immutable: no method changes the graph.
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
        """Build a graph from a bitmask over pair_order(n); bit k set means pair k is an edge."""
        pairs = pair_order(n)
        if not 0 <= mask < (1 << len(pairs)):
            raise ValueError(f"mask {mask} out of range for n={n}")
        return cls(n, (pairs[k] for k in range(len(pairs)) if (mask >> k) & 1))

    @classmethod
    def _from_pairs(cls, n: int, pairs: int) -> "Graph":
        """The graph on 1 <= n <= 62 vertices with bitmask ``pairs`` over pair_order(n)."""
        g = cls.__new__(cls)
        g.n, g._pairs = n, pairs
        return g

    def __getattr__(self, name: str):
        # only an unset _adj gets here: a graph held as a pair mask decodes it
        if name != "_adj":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _decode([self])
        return self._adj

    def _lower(self) -> tuple[int, ...]:
        """Per vertex j, the mask of its neighbours i < j.  A graph held as a
        pair mask reads them off it, decoding nothing: column j of pair_order(n)
        is the j pairs (i, j) from bit C(j, 2) on."""
        pairs = self._pairs
        if pairs is None:
            return tuple([adj & ((1 << j) - 1) for j, adj in enumerate(self._adj)])
        lower = []
        for j in range(self.n):
            lower.append(pairs & ((1 << j) - 1))
            pairs >>= j  # column j + 1 starts j bits later
        return tuple(lower)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(lower.bit_count() for lower in self._lower())

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degrees in vertex order (not sorted)."""
        pairs = self._pairs
        if pairs is None:
            return tuple(a.bit_count() for a in self._adj)
        return tuple([(pairs & incident).bit_count() for incident in _incidences(self.n)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def neighbor_mask(self, v: int) -> int:
        return self._adj[v]

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
    reach = 1
    while True:
        frontier = reach
        grown = reach
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grown |= g.neighbor_mask(v)
        if grown == reach:
            break
        reach = grown
    return reach == (1 << g.n) - 1


@functools.cache
def _incidences(n: int) -> tuple[int, ...]:
    """Per vertex v, the bitmask over pair_order(n) of the pairs that hold v:
    pairs (i, v), i < v, are the v bits from C(v, 2) on, and pairs (v, j),
    j > v, bit v past each C(j, 2)."""
    incident, firsts = [], 0  # firsts: a bit at C(j, 2) for each j > v
    for v in reversed(range(n)):
        incident.append(((1 << v) - 1) << v * (v - 1) // 2 | firsts << v)
        firsts |= 1 << v * (v - 1) // 2
    return tuple(reversed(incident))


def _decode(graphs: Sequence[Graph]) -> None:
    """Give graphs of one order n <= 62, held as pair masks, their neighbour
    masks, in one gather of their bits: entry (v, u) of the (n, 64) table is
    pair {u, v}'s bit, so row v packs into v's mask; entries with u = v or
    u >= n name bit C(n, 2), the first past the pairs, which is clear."""
    import numpy as np
    n = graphs[0].n
    v, u = np.indices((n, 64))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    table = np.where((u != v) & (u < n), hi * (hi - 1) // 2 + lo, n * (n - 1) // 2)
    width = n * (n - 1) // 2 // 8 + 1  # bytes that hold every pair and the clear bit
    packed = np.frombuffer(b"".join(g._pairs.to_bytes(width, "little") for g in graphs), np.uint8)
    bits = np.unpackbits(packed.reshape(len(graphs), width), axis=1, bitorder="little")
    rows = np.packbits(np.take(bits, table, axis=1), axis=2, bitorder="little")
    for g, masks in zip(graphs, rows.view("<u8")[:, :, 0].tolist()):
        g._adj, g._pairs = tuple(masks), None


def _masks(graphs: Sequence[Graph]) -> list[int]:
    """The neighbour masks of graphs of one order, decoding pair masks together."""
    held = [g for g in graphs if g._pairs is not None]
    if held:
        _decode(held)
    return list(chain.from_iterable(g._adj for g in graphs))


def adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The float64 0/1 adjacency matrices of B graphs of one order n, shape (B, n, n)."""
    import numpy as np
    n = graphs[0].n
    width = (n + 7) // 8
    rows = b"".join(mask.to_bytes(width, "little") for mask in _masks(graphs))
    packed = np.frombuffer(rows, np.uint8).reshape(len(graphs), n, width)
    return np.unpackbits(packed, axis=2, count=n, bitorder="little").astype(np.float64)


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degrees of g, sorted non-increasing."""
    return tuple(sorted(g.degrees(), reverse=True))
