"""Immutable simple graphs: construction, degrees, connectivity."""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "DegreeSequence",
    "pair_order",
    "degree_sequence",
    "is_connected",
]


def pair_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j) with i < j in column order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is stored as one neighbor bitmask per vertex.  Instances are
    treated as immutable: no method mutates a graph after construction.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= sys.maxsize:
            raise ValueError(f"vertex count must be in 1..{sys.maxsize}, got n={n}")
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

    @classmethod
    def from_pair_mask(cls, n: int, mask: int) -> "Graph":
        """Build a graph from a bitmask over pair_order(n); bit k set means pair k is an edge."""
        pairs = pair_order(n)
        if not 0 <= mask < (1 << len(pairs)):
            raise ValueError(f"mask {mask} out of range for n={n}")
        return cls(n, (pairs[k] for k in range(len(pairs)) if (mask >> k) & 1))

    def pair_mask(self) -> int:
        """Inverse of from_pair_mask."""
        mask = 0
        for k, (i, j) in enumerate(pair_order(self.n)):
            if (self._adj[i] >> j) & 1:
                mask |= 1 << k
        return mask

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(a.bit_count() for a in self._adj) // 2

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degrees in vertex order (not sorted)."""
        return tuple(a.bit_count() for a in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def neighbor_mask(self, v: int) -> int:
        return self._adj[v]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, listed in pair order."""
        edges = []
        for j, adj in enumerate(self._adj):
            lower = adj & ((1 << j) - 1)  # neighbours i < j, visited lowest first
            while lower:
                edges.append(((lower & -lower).bit_length() - 1, j))
                lower &= lower - 1
        return edges

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix as float64."""
        a = np.zeros((self.n, self.n))
        for i, j in self.edges():
            a[i, j] = a[j, i] = 1.0
        return a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

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


@dataclass(frozen=True)
class DegreeSequence:
    """Vertex degrees in non-increasing order."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        ds = tuple(sorted((int(d) for d in self.degrees), reverse=True))
        if not ds:
            raise ValueError("empty degree sequence")
        if ds[-1] < 0:
            raise ValueError("negative degree")
        object.__setattr__(self, "degrees", ds)

    @classmethod
    def of(cls, source) -> "DegreeSequence":
        """Coerce a Graph, DegreeSequence, or iterable of ints to a DegreeSequence."""
        if isinstance(source, DegreeSequence):
            return source
        if isinstance(source, Graph):
            return cls(source.degrees())
        return cls(tuple(source))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        """Sum of degrees (= 2m for a graph)."""
        return sum(self.degrees)

    @property
    def m(self) -> int:
        return self.total // 2

    @property
    def max_degree(self) -> int:
        return self.degrees[0]

    @property
    def min_degree(self) -> int:
        return self.degrees[-1]

    @property
    def multiplicities(self) -> dict[int, int]:
        """Map degree value -> number of vertices with that degree."""
        return dict(Counter(self.degrees))


def degree_sequence(g: Graph) -> DegreeSequence:
    """Degree sequence of g, sorted non-increasing."""
    return DegreeSequence(g.degrees())
