"""Seeded G(n,p) corpus for the compute and rank workloads, with its own graph6 encoder.

The corpus is generated and encoded here, not through ``graphirr.generators``
or ``graphirr.io``, so a change to the program cannot change its inputs.
Draws are never filtered or re-drawn: an edgeless draw stays in the corpus,
and the CLI run that rejects it counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_N = 8
MAX_N = 40
MIN_MEAN_DEGREE = 2.0
MAX_MEAN_DEGREE = 10.0
MAX_P = 0.9


@dataclass(frozen=True)
class CorpusGraph:
    """One drawn graph: order, adjacency matrix and its graph6 line."""

    n: int
    adjacency: np.ndarray  # (n, n) uint8, symmetric, zero diagonal
    graph6: str

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)

    @property
    def connected(self) -> bool:
        seen = np.zeros(self.n, bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = self.adjacency[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    def pair_mask(self) -> int:
        """Bits over the graph6 pair order (0,1), (0,2), (1,2), (0,3), ..."""
        i, j = _pairs(self.n)
        bits = self.adjacency[i, j]
        return sum(1 << int(k) for k in np.flatnonzero(bits))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = zip(*[(i, j) for j in range(1, n) for i in range(j)])
    return np.array(i), np.array(j)


def encode_graph6(n: int, bits: np.ndarray) -> str:
    """graph6 for n <= 62: chr(63 + n), then 6-bit big-endian groups of the pair bits."""
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 encoder covers 1 <= n <= 62, got {n}")
    padded = np.zeros(-(-len(bits) // 6) * 6, np.uint8)
    padded[: len(bits)] = bits
    groups = padded.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1])
    return chr(63 + n) + "".join(chr(63 + int(g)) for g in groups)


def build_corpus(seed: int, size: int) -> list[CorpusGraph]:
    """Draw ``size`` graphs: n uniform on 8..40, mean degree c uniform on [2, 10],
    p = min(0.9, c/(n-1))."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(size):
        n = int(rng.integers(MIN_N, MAX_N + 1))
        c = rng.uniform(MIN_MEAN_DEGREE, MAX_MEAN_DEGREE)
        p = min(MAX_P, c / (n - 1))
        i, j = _pairs(n)
        bits = (rng.random(len(i)) < p).astype(np.uint8)
        adjacency = np.zeros((n, n), np.uint8)
        adjacency[i, j] = bits
        adjacency[j, i] = bits
        graphs.append(CorpusGraph(n, adjacency, encode_graph6(n, bits)))
    return graphs


def corpus_stats(graphs: list[CorpusGraph]) -> dict:
    """n histogram, edgeless count and disconnected count."""
    ns = [g.n for g in graphs]
    return {
        "graphs": len(graphs),
        "n_histogram": {str(n): ns.count(n) for n in sorted(set(ns))},
        "edgeless": sum(1 for g in graphs if not g.adjacency.any()),
        "disconnected": sum(1 for g in graphs if not g.connected),
    }
