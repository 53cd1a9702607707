"""Constructors for named graph families.

The antiregular graph on n vertices uses the rule: label vertices 1..n and
join i to j exactly when i + j > n.  This yields a connected graph whose
degree set is {1, ..., n-1} with a single repeated value, i.e. the unique
connected n-vertex graph with exactly one equal-degree vertex pair.
"""

from __future__ import annotations

from .graphs import Graph, pair_order


def antiregular(n: int) -> Graph:
    """The connected n-vertex graph whose degree set has n-1 elements."""
    if n < 2:
        raise ValueError(f"antiregular needs n >= 2, got n={n}")
    # 0-based translation of the 1-based rule i + j > n.
    return Graph(n, ((i, j) for i, j in pair_order(n) if (i + 1) + (j + 1) > n))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got n={n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got n={n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete needs n >= 1, got n={n}")
    return Graph(n, pair_order(n))


def star(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got n={n}")
    return Graph(n, ((0, v) for v in range(1, n)))


def complete_split(n: int, k: int) -> Graph:
    """Clique on vertices 0..k-1 joined completely to the independent set k..n-1."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"complete_split needs 1 <= k <= n-1, got n={n}, k={k}")
    edges = [(i, j) for i, j in pair_order(n) if i < k]
    return Graph(n, edges)


def complete_minus_edge(n: int) -> Graph:
    """Complete graph with the edge (0, 1) removed."""
    if n < 2:
        raise ValueError(f"complete_minus_edge needs n >= 2, got n={n}")
    return Graph(n, (e for e in pair_order(n) if e != (0, 1)))


def gnp(n: int, p: float, seed: int) -> Graph:
    """Random graph: each pair becomes an edge independently with probability p.

    Driven by the Philox 4x64 counter-based generator keyed directly by the
    64-bit seed, so identical seeds give identical graphs on any platform.
    Pairs are drawn in pair order.
    """
    if n < 1:
        raise ValueError(f"gnp needs n >= 1, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gnp needs 0 <= p <= 1, got p={p}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"gnp seed must fit in 64 bits, got {seed}")
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    pairs = pair_order(n)
    draws = rng.random(len(pairs))
    return Graph(n, (pair for pair, u in zip(pairs, draws) if u < p))


_BUILDERS = {builder.__name__: builder for builder in (
    antiregular, path, cycle, complete, star, complete_split, complete_minus_edge, gnp,
)}

FAMILIES = tuple(_BUILDERS)

# every family's builder is public under the family's name
__all__ = ["FAMILIES", *FAMILIES, "family"]


def family(name: str, n: int, *, k: int | None = None, p: float | None = None,
           seed: int | None = None) -> Graph:
    """Build one graph of the named family: k is complete_split's clique size,
    p and seed are gnp's."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")
    if name == "complete_split":
        if k is None:
            raise ValueError("complete_split needs k (clique size)")
        return complete_split(n, k)
    if name == "gnp":
        if p is None or seed is None:
            raise ValueError("gnp needs p and seed")
        return gnp(n, p, seed)
    if k is not None or p is not None or seed is not None:
        raise ValueError(f"family {name!r} takes no k/p/seed parameters")
    return _BUILDERS[name](n)
