"""Adjacency spectral radius by power iteration, plus Randic-based heterogeneity.

The largest adjacency eigenvalue is found by power iteration on A + I.  The
shift matters: a connected bipartite graph has -lambda1 tied with lambda1 in
magnitude, so unshifted iteration oscillates, while A + I is nonnegative and
irreducible with a positive diagonal, making lambda1 + 1 strictly dominant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, is_connected

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
    "SpectralResult",
    "ConvergenceError",
    "lambda1",
    "cs_index",
    "randic",
    "rho",
]

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class SpectralResult:
    """Largest adjacency eigenvalue with iteration count and residual ||A v - lambda1 v||_inf."""

    lambda1: float
    iterations: int
    residual: float


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge; carries the best estimate so far."""

    def __init__(self, message: str, estimate: float, iterations: int, residual: float):
        super().__init__(message)
        self.estimate = estimate
        self.iterations = iterations
        self.residual = residual


def _power_lambda1(a: np.ndarray, tolerance: float, max_iterations: int) -> SpectralResult:
    """Power iteration on a + I with an all-ones start vector.

    The all-ones vector is never orthogonal to the positive Perron vector, so
    the iteration converges for every connected graph.  Convergence requires
    both a small Rayleigh-quotient delta and a small infinity-norm residual.
    Connectivity is not checked here: compute_all flags it instead.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    n = a.shape[0]
    shifted = a + np.eye(n)
    x = np.ones(n) / math.sqrt(n)
    prev = None
    rayleigh = 0.0
    residual = math.inf
    for iteration in range(1, max_iterations + 1):
        y = shifted @ x
        rayleigh = float(x @ y)
        residual = float(np.max(np.abs(y - rayleigh * x)))
        if prev is not None and abs(rayleigh - prev) <= tolerance and residual <= tolerance:
            return SpectralResult(lambda1=rayleigh - 1.0, iterations=iteration, residual=residual)
        prev = rayleigh
        x = y / float(np.linalg.norm(y))
    raise ConvergenceError(
        f"power iteration did not converge in {max_iterations} iterations "
        f"(estimate {rayleigh - 1.0}, residual {residual})",
        estimate=rayleigh - 1.0,
        iterations=max_iterations,
        residual=residual,
    )


def lambda1(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph."""
    if not is_connected(g):
        raise ValueError("lambda1 requires a connected graph")
    return _power_lambda1(g.adjacency_matrix(), tolerance, max_iterations)


def cs_index(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> float:
    """Spectral irregularity lambda1 - 2m/n; zero exactly on regular graphs."""
    result = lambda1(g, tolerance, max_iterations)
    return result.lambda1 - 2 * g.m / g.n


def randic(g: Graph) -> float:
    """Sum of 1/sqrt(d_u * d_v) over the edges; equals n/2 on regular graphs."""
    deg = g.degrees()
    if min(deg) < 1:
        raise ValueError("randic is undefined for graphs with an isolated vertex")
    return sum(1.0 / math.sqrt(deg[u] * deg[v]) for u, v in g.edges())


def rho(g: Graph) -> float:
    """Normalized heterogeneity (n - 2R)/(n - 2*sqrt(n-1)); zero iff regular."""
    if g.n < 3:
        raise ValueError(f"rho requires n >= 3, got n={g.n}")
    return (g.n - 2 * randic(g)) / (g.n - 2 * math.sqrt(g.n - 1))
