"""Power iteration on one graph, step by step, the oracle for graphirr's batched power pass.

This is the loop that ``spectral._power_batch`` ran before it tested
convergence once per window: A + I is built here from the graph's edges and
``np.eye``, every product keeps the batched shapes of a stack of one
((1, n, n) @ (1, n, 1) for A x, (1, 1, n) @ (1, n, 1) for each dot), so each
step calls the same BLAS kernels, and both stopping tests run after every
step.  A batch must give each graph exactly these bits, these iteration
counts and these messages.
"""

import math

import numpy as np

from graphirr.spectral import ConvergenceError, SpectralResult


def power(g, tolerance, max_iterations):
    """The SpectralResult, or the ConvergenceError, of power iteration on A + I for g."""
    n = g.n
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    shifted = (a + np.eye(n))[None]
    x = np.full((1, n), 1.0 / math.sqrt(n))
    prev = math.nan  # no delta to test at the first step
    for iteration in range(1, max_iterations + 1):
        y = np.matmul(shifted, x[:, :, None])[:, :, 0]
        rayleigh = float(np.matmul(x[:, None], y[:, :, None])[0, 0, 0])
        residual = float(np.abs(y - rayleigh * x).max())
        if residual <= tolerance and abs(rayleigh - prev) <= tolerance:
            return SpectralResult(rayleigh - 1.0, iteration, residual)
        prev = rayleigh
        x = y / np.sqrt(np.matmul(y[:, None], y[:, :, None]))[:, 0]
    estimate = rayleigh - 1.0
    return ConvergenceError(
        f"power iteration did not converge in {max_iterations} iterations "
        f"(estimate {estimate}, residual {residual})", estimate, max_iterations, residual)
