"""Adjacency spectral radius by power iteration.

The largest adjacency eigenvalue is found by power iteration on A + I.  The
shift matters: a connected bipartite graph has -lambda1 tied with lambda1 in
magnitude, so unshifted iteration oscillates, while A + I is nonnegative and
irreducible with a positive diagonal, making lambda1 + 1 strictly dominant.
Graphs of one order iterate together, in stacks that take at most _STACK_BYTES
of float64 or hold one graph.  Each step only multiplies and normalises, and
the convergence tests of a window of steps are computed together, after it.
Power iteration is one of a batch's column passes, each run once over all of
its graphs and their degrees, counted once for every pass; it alone cuts
stacks and runs numpy.  Its stacks and a batch's lookups of graphs from
outside (by hash) read lower neighbour masks, off a held pair mask, and its
own graphs are found by identity, so neither decodes a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING

from .graphs import Graph, adjacency_stack, is_connected

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
    "SpectralResult",
    "ConvergenceError",
    "lambda1",
]

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000
# float64 bytes of a stack's matrices, window iterates and products, n (n + 33) a graph,
# unless it holds one graph: 4.5 MiB, 201 graphs at n = 40, the benchmark corpus's largest order
_STACK_BYTES = 9 << 19
_WINDOW = 16  # steps between convergence tests: a converged graph runs at most 15 discarded steps


@dataclass(frozen=True, slots=True)
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


def _power_batch(stack: np.ndarray, tolerance: float, max_iterations: int) -> list:
    """Power iteration on A + I for each A of a (B, n, n) adjacency stack, overwritten with A + I.

    The all-ones start is never orthogonal to the positive Perron vector, so
    every connected graph converges (connectivity is not checked here): both
    its Rayleigh-quotient delta and its infinity-norm residual fall within
    tolerance.  A step computes only the next iterate; both tests are
    computed for all steps of a window of _WINDOW steps at once, after it.
    Each graph stops at its first step that passes both, and the graphs that
    pass leave the stack together, so each iteration count and residual is
    the graph's own; one that reaches max_iterations keeps its last step's.
    Returns per graph a SpectralResult or ConvergenceError.
    """
    import numpy as np
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    count, n, _ = stack.shape
    stack[:, range(n), range(n)] += 1.0
    x = np.full((count, n, 1), 1.0 / math.sqrt(n))
    rayleigh = np.full(count, np.nan)  # no delta to test at the first step
    active = np.arange(count)  # input position of each row still iterating
    outcomes: list = [None] * count
    for start in range(0, max_iterations, _WINDOW):
        steps = min(_WINDOW, max_iterations - start)
        xs = np.empty((steps + 1, len(active), n, 1))  # each step's iterate, then the next one
        ys = np.empty((steps, len(active), n, 1))  # each step's (A + I) x
        xs[0] = x
        for step in range(steps):
            y = np.matmul(stack, xs[step], out=ys[step])
            np.divide(y, np.sqrt(np.matmul(y.transpose(0, 2, 1), y)), out=xs[step + 1])
        # every step's Rayleigh quotient and residual at once; batched matmul gives
        # each (1, n) @ (n, 1) the BLAS dot of a 1-D x @ y, and numpy 1.22 has it
        rayleighs = np.matmul(xs[:steps].transpose(0, 1, 3, 2), ys)[:, :, 0, 0]
        residuals = np.abs(ys - rayleighs[:, :, None, None] * xs[:steps]).max(axis=2)[:, :, 0]
        deltas = np.abs(np.diff(rayleighs, axis=0, prepend=rayleigh[None]))
        passed = (residuals <= tolerance) & (deltas <= tolerance)
        x, rayleigh, residual = xs[steps], rayleighs[-1], residuals[-1]
        done = passed.any(axis=0)
        for k, step in zip(np.flatnonzero(done).tolist(), passed.argmax(axis=0)[done].tolist()):
            outcomes[active[k]] = SpectralResult(
                float(rayleighs[step, k]) - 1.0, start + step + 1, float(residuals[step, k]))
        if done.all():
            return outcomes
        if done.any():
            keep = ~done
            stack, x, rayleigh, residual, active = (
                stack[keep], x[keep], rayleigh[keep], residual[keep], active[keep])
    for k, position in enumerate(active):
        estimate, last = float(rayleigh[k]) - 1.0, float(residual[k])
        outcomes[position] = ConvergenceError(
            f"power iteration did not converge in {max_iterations} iterations "
            f"(estimate {estimate}, residual {last})", estimate, max_iterations, last)
    return outcomes


def _lambda1_column(tolerance: float, max_iterations: int, graphs: list[Graph],
                    degrees: list) -> dict[str, list]:
    """The column pass of power iteration: each graph's outcome, from stacks of one vertex
    count in order of first appearance, each of at most _STACK_BYTES of float64 or one graph."""
    by_order: dict[int, list[int]] = {}
    for position, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(position)
    outcomes: dict[int, object] = {}
    for n, group in by_order.items():
        size = max(1, _STACK_BYTES // (8 * n * (n + 2 * _WINDOW + 1)))
        for start in range(0, len(group), size):
            positions = group[start:start + size]
            stack = adjacency_stack([graphs[p] for p in positions])
            outcomes.update(zip(positions, _power_batch(stack, tolerance, max_iterations)))
    return {"outcome": [outcomes[p] for p in range(len(graphs))]}


class Lambda1Batch:
    """lambda1 of each of a list of graphs, all run together at the first ``result`` read.

    ``columns`` runs a column pass once over all of the batch's graphs and
    their degrees and keeps the columns it gives.  Power iteration is one such
    pass, as are the measures' degree, deviation and edge passes: each graph
    keeps its SpectralResult or the ConvergenceError that every read of it
    raises.  A disconnected graph gets the largest lambda1 over its components.
    """

    def __init__(self, graphs: list[Graph], tolerance: float = DEFAULT_TOLERANCE,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS):
        self.graphs = graphs
        self._columns: dict = {}  # each column pass run so far -> its columns
        # a partial, not a bound method, so that _columns holds no reference back to the batch
        self._lambda1_column = partial(_lambda1_column, tolerance, max_iterations)

    @cached_property
    def _degrees(self) -> list[tuple[int, ...]]:
        """Each graph's degrees in vertex order, counted once for every column pass."""
        return [g.degrees() for g in self.graphs]

    def columns(self, column_pass) -> dict[str, list]:
        """The named columns, as lists, that ``column_pass`` gives for all of the batch's graphs
        and their degrees: run at the first call, read later; power iteration ignores the degrees."""
        columns = self._columns.get(column_pass)
        if columns is None:
            columns = column_pass(self.graphs, self._degrees)
            self._columns[column_pass] = columns  # kept only once the pass has returned
        return columns

    @cached_property
    def _identities(self) -> dict[int, int]:
        return {id(h): position for position, h in enumerate(self.graphs)}

    @cached_property
    def _positions(self) -> dict[Graph, int]:
        return {h: position for position, h in enumerate(self.graphs)}

    def position(self, g: Graph) -> int:
        """The position of g among the batch's graphs, or, for a graph that is
        not one of them, of a graph equal to it."""
        position = self._identities.get(id(g))
        if position is None:
            position = self._positions.get(g)
            if position is None:
                raise ValueError(f"{g!r} is not one of the batch's graphs")
        return position

    def result(self, g: Graph) -> SpectralResult:
        """The SpectralResult of g, one of the batch's graphs."""
        outcome = self.columns(self._lambda1_column)["outcome"][self.position(g)]
        if isinstance(outcome, ConvergenceError):
            raise outcome.with_traceback(None)  # a fresh traceback, not one grown on every read
        return outcome


def lambda1(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph."""
    if not is_connected(g):
        raise ValueError("lambda1 requires a connected graph")
    return Lambda1Batch([g], tolerance, max_iterations).result(g)
