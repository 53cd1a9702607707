"""Adjacency spectral radius by power iteration.

The largest adjacency eigenvalue is found by power iteration on A + I.  The
shift matters: a connected bipartite graph has -lambda1 tied with lambda1 in
magnitude, so unshifted iteration oscillates, while A + I is nonnegative and
irreducible with a positive diagonal, making lambda1 + 1 strictly dominant.
Graphs of one order iterate together as one stack; a single graph is a stack
of one.  Each step only multiplies and normalises, and the convergence tests
of a window of steps are computed together, after it.  Power iteration is
one of a batch's column passes, on the same blocks as the measures' degree,
deviation and edge passes, with each block's degree rows counted once for all
of them; it alone runs numpy.  Its stacks and a batch's lookups of graphs
from outside (by hash) read lower neighbour masks, off a held pair mask,
and its own graphs are found by identity, so neither decodes a graph.
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
_BLOCK = 256  # graphs per stack, so the stack's memory is bounded whatever the input's size
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
    """The column pass of power iteration: each graph's outcome, from a stack of the block."""
    return {"outcome": _power_batch(adjacency_stack(graphs), tolerance, max_iterations)}


class Lambda1Batch:
    """lambda1 of each of a list of graphs, all run together at the first ``result`` read.

    ``columns`` runs a per-block column pass on the batch's ``blocks`` of at
    most _BLOCK graphs of one vertex count and keeps the columns it gives.
    Power iteration is one such pass, as are the measures' degree and edge
    passes: each block builds its own stack, and each graph keeps its
    SpectralResult or the ConvergenceError that every read of it raises.  A
    disconnected graph gets the largest lambda1 over its components.
    """

    def __init__(self, graphs: list[Graph], tolerance: float = DEFAULT_TOLERANCE,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS):
        self.graphs = graphs
        self._columns: dict = {}  # each column pass run so far -> its columns
        # a partial, not a bound method, so that _columns holds no reference back to the batch
        self._lambda1_column = partial(_lambda1_column, tolerance, max_iterations)

    @cached_property
    def blocks(self) -> list[list[int]]:
        """The graphs' positions by vertex count, in order of first appearance,
        cut into runs of at most _BLOCK: one graph order per block."""
        by_order: dict[int, list[int]] = {}
        for position, h in enumerate(self.graphs):
            by_order.setdefault(h.n, []).append(position)
        return [group[start:start + _BLOCK] for group in by_order.values()
                for start in range(0, len(group), _BLOCK)]

    @cached_property
    def _degree_rows(self) -> list[list[tuple[int, ...]]]:
        """Each block's degrees in vertex order, counted once for every column pass."""
        return [[self.graphs[p].degrees() for p in block] for block in self.blocks]

    def columns(self, block_columns) -> dict[str, list]:
        """The named columns that ``block_columns`` gives for the graphs of one
        block and their degree rows, as lists over all of the batch's graphs:
        the pass runs once per block at the first call, later calls read them.
        Power iteration is one such pass, which ignores the degree rows."""
        columns = self._columns.get(block_columns)
        if columns is None:
            columns = {}
            for block, degrees in zip(self.blocks, self._degree_rows):
                for name, values in block_columns([self.graphs[p] for p in block], degrees).items():
                    column = columns.setdefault(name, [None] * len(self.graphs))
                    for position, value in zip(block, values):
                        column[position] = value
            self._columns[block_columns] = columns  # kept only once every block has run
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
