"""Adjacency spectral radius by power iteration.

The largest adjacency eigenvalue is found by power iteration on A + I.  The
shift matters: a connected bipartite graph has -lambda1 tied with lambda1 in
magnitude, so unshifted iteration oscillates, while A + I is nonnegative and
irreducible with a positive diagonal, making lambda1 + 1 strictly dominant.
Graphs of one order iterate together, in stacks that take at most _STACK_BYTES
of float64 or hold one graph.  Each step only multiplies and normalises, and
the convergence tests of a window of steps are computed together, after it.
Power iteration is one of a batch's column passes, each a function of the
batch, run once over all of its graphs; it alone cuts stacks and runs numpy.
Its stacks and a batch's lookups of graphs from outside (by hash) read lower
neighbour masks, off a held pair mask, and its own graphs are found by
identity, so neither decodes a graph.  ``compute`` runs the power pass in a
forked child, which alone imports numpy, while it runs the other passes
(``Lambda1Batch.power_alongside``); the child sends its column back pickled.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
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
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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

    def __reduce__(self):
        return type(self), (self.args[0], self.estimate, self.iterations, self.residual)


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
    Returns per graph (lambda1 or its last estimate, iterations, residual, converged).
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
        scratch = np.multiply(rayleighs[:, :, None, None], xs[:steps])  # each A x - r x, in place
        residuals = np.abs(np.subtract(ys, scratch, out=scratch), out=scratch).max(axis=2)[:, :, 0]
        deltas = np.abs(np.diff(rayleighs, axis=0, prepend=rayleigh[None]))
        passed = (residuals <= tolerance) & (deltas <= tolerance)
        x, rayleigh, residual = xs[steps].copy(), rayleighs[-1], residuals[-1]
        del xs, ys, scratch  # freed before the next window's are allocated
        done = passed.any(axis=0)
        for k, step in zip(np.flatnonzero(done).tolist(), passed.argmax(axis=0)[done].tolist()):
            outcomes[active[k]] = (
                float(rayleighs[step, k]) - 1.0, start + step + 1, float(residuals[step, k]), True)
        if done.all():
            return outcomes
        if done.any():
            keep = ~done
            stack, x, rayleigh, residual, active = (
                stack[keep], x[keep], rayleigh[keep], residual[keep], active[keep])
    for k, position in enumerate(active):
        outcomes[position] = (float(rayleigh[k]) - 1.0, max_iterations, float(residual[k]), False)
    return outcomes


def _lambda1_column(batch: Lambda1Batch) -> dict[str, list]:
    """Each graph's power-iteration outcome, under the batch's settings, from stacks of one vertex
    count in order of first appearance, each of at most _STACK_BYTES of float64 or one graph."""
    tolerance, max_iterations = batch._settings
    by_order: dict[int, list[int]] = {}
    for position, g in enumerate(batch.graphs):
        by_order.setdefault(g.n, []).append(position)
    outcomes: dict[int, object] = {}
    for n, group in by_order.items():
        size = max(1, _STACK_BYTES // (8 * n * (n + 2 * _WINDOW + 1)))
        for start in range(0, len(group), size):
            positions = group[start:start + size]
            # held by no local or argument tuple, so each stack that _power_batch cuts is freed
            outcomes.update(zip(positions, _power_batch(
                adjacency_stack([batch.graphs[p] for p in positions]), tolerance, max_iterations)))
    return {"outcome": [outcomes[p] for p in range(len(batch.graphs))]}


class Lambda1Batch:
    """lambda1 of each of a list of graphs, all run together at the first ``result`` read.

    ``columns`` runs a column pass, a function of the batch, once over all of
    its graphs and keeps the columns it gives.  Power iteration is one such
    pass, as are the measures' degree, deviation and edge passes: each graph
    keeps its numbers, from which each read makes a new SpectralResult or
    ConvergenceError.  A disconnected graph gets the largest lambda1 over its components.
    Within ``power_alongside``, power iteration may run in a forked child instead.
    """

    def __init__(self, graphs: list[Graph], tolerance: float = DEFAULT_TOLERANCE,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS):
        self.graphs = graphs
        self._columns: dict = {}  # each column pass run so far -> its columns
        self._settings = (tolerance, max_iterations)  # read by power iteration alone

    @cached_property
    def _degrees(self) -> list[tuple[int, ...]]:
        """Each graph's degrees in vertex order, counted once at first read; the power pass reads none."""
        return [g.degrees() for g in self.graphs]

    def columns(self, column_pass) -> dict[str, list]:
        """The named columns, as lists, that ``column_pass`` gives for all of the batch's
        graphs: run at the first call, read later."""
        columns = self._columns.get(column_pass)
        if columns is None:
            columns = column_pass(self)
            self._columns[column_pass] = columns  # kept only once the pass has returned
        return columns

    @contextmanager
    def power_alongside(self):
        """Run the power pass in a forked child while the block runs, and keep its column
        if the child exits 0 with it.

        It forks only where os.fork exists, the power column is not yet kept and numpy
        is not yet loaded, so the child alone imports numpy, with one BLAS thread, and no
        BLAS thread is copied into it.  Otherwise, or if the child fails in any way, it
        keeps nothing, and the first ``result`` read runs the pass in this process and
        raises what it raises.  The child is reaped before the block is left, and killed
        first if the block raises.
        """
        if (_lambda1_column in self._columns or not hasattr(os, "fork")
                or "numpy" in sys.modules):
            yield
            return
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the pass runs here, at the first read
            os.close(read)
            os.close(write)
            yield
            return
        if pid == 0:  # the child prints nothing, flushes no inherited stdio and never returns
            code = 1
            try:
                os.close(read)
                os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))  # read when numpy loads
                import pickle
                with open(write, "wb") as pipe:
                    pickle.dump(self.columns(_lambda1_column), pipe, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        with open(read, "rb") as pipe:
            try:
                yield
                data = pipe.read()
            except BaseException:
                import signal
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitpid(pid, 0)[1]
        if status == 0:
            import pickle
            try:
                self._columns[_lambda1_column] = pickle.loads(data)
            except Exception:  # anything the child sent that does not unpickle is not kept
                pass

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
        """The SpectralResult of g, one of the batch's graphs, or a new ConvergenceError."""
        *numbers, converged = self.columns(_lambda1_column)["outcome"][self.position(g)]
        if not converged:  # numbers: the last estimate, max_iterations and the last residual
            raise ConvergenceError("power iteration did not converge in {1} iterations "
                                   "(estimate {0}, residual {2})".format(*numbers), *numbers)
        return SpectralResult(*numbers)


def lambda1(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph."""
    if not is_connected(g):
        raise ValueError("lambda1 requires a connected graph")
    return Lambda1Batch([g], tolerance, max_iterations).result(g)
