"""Power-iteration spectral radius against a dense eigensolver oracle."""

import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import reference_power
from graphirr import (
    ConvergenceError,
    Graph,
    SpectralResult,
    compute_all,
    cs_index,
    is_connected,
    lambda1,
    randic,
    rho,
)
from graphirr import measures
from graphirr.generators import antiregular, complete, complete_split, cycle, gnp, path, star
from graphirr.graphs import adjacency_stack
from graphirr.spectral import (
    _WINDOW, DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, Lambda1Batch, _lambda1_column, _power_batch,
)


def eigvalsh_lambda1(g):
    """Independent oracle: dense symmetric eigensolver."""
    return float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])


def test_star_lambda1_is_sqrt5():
    result = lambda1(star(6))
    assert result.lambda1 == pytest.approx(math.sqrt(5), abs=1e-10)
    assert result.iterations >= 1
    assert result.residual <= 1e-10


def test_lambda1_matches_dense_solver_on_named_graphs():
    for g in (path(4), cycle(5), complete(6), antiregular(6), star(9), antiregular(8)):
        assert lambda1(g).lambda1 == pytest.approx(eigvalsh_lambda1(g), abs=1e-8)


def test_lambda1_matches_dense_solver_on_random_connected():
    from graphirr import is_connected

    found = 0
    seed = 0
    while found < 25:
        g = gnp(9, 0.35, seed=seed)
        seed += 1
        if not is_connected(g):
            continue
        found += 1
        assert lambda1(g).lambda1 == pytest.approx(eigvalsh_lambda1(g), abs=1e-8)


def test_lambda1_input_validation():
    with pytest.raises(ValueError):
        lambda1(path(4), tolerance=0.0)
    with pytest.raises(ValueError):
        lambda1(path(4), tolerance=-1e-10)
    with pytest.raises(ValueError):
        lambda1(path(4), max_iterations=0)
    with pytest.raises(ValueError):
        lambda1(Graph(4, [(0, 1), (2, 3)]))  # disconnected


def test_power_iteration_settings_checked_for_compute_all():
    disconnected = Graph(4, [(0, 1), (2, 3)])
    for g in (path(4), disconnected):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            compute_all(g, batch=Lambda1Batch([g], -1.0)).cs
        with pytest.raises(ValueError, match="tolerance must be positive"):
            compute_all(g, batch=Lambda1Batch([g], float("nan"))).cs
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            compute_all(g, batch=Lambda1Batch([g], max_iterations=0)).cs
    with pytest.raises(ValueError, match="tolerance must be positive"):
        cs_index(path(4), tolerance=0.0)
    # the settings only matter to power iteration, which runs at the first cs read
    r = compute_all(path(4), batch=Lambda1Batch([path(4)], -1.0, 0))
    assert (r.irr_t, r.rho) == (4, pytest.approx(rho(path(4))))


def test_power_iteration_runs_without_numpy_2_functions(monkeypatch):
    # pyproject allows numpy >= 1.22, which has none of these
    for name in ("vecdot", "matvec", "vecmat"):
        monkeypatch.delattr(np, name, raising=False)
    assert lambda1(cycle(5)).lambda1 == pytest.approx(2.0, abs=1e-9)
    assert compute_all(star(5)).cs == pytest.approx(2.0 - 8 / 5, abs=1e-9)


def test_lambda1_single_vertex():
    assert lambda1(complete(1)).lambda1 == pytest.approx(0.0, abs=1e-12)
    assert lambda1(complete(2)).lambda1 == pytest.approx(1.0, abs=1e-10)


def test_convergence_error_carries_state():
    with pytest.raises(ConvergenceError) as info:
        lambda1(star(6), max_iterations=1)
    err = info.value
    assert err.iterations == 1
    assert isinstance(err.estimate, float)
    assert err.residual > 1e-10


def test_cs_index_zero_on_regular():
    for g in (complete(4), cycle(5), complete(2)):
        assert cs_index(g) == pytest.approx(0.0, abs=1e-9)


def test_disconnected_input_errors_name_the_function_called():
    disconnected = Graph(4, [(0, 1), (2, 3)])
    for fn in (cs_index, lambda1):
        with pytest.raises(ValueError, match=f"^{fn.__name__} requires a connected graph$"):
            fn(disconnected)


def test_cs_index_star():
    # lambda1 = sqrt(5), mean degree 10/6
    assert cs_index(star(6)) == pytest.approx(math.sqrt(5) - 10 / 6, abs=1e-9)


def test_cs_index_is_the_reports_cs_without_the_degree_pass(monkeypatch):
    # cs_index reads lambda1 and m alone: the report's cs to the bit, at two
    # settings, while the integer degree pass refuses to run
    connected = [g for g in mixed_graphs() if is_connected(g)]
    settings = ((1e-10, 100_000), (1e-6, 500))
    expected = [[compute_all(g, batch=Lambda1Batch([g], *pair)).cs for g in connected] for pair in settings]

    def refuse(degrees, multiplicities):
        raise AssertionError("the integer degree pass ran")

    monkeypatch.setattr(measures, "_integer_row", refuse)
    assert [[cs_index(g, *pair) for g in connected] for pair in settings] == expected
    with pytest.raises(AssertionError, match="the integer degree pass ran"):
        compute_all(star(6)).cs


def test_cs_index_walks_the_graph_once(monkeypatch):
    # its own connectivity check is the only walk: lambda1's second one is not taken
    graphs = [star(6), path(5), gnp(9, 0.5, seed=3)]
    expected = [cs_index(g) for g in graphs]

    def refuse(g):
        raise AssertionError("a second connectivity walk")

    monkeypatch.setattr("graphirr.spectral.is_connected", refuse)
    assert [cs_index(g) for g in graphs] == expected


def test_randic_values():
    assert randic(complete(4)) == pytest.approx(2.0, abs=1e-12)  # n/2 for K_n
    assert randic(path(4)) == pytest.approx(0.5 + math.sqrt(2), abs=1e-12)
    assert randic(star(6)) == pytest.approx(math.sqrt(5), abs=1e-12)
    with pytest.raises(ValueError):
        randic(Graph(3, [(0, 1)]))  # isolated vertex


def test_rho_extremes():
    assert rho(complete(6)) == pytest.approx(0.0, abs=1e-12)
    assert rho(cycle(5)) == pytest.approx(0.0, abs=1e-12)
    assert rho(star(6)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        rho(complete(2))  # needs n >= 3


def test_rho_nonnegative_on_connected_samples():
    from graphirr import is_connected

    count = 0
    seed = 0
    while count < 40:
        g = gnp(7, 0.45, seed=seed)
        seed += 1
        if not is_connected(g):
            continue
        count += 1
        assert rho(g) >= -1e-12


def stack_of(graphs):
    return adjacency_stack(graphs)


def mixed_graphs():
    """Connected, disconnected, bipartite and regular graphs, n = 1 and n = 2 included."""
    yield complete(1)
    yield from (complete(2), Graph(2))
    yield from (path(3), Graph(3), Graph(3, [(0, 1)]), complete(3))
    for n in (5, 8):
        yield from (path(n), cycle(n), star(n), complete(n), antiregular(n), complete_split(n, 2),
                    Graph(n, [(0, 1), (2, 3)]), Graph(n, [(i, i + 1) for i in range(n - 3)]))
        yield from (gnp(n, 0.4, seed=seed) for seed in range(6))
    yield Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])  # two triangles: tied lambda1
    yield Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])  # K_{4,4}


def test_power_batch_matches_dense_solver_on_mixed_stacks():
    by_order = {}
    for g in mixed_graphs():
        by_order.setdefault(g.n, []).append(g)
    for n, group in by_order.items():
        expected = [float(np.linalg.eigvalsh(g.adjacency_matrix())[-1]) for g in group]
        outcomes = _power_batch(stack_of(group), 1e-10, 100_000)
        for g, (estimate, _, residual, converged), lam in zip(group, outcomes, expected):
            assert converged, g
            assert estimate == pytest.approx(lam, abs=1e-9), g
            assert residual <= 1e-10


def test_batched_iterations_and_residuals_are_each_graphs_own():
    graphs = list(mixed_graphs())
    batch = Lambda1Batch(graphs)
    for g in graphs:
        *alone, converged = _power_batch(stack_of([g]), 1e-10, 100_000)[0]
        assert converged, g
        assert batch.result(g) == SpectralResult(*alone), g  # lambda1, iterations and residual, exactly
    counts = {batch.result(g).iterations for g in graphs}
    assert len(counts) > 5  # graphs leave the active set at different iterations


def test_failed_graph_carries_its_own_convergence_state():
    # regular graphs converge at iteration 2; at that cap the others fail, each with its own state
    graphs = [complete(4), star(6), cycle(6), antiregular(6)]
    batch = Lambda1Batch(graphs, max_iterations=2)
    for g, degree in ((graphs[0], 3), (graphs[2], 2)):
        result = batch.result(g)
        assert result.iterations == 2 and result.lambda1 == pytest.approx(degree, abs=1e-12)
    errors = []
    for g in (graphs[1], graphs[3]):
        with pytest.raises(ConvergenceError) as info:
            batch.result(g)
        estimate, iterations, residual, converged = _power_batch(stack_of([g]), 1e-10, 2)[0]
        assert not converged and iterations == 2
        err = info.value
        assert (str(err), err.estimate, err.iterations, err.residual) == (
            f"power iteration did not converge in 2 iterations "
            f"(estimate {estimate}, residual {residual})", estimate, 2, residual)
        errors.append(err)
    assert errors[0].estimate != errors[1].estimate
    assert errors[0].residual != errors[1].residual


def test_stored_convergence_error_keeps_its_traceback_on_every_read():
    g = star(6)
    batch = Lambda1Batch([g], max_iterations=1)
    seen = []
    for _ in range(3):
        with pytest.raises(ConvergenceError) as info:
            batch.result(g)
        err = info.value
        depth = 0
        tb = err.__traceback__
        while tb is not None:
            depth, tb = depth + 1, tb.tb_next
        seen.append((depth, str(err), err.estimate, err.iterations, err.residual))
    assert seen[0][1].startswith("power iteration did not converge in 1 iterations")
    assert seen[0][3] == 1
    assert seen == [seen[0]] * 3  # traceback length, message and state, read after read


def unconverged_read(batch, g):
    """The error that one read of g, whose power iteration stops short, raises."""
    with pytest.raises(ConvergenceError) as info:
        batch.result(g)
    return info.value


def test_each_read_of_an_unconverged_graph_raises_a_new_error():
    g = star(6)
    batch = Lambda1Batch([g], max_iterations=1)
    first, second = unconverged_read(batch, g), unconverged_read(batch, g)
    assert first is not second
    assert (str(first), first.estimate, first.iterations, first.residual) == (
        str(second), second.estimate, second.iterations, second.residual)


def test_a_read_inside_a_handler_leaves_no_context_on_a_later_read():
    g = star(6)
    batch = Lambda1Batch([g], max_iterations=1)
    try:
        raise KeyError("unrelated")
    except KeyError:
        assert isinstance(unconverged_read(batch, g).__context__, KeyError)
    assert unconverged_read(batch, g).__context__ is None


def test_a_note_on_one_reads_error_is_absent_from_the_next():
    g = star(6)
    batch = Lambda1Batch([g], max_iterations=1)
    unconverged_read(batch, g).__notes__ = ["seen by one caller"]  # what add_note does, from 3.11
    assert not hasattr(unconverged_read(batch, g), "__notes__")


def test_the_power_column_pickles_as_numbers():
    # a mixed batch: complete(4) and cycle(6) converge at the cap of 2, the others do not
    import pickle
    graphs = [complete(4), star(6), cycle(6), antiregular(6)]
    columns = Lambda1Batch(graphs, max_iterations=2).columns(_lambda1_column)
    assert [converged for *_, converged in columns["outcome"]] == [True, False, True, False]
    data = pickle.dumps(columns, pickle.HIGHEST_PROTOCOL)
    assert b"graphirr" not in data
    assert pickle.loads(data) == columns


def test_batch_runs_once_and_only_when_read(monkeypatch):
    calls = []
    monkeypatch.setattr("graphirr.spectral._power_batch",
                        lambda stack, *settings: calls.append(stack.shape) or
                        _power_batch(stack, *settings))
    graphs = [path(4), cycle(5), star(4), complete(5)]
    batch = Lambda1Batch(graphs)
    assert not calls
    batch.result(graphs[3])
    assert sorted(calls) == [(2, 4, 4), (2, 5, 5)]  # one stack per order
    for g in graphs:
        batch.result(g)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="not one of the batch's graphs"):
        batch.result(star(5))


def test_batch_stacks_hold_at_most_stack_bytes(monkeypatch):
    # a graph's matrix, window iterates and products take 8 n (n + 33) bytes:
    # 2,368 bytes hold two graphs of 4 vertices (1,184 bytes each), one of 5 (1,520)
    calls = []
    monkeypatch.setattr("graphirr.spectral._power_batch",
                        lambda stack, *settings: calls.append(stack.shape) or
                        _power_batch(stack, *settings))
    monkeypatch.setattr("graphirr.spectral._STACK_BYTES", 2368)
    graphs = [path(4), cycle(4), star(4), complete(4), Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])]
    graphs += [path(5), cycle(5), star(5)]
    batch = Lambda1Batch(graphs)
    for g in graphs:
        *alone, converged = _power_batch(stack_of([g]), 1e-10, 100_000)[0]
        assert converged and batch.result(g) == SpectralResult(*alone), g
    assert calls == [(2, 4, 4), (2, 4, 4), (1, 4, 4), (1, 5, 5), (1, 5, 5), (1, 5, 5)]


def test_every_stack_of_mixed_orders_fits_its_bytes_or_holds_one_graph(monkeypatch):
    # the bound is shrunk, not a large stack allocated: from n = 12 on, one graph
    # takes more than half of 8,192 bytes, and the cut leaves every outcome as it was
    graphs = [gnp(n, 0.5, seed=seed) for seed in range(6) for n in range(1, 19)]
    expected = [Lambda1Batch(graphs).result(g) for g in graphs]
    calls = []
    monkeypatch.setattr("graphirr.spectral._power_batch",
                        lambda stack, *settings: calls.append(stack.shape) or
                        _power_batch(stack, *settings))
    monkeypatch.setattr("graphirr.spectral._STACK_BYTES", 8192)
    batch = Lambda1Batch(graphs)
    assert [batch.result(g) for g in graphs] == expected
    assert all(count == 1 or 8 * count * n * (n + 2 * _WINDOW + 1) <= 8192
               for count, n, _ in calls), calls
    assert [n for _, n, _ in calls] == sorted(n for _, n, _ in calls)  # in order of first appearance
    assert sum(count for count, _, _ in calls) == len(graphs)
    assert {(6, 4, 4), (3, 8, 8), (1, 12, 12)} <= set(calls)


def outcome_key(outcome):
    """A SpectralResult as it is, a ConvergenceError by its message and its state."""
    if isinstance(outcome, ConvergenceError):
        return str(outcome), outcome.estimate, outcome.iterations, outcome.residual
    return outcome


def test_batch_matches_the_one_graph_reference_loop_exactly():
    # caps on both sides of the first 16-step convergence windows, and one that no graph reaches
    graphs = list(mixed_graphs()) + [gnp(n, min(0.9, 4 / (n - 1)), seed=seed)
                                     for n in range(3, 63, 6) for seed in range(8)]
    for tolerance in (1e-10, 1e-13):
        for cap in (1, 15, 16, 17, 33, 100_000):
            batch = Lambda1Batch(graphs, tolerance, cap)
            for g in graphs:
                try:
                    outcome = batch.result(g)
                except ConvergenceError as err:
                    outcome = err
                expected = reference_power.power(g, tolerance, cap)
                assert outcome_key(outcome) == outcome_key(expected), (g, tolerance, cap)


def test_outcomes_survive_pickling():
    # results and errors are values a caller may pickle, as with any other
    import pickle
    error = pickle.loads(pickle.dumps(ConvergenceError("m", 1.0, 2, 3.0)))
    assert (type(error), str(error), error.estimate, error.iterations, error.residual) == (
        ConvergenceError, "m", 1.0, 2, 3.0)
    result = SpectralResult(1.4142135623730945, 14, 3.8309577732320577e-11)
    assert pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) == result


def test_power_alongside_forks_nothing_once_numpy_is_loaded():
    # numpy is loaded here, so the block runs as it is, and so does the pass at the first read
    graphs = [path(4), star(5)]
    batch = Lambda1Batch(graphs)
    with batch.power_alongside():
        assert not batch._columns
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert batch.result(graphs[1]) == lambda1(star(5))


def test_a_window_holds_its_iterates_products_and_one_scratch():
    # one window of 167 graphs of order 40, none leaving the stack: its 17 iterates and
    # 16 products, one scratch of 16 products for the residuals, and a few n-vectors
    # more (the last iterate, the diagonal); the three temporaries of
    # abs(ys - r xs) held 32 products more than that
    stack = adjacency_stack([gnp(40, 0.05 + 0.005 * k, seed=k) for k in range(167)])
    count, n, _ = stack.shape
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcomes = _power_batch(stack, 1e-300, _WINDOW)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not any(converged for *_, converged in outcomes)
    assert peak <= 8 * count * n * (3 * _WINDOW + 8)


def traced_peak(run):
    """The traced peak of run(), in bytes, and what it returns."""
    tracemalloc.start()
    try:
        value = run()
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()


def test_the_power_pass_holds_no_stack_that_power_iteration_cuts():
    # 167 graphs of order 40 in one stack, which they leave between iterations 10 and 208;
    # each cut frees the stack it replaces only if the pass holds no reference to it, so
    # the pass peaks where a call that builds the stack inline, in its argument list, does
    graphs = [gnp(40, 0.05 + 0.005 * k, seed=k) for k in range(167)]
    inline, outcomes = traced_peak(lambda: _power_batch(
        adjacency_stack(graphs), DEFAULT_TOLERANCE, DEFAULT_MAX_ITERATIONS))
    peak, columns = traced_peak(lambda: Lambda1Batch(graphs).columns(_lambda1_column))
    assert columns == {"outcome": outcomes}
    assert all(converged for *_, converged in outcomes)
    assert len({iterations for _, iterations, _, _ in outcomes}) > 1
    # up to Python 3.10 a caller holds each argument until the call returns, so there
    # even the inline call keeps its first stack to the end, and the peaks need not meet
    if sys.version_info >= (3, 11):
        assert peak <= inline + (64 << 10)
